"""Floor-diagram enumeration, markings, merges, and symbolic counts.

Model (plane curves of degree d, genus 0): a diagram has d floors in a
fixed vertical order, d-1 bounded elevators forming a tree on the floors
(each directed downward, carrying a positive integer weight), and d down
ends of weight 1.  The number of down ends at floor f is forced by the
divergence rule

    ends(f) = (weight into f from elevators below) + 1
              - (weight out of f to elevators above it ends at)

written here as E(f) = U(f) + 1 - L(f) with U(f) the total weight of
bounded elevators whose lower endpoint is f and L(f) the total weight of
those whose upper endpoint is f.

A marking totally orders the 3d-1 objects (floors, bounded elevators,
down ends): floor marks ascend with the floor index, an elevator's mark
lies strictly between its endpoints' floor marks, an end's mark lies
below its floor's mark, and ends sharing a floor are deduplicated by
forcing their marks to ascend with an arbitrary fixed indexing.

A merge configuration fuses s disjoint adjacent mark pairs (p, p+1) into
double points.  Each fused pair is classified from the two objects
holding those marks:

* floor + incident edge (bounded elevator, or a down end of that very
  floor)                          -> type A with the edge's weight;
  the edge's own factor is suppressed;
* two down ends of the same floor -> twin (t=1, circuit weight 2);
* two floors                      -> type R, class ("R", "floors");
* everything else (floor + spanning vertical; two verticals)
                                  -> type R, class ("R",).

Two merged markings are identified when they differ by the order of a
fused pair's two marks, or -- for a fused pair of two consecutive floor
marks -- by relabeling those two floors throughout the diagram.  The
enumeration of marked diagrams is closed under both operations: a
within-pair swap keeps every marking constraint, and no elevator joins
two merged floors, so relabeling them gives another sorted tree with the
same weights.  Each class (orbit) therefore lies among the enumerated
marked diagrams.  One walk groups the marked diagrams by their pair
classes, which the two fused objects decide; the operations of the r
type-R pairs form a group of order 2^r acting on each group.  By the
orbit-counting lemma (Cauchy-Frobenius-Burnside) a marked diagram whose
stabiliser has |Stab| elements counts |Stab| / 2^r, and the members of
each orbit sum to one.  Mark swaps alone always change the marking, so
only a floor relabeling can fix an encoding, and only on a diagram whose
elevators some floor relabeling fixes (``_stabiliser_table``).  Every
other marked diagram has a trivial stabiliser, and n of them with the
same pair classes and elevator weights, hence the same local factors,
hold n / 2^r orbits.  The stabiliser, the same for each member of an
orbit, also detects joined twins and unsupported shapes.
``enumerate_merged_diagrams`` lists every orbit's minimum encoding,
found by the orbit test, and is the oracle of the weighted counts.  This
rule set makes the rank of the total count equal the classical degree-d
rational-curve count for every configuration, which is the completeness
certificate the test suite enforces.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from functools import cache
from itertools import combinations

from .local_factors import factor_value, residual_factor
from .univ import ResidualTilde, TildeElement

# Object ids: ("floor", f) | ("elev", lo, hi, w) | ("end", f, i), with f
# a 1-based floor, (lo, hi, w) the elevator itself and i the per-floor end
# index.  Each id names its object without the diagram, and the elevator
# ids of one diagram sort as its sorted elevator tuple does.


def _is_tree(d: int, edges) -> bool:
    """Whether the (lo, hi) edges on floors 1..d close no cycle; d-1 such
    edges form a spanning tree."""
    parent = list(range(d + 1))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for lo, hi in edges:
        ra, rb = find(lo), find(hi)
        if ra == rb:
            return False
        parent[ra] = rb
    return True


def _divergence(d: int, elevators) -> tuple[int, ...]:
    """Down-end count E(f) = U(f) + 1 - L(f) forced at each floor f."""
    up = [0] * (d + 1)
    down = [0] * (d + 1)
    for lo, hi, w in elevators:
        up[lo] += w
        down[hi] += w
    return tuple(up[f] + 1 - down[f] for f in range(1, d + 1))


class FloorDiagram(namedtuple("FloorDiagram", "d elevators")):
    """Degree-d genus-0 floor diagram; ends are derived from divergence.

    ``elevators`` lists the d-1 bounded elevators (lo, hi, w) in sorted
    order."""

    __slots__ = ()

    def __new__(cls, d: int, elevators) -> "FloorDiagram":
        if d < 1:
            raise ValueError("degree must be positive")
        if len(elevators) != d - 1:
            raise ValueError("genus 0 requires exactly d-1 bounded elevators")
        for lo, hi, w in elevators:
            if not (1 <= lo < hi <= d):
                raise ValueError(f"bad elevator endpoints ({lo}, {hi})")
            if w < 1:
                raise ValueError("elevator weight must be positive")
        if not _is_tree(d, [(lo, hi) for lo, hi, _w in elevators]):
            raise ValueError("elevators must form a tree (cycle found)")
        if tuple(elevators) != tuple(sorted(elevators)):
            raise ValueError("elevators must be listed in sorted order")
        if any(e < 0 for e in _divergence(d, elevators)):
            raise ValueError("negative divergence: no valid end placement")
        return tuple.__new__(cls, (d, elevators))

    @classmethod
    def _make(cls, iterable):
        """Build through the validating constructor, so ``_replace`` does."""
        return cls(*iterable)

    @property
    def end_counts(self) -> tuple[int, ...]:
        return _divergence(self.d, self.elevators)

    @property
    def n_marks(self) -> int:
        return 3 * self.d - 1

    def objects(self) -> list[tuple]:
        out = [("floor", f) for f in range(1, self.d + 1)]
        out += [("elev", *e) for e in self.elevators]
        for f, cnt in enumerate(self.end_counts, start=1):
            out += [("end", f, i) for i in range(cnt)]
        return out


def kontsevich_nd(d: int) -> int:
    """Number of rational plane curves of degree d through 3d-1 points."""
    if d < 1:
        raise ValueError("degree must be positive")

    @cache
    def n(k: int) -> int:
        if k == 1:
            return 1
        total = 0
        for d1 in range(1, k):
            d2 = k - d1
            total += (
                n(d1)
                * n(d2)
                * (
                    d1 * d1 * d2 * d2 * math.comb(3 * k - 4, 3 * d1 - 2)
                    - d1**3 * d2 * math.comb(3 * k - 4, 3 * d1 - 1)
                )
            )
        return total

    return n(d)


# ---------------------------------------------------------------------------
# Enumeration of diagrams and markings
# ---------------------------------------------------------------------------

MAX_DEGREE = 4


def _weighted_diagrams(d: int):
    """Every floor diagram of degree d, built from the definition: trees
    in lexicographic order of their edge sets, over the sorted (lo, hi)
    pairs, and each tree's weightings in lexicographic order of the
    weights along its sorted edges.

    A tree grows by each later edge that joins two of its components.
    Its elevators are weighed by descending upper floor, so when those
    ending at floor f are reached, those leaving f upward already carry
    their weights: U(f) is fixed, and L(f) <= U(f) + 1, which is
    E(f) >= 0, bounds every choice.  No weight needs a cap.  Cutting an
    elevator off the tree leaves a side S holding its lower endpoint,
    and the sum of E(f) - 1 over S is its weight; since all floors hold
    d ends together, every weight is at most d - 1."""
    edges = list(combinations(range(1, d + 1), 2))
    trees: list[tuple] = []

    def grow(tree: tuple, component: tuple, start: int):
        if len(tree) == d - 1:
            trees.append(tree)
            return
        for k in range(start, len(edges)):
            lo, hi = edges[k]
            if component[lo] != component[hi]:
                merged = tuple(component[lo] if c == component[hi] else c for c in component)
                grow((*tree, (lo, hi)), merged, k + 1)

    def weightings(tree: tuple) -> list[tuple[int, ...]]:
        top_down = sorted(range(len(tree)), key=lambda k: -tree[k][1])
        weight = [0] * len(tree)
        room = [1] * (d + 1)  # U(f) + 1 - L(f) over the weights given so far
        found = []

        def weigh(i: int):
            if i == len(top_down):
                found.append(tuple(weight))
                return
            k = top_down[i]
            lo, hi = tree[k]
            for w in range(1, room[hi] + 1):
                weight[k] = w
                room[hi] -= w
                room[lo] += w
                weigh(i + 1)
                room[hi] += w
                room[lo] -= w

        weigh(0)
        return sorted(found)

    grow((), tuple(range(d + 1)), 0)
    for tree in trees:
        for weights in weightings(tree):
            yield FloorDiagram(d, tuple((lo, hi, w) for (lo, hi), w in zip(tree, weights)))


def enumerate_markings(diagram: FloorDiagram) -> list[tuple[tuple, ...]]:
    """All linear extensions of the marking poset, in lexicographic order.

    ``below[o]`` holds the objects that must be marked before o, one
    branch per rule of the module docstring; a marking grows by any
    unmarked object whose ``below`` set is already marked, smallest
    first."""
    objects = sorted(diagram.objects())
    below: dict[tuple, set[tuple]] = {o: set() for o in objects}
    for o in objects:
        kind, f = o[:2]
        if kind == "floor" and f > 1:  # floor marks ascend
            below[o].add(("floor", f - 1))
        elif kind == "elev":  # an elevator lies strictly between its floors
            below[o].add(("floor", f))
            below[("floor", o[2])].add(o)
        elif kind == "end":  # an end lies below its floor
            below[("floor", f)].add(o)
            if o[2]:  # the ends of one floor ascend
                below[o].add(("end", f, o[2] - 1))

    out: list[tuple[tuple, ...]] = []

    def grow(marking: tuple, marked: set[tuple]):
        if len(marking) == len(objects):
            out.append(marking)
            return
        for o in objects:
            if o not in marked and below[o] <= marked:
                marked.add(o)
                grow((*marking, o), marked)
                marked.remove(o)

    grow((), set())
    return out


def _check_degree(d: int) -> None:
    if not 1 <= d <= MAX_DEGREE:
        raise ValueError(f"degree {d} outside supported range 1..{MAX_DEGREE}")


@cache
def enumerate_diagrams(d: int) -> tuple[tuple[FloorDiagram, tuple], ...]:
    """All (diagram, marking) pairs for the simple-point problem.

    Cached per degree."""
    _check_degree(d)
    out = []
    for diagram in _weighted_diagrams(d):
        for marking in enumerate_markings(diagram):
            out.append((diagram, marking))
    return tuple(out)


# ---------------------------------------------------------------------------
# Merge configurations
# ---------------------------------------------------------------------------


def is_merge_config(cfg: tuple[int, ...], n: int) -> bool:
    """Whether cfg fuses disjoint mark pairs among n marks: positions
    p_1 < ... < p_s in {1..n-1} with consecutive gaps >= 2."""
    prev = -1  # p_1 >= 1 reads as a gap of 2 from here
    for p in cfg:
        if p - prev < 2:
            return False
        prev = p
    return prev <= n - 1


def enumerate_merge_configs(n: int, s: int) -> list[tuple[int, ...]]:
    """All merge configurations of s pairs among n marks."""
    if s < 0 or 2 * s > n:
        raise ValueError(f"cannot place {s} disjoint pairs among {n} positions")
    return [combo for combo in combinations(range(1, n), s) if is_merge_config(combo, n)]


def unit_shifts(cfg: tuple[int, ...], n: int) -> list[tuple[int, ...]]:
    """Configurations reachable by moving one pair a single position."""
    cfg = tuple(cfg)
    out = []
    for i in range(len(cfg)):
        for delta in (-1, 1):
            t = cfg[:i] + (cfg[i] + delta,) + cfg[i + 1 :]
            if is_merge_config(t, n):
                out.append(t)
    return sorted(out)


def unit_shift_graph(configs, n: int) -> dict[tuple, list[tuple]]:
    cfgset = set(map(tuple, configs))
    return {
        cfg: [t for t in unit_shifts(cfg, n) if t in cfgset]
        for cfg in sorted(cfgset)
    }


def graph_connected(graph: dict) -> bool:
    if not graph:
        return True
    seen = set()
    stack = [next(iter(sorted(graph)))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(graph[v])
    return len(seen) == len(graph)


# ---------------------------------------------------------------------------
# Pair classification and merged diagrams
# ---------------------------------------------------------------------------


_R = ("R",)
_R_FLOORS = ("R", "floors")


def classify_pair(o1: tuple, o2: tuple):
    """Class of a fused pair of the objects o1 and o2, or None if no rule
    fits.

    Classes, which are all the local factors read of a pair:
    ``("A", "elev", w)`` or ``("A", "end", 1)`` for type A on an elevator
    of weight w or on a down end, ``("T",)`` for a twin, and for type R
    ``("R", "floors")`` when both objects are floors, which alone admit
    the floor relabeling, or ``("R",)``.
    """
    kinds = (o1[0], o2[0])
    if kinds == ("floor", "floor"):
        return _R_FLOORS
    if "floor" in kinds:
        fl, other = (o1, o2) if o1[0] == "floor" else (o2, o1)
        f = fl[1]
        if other[0] == "elev":
            _elev, lo, hi, w = other
            if f in (lo, hi):
                return ("A", "elev", w)
            if lo < f < hi:
                return _R
            return None
        if other[0] == "end":
            if other[1] == f:
                return ("A", "end", 1)
            if f < other[1]:
                return _R
            return None
    if kinds == ("end", "end") and o1[1] == o2[1]:
        return ("T",)
    return _R


def _relabel_floors(marking: tuple, f: int) -> list:
    """The marking with floors f and f+1 renamed into each other in every
    object.  Applied when their marks are adjacent, so no elevator joins
    the two and every elevator keeps lo < hi."""
    sf = {f: f + 1, f + 1: f}
    return [
        ("elev", sf.get(o[1], o[1]), sf.get(o[2], o[2]), o[3])
        if o[0] == "elev"
        else (o[0], sf.get(o[1], o[1]), *o[2:])
        for o in marking
    ]


def _apply_swaps(marking: tuple, pairs) -> tuple[tuple, tuple]:
    """The encoding ``(elevators, marking)`` after the alternate-encoding
    operation at each listed ``(position, class)`` pair: the within-pair
    mark swap, preceded for a class ``("R", "floors")`` pair by relabeling
    its two floors throughout (the swap then restores ascending floor
    marks, so the two operations together rewire the tree and keep the
    marking skeleton)."""
    mk = list(marking)
    for p, cls in pairs:
        if cls == _R_FLOORS:
            mk = _relabel_floors(mk, mk[p - 1][1])
        mk[p - 1], mk[p] = mk[p], mk[p - 1]
    return tuple(sorted(o[1:] for o in mk if o[0] == "elev")), tuple(mk)


def _orbit_test(d: int, index: int, rpairs: tuple[tuple[int, tuple], ...]):
    """Orbit test of marked diagram ``enumerate_diagrams(d)[index]`` whose
    type-R pairs are ``rpairs``, as ``(position, class)``; it picks the
    orbit minima of ``enumerate_merged_diagrams``, the oracle of the
    counts, which weigh every row by its stabiliser instead.

    Only type-R pairs admit a second encoding (the other within-pair
    order, realised for a ``("R", "floors")`` pair by relabeling the
    floors); type-A and twin pairs have a single valid order.  Every
    non-empty set of the operations is applied.  Returns None when some
    alternate encoding is smaller than the diagram's own, and otherwise
    its stabiliser: the position tuples whose operations leave the
    encoding unchanged, in bit-mask order over ``rpairs``.
    """
    diagram, marking = enumerate_diagrams(d)[index]
    identity_key = (diagram.elevators, marking)
    stabiliser = []
    for mask in range(1, 1 << len(rpairs)):
        chosen = [pair for b, pair in enumerate(rpairs) if mask >> b & 1]
        key = _apply_swaps(marking, chosen)
        if key < identity_key:
            return None
        if key == identity_key:
            stabiliser.append(tuple(p for p, _cls in chosen))
    return tuple(stabiliser)


class UnsupportedShapeError(ValueError):
    """Raised by the counts for a merge configuration whose diagrams have a
    fused-pair interaction the local-factor model does not cover."""


def _joins(d: int, marking: tuple, cfg: tuple, classes: tuple, stabiliser: tuple) -> tuple:
    """Joint-twin detection for a marked diagram whose fused pairs have
    the ``classes`` and whose stabiliser is ``stabiliser``.

    Lists label pairs (i, j), 1-based, of fused pairs whose two operations
    act identically on the marking: a doubled weight-1 elevator pair i
    together with the floor pair j above it.  Such a pair of pairs forms
    one twin tree with two double points rather than two independent
    crossings.  Any other stabiliser raises ``UnsupportedShapeError``.
    """
    joins: list[tuple[int, int]] = []
    used: set[int] = set()
    for positions in stabiliser:
        if len(positions) != 2 or used.intersection(positions):
            raise UnsupportedShapeError(
                "unsupported twin interaction between fused pairs "
                f"{list(positions)} (degree {d})"
            )
        i, j = (cfg.index(p) + 1 for p in positions)
        if classes[i - 1] == _R_FLOORS:
            i, j = j, i
        elevators = marking[cfg[i - 1] - 1 : cfg[i - 1] + 1]
        if classes[j - 1] != _R_FLOORS or any(obj[0] != "elev" for obj in elevators):
            raise UnsupportedShapeError(
                "unsupported twin interaction kinds at fused pairs "
                f"{list(positions)}"
            )
        if any(obj[3] != 1 for obj in elevators):
            raise ValueError("joined twin elevators must have weight 1")
        used.update(positions)
        joins.append((i, j))
    return tuple(sorted(joins))


def _weights(diagram: FloorDiagram) -> tuple[int, ...]:
    return tuple(sorted(w for _lo, _hi, w in diagram.elevators))


def _factor_keys(weights: tuple[int, ...], classes: tuple, joins: tuple) -> tuple[tuple, ...]:
    """Keys of a merged diagram's local factors (see ``local_factors``) in
    a canonical order, so that equal multisets give equal tuples: one
    factor per fused pair in label order (a joined pair once, at its
    elevator pair), then the square of every elevator no pair consumed,
    by weight.  ``weights`` are the diagram's elevator weights,
    ``classes`` the ``classify_pair`` of each fused pair, ``joins`` the
    label pairs of ``_joins``.  A type-A pair on
    an elevator consumes that elevator; a joined pair consumes its two
    weight-1 elevators.  Down ends contribute <1> and are left out.
    ``_factor_id`` builds each tuple once and gives it its id."""
    joined = dict(joins)
    left = list(weights)
    out: list[tuple] = []
    for j, (kind, *rest) in enumerate(classes, start=1):
        if kind == "A":
            on, w = rest
            if on == "elev":
                left.remove(w)
            out.append(("A", w, j))
        elif kind == "T":
            out.append(("tree", 1, 2, (j,), ()))
        elif j in joined:  # joins link two type-R pairs
            # a doubled weight-1 elevator and the doubled floors above it:
            # one twin tree, two double points, odd circuit
            left.remove(1)
            left.remove(1)
            out.append(("tree", 2, 1, (j, joined[j]), ((1, j),)))
        elif j not in joined.values():
            out.append(("R", j))
    return (*out, *[("square", w) for w in sorted(left)])


# The factor-key tuple of each factor id, in the order ``_intern`` hands
# the ids out.  Nothing removes an entry, so an id names one tuple for the
# life of the process, and a memo keyed by ids stays right when the caches
# are cleared.
_FACTOR_KEYS: list[tuple] = []


@cache
def _intern(key: tuple) -> int:
    """The next free factor id, for a factor-key tuple of ``_factor_keys``:
    ``_FACTOR_KEYS[id]`` is the tuple again.

    Cached per distinct factor-key tuple, so equal tuples share one id: the
    table grows with the distinct tuples the counts meet, not with the
    configurations (268 over the 103 configurations at d = 4 with s <= 3,
    618 over every supported configuration at d <= 4)."""
    _FACTOR_KEYS.append(key)
    return len(_FACTOR_KEYS) - 1


@cache
def _factor_id(weights: tuple[int, ...], classes: tuple, joins: tuple) -> int:
    """The factor id of ``_factor_keys(weights, classes, joins)``, so that a
    count hashes ints, not factor-key tuples.

    Cached per (weights, classes, joins) triple: a leaf's pair classes
    with an elevator-weight tuple and joins that its rows hold, over the
    configurations counted (356 triples at d = 4 with s <= 3)."""
    return _intern(_factor_keys(weights, classes, joins))


@cache
def _class_table(d: int) -> tuple[tuple, tuple]:
    """Row bitmasks over ``enumerate_diagrams(d)``, bit k for marked
    diagram k, from ``classify_pair``.  Returns ``(classes, weights)``:
    ``classes[p - 1]`` lists ``(pair class, rows)`` for pair p (an
    unclassifiable pair is in no mask), and ``weights`` lists ``(sorted
    elevator weights, rows)``.

    Cached per degree."""
    marked = enumerate_diagrams(d)
    # Few object pairs recur over many rows (349 over 336,323 at d = 5),
    # so each is classified once per build.
    known: dict[tuple, tuple | None] = {}
    classes = []
    for p in range(1, 3 * d - 1):
        rows: dict[tuple, list[int]] = {}
        for k, (_diagram, marking) in enumerate(marked):
            pair = marking[p - 1], marking[p]
            cls = known.get(pair, False)
            if cls is False:
                cls = known[pair] = classify_pair(*pair)
            if cls is not None:
                rows.setdefault(cls, []).append(k)
        classes.append(tuple((cls, _mask(ks)) for cls, ks in rows.items()))
    weights: dict[tuple, list[int]] = {}
    for k, (diagram, _marking) in enumerate(marked):
        weights.setdefault(_weights(diagram), []).append(k)
    return tuple(classes), tuple((w, _mask(ks)) for w, ks in weights.items())


def _mask(indices: list[int]) -> int:
    """The int with exactly the bits ``indices`` set (ascending)."""
    buf = bytearray(indices[-1] // 8 + 1 if indices else 0)
    for k in indices:
        buf[k >> 3] |= 1 << (k & 7)
    return int.from_bytes(buf, "little")


def _bits(mask: int):
    """The set bits of ``mask``, ascending."""
    text = bin(mask)[:1:-1]  # bit k at text[k]
    k = text.find("1")
    while k >= 0:
        yield k
        k = text.find("1", k + 1)


@cache
def _stabiliser_table(d: int) -> tuple[tuple[tuple[int, int], ...], dict[int, tuple]]:
    """Every candidate stabiliser element of the marked diagrams of
    ``enumerate_diagrams(d)``, found once per degree.

    Only an operation that relabels floors can leave an encoding
    unchanged, and it must leave the elevator tuple unchanged: the
    diagram needs a fixing floor set, a non-empty set of disjoint
    relabelings f <-> f+1 that maps its elevators to themselves.  For
    each row of such a diagram and each such set, one pass over the
    relabeled marking decides whether the set gives an element: every
    object the set moves must sit next to its image, and the element is
    the positions of those pairs, the floor pairs and the swaps they
    force.  The pass alone enforces that each floor pair holds adjacent
    marks: the image has floor f+1 at floor f's mark, and floor marks
    ascend, so floor f+1 can only be floor f's upper neighbour.  Under a
    configuration the element lies in the row's stabiliser exactly when
    its position mask lies inside the configuration's.

    Returns ``(by_mask, elements)``: ``by_mask`` lists ``(position mask,
    rows)`` for the rows holding an element with that mask, and
    ``elements[k]`` lists row k's elements as ``(position mask,
    positions)`` ascending by mask, the order of ``_orbit_test``'s bit
    masks over the type-R pairs.

    Cached per degree.
    """
    marked = enumerate_diagrams(d)
    candidates = [
        floors for size in range(1, d // 2 + 1) for floors in enumerate_merge_configs(d, size)
    ]
    fixing: dict[FloorDiagram, list[tuple[int, ...]]] = {}
    for diagram, _marking in marked:
        if diagram not in fixing:
            fixing[diagram] = []
            for floors in candidates:
                moved = [("elev", *e) for e in diagram.elevators]
                for f in floors:
                    moved = _relabel_floors(moved, f)
                if sorted(o[1:] for o in moved) == list(diagram.elevators):
                    fixing[diagram].append(floors)
    by_mask: dict[int, list[int]] = {}
    elements: dict[int, tuple] = {}
    for k, (diagram, marking) in enumerate(marked):
        found = []
        for floors in fixing[diagram]:
            image = marking
            for f in floors:
                image = _relabel_floors(image, f)
            positions: list[int] = []
            i = 0
            while i < len(marking):
                if image[i] == marking[i]:
                    i += 1
                elif i + 1 < len(marking) and image[i] == marking[i + 1]:
                    positions.append(i + 1)
                    i += 2
                else:
                    break
            else:
                found.append((sum(1 << p for p in positions), tuple(positions)))
        if found:
            elements[k] = tuple(sorted(found))
            for mask, _positions in found:
                by_mask.setdefault(mask, []).append(k)
    return tuple((mask, _mask(ks)) for mask, ks in by_mask.items()), elements


def _leaves(d: int, cfg: tuple[int, ...]) -> list[tuple[tuple, tuple, int]]:
    """Each ``(classes, rpairs, rows)`` under the valid configuration cfg,
    one per tuple of pair classes that some marked diagram has: ``rows``
    are the marked diagrams with those classes, ``rpairs`` the
    ``(position, class)`` of the type-R pairs.  The leaves grow one pair
    at a time, each split by the masks of ``_class_table`` at its
    position, so they come out in the order of the table's classes; an
    unclassifiable row reaches none."""
    classes = _class_table(d)[0]
    leaves = [((), (), (1 << len(enumerate_diagrams(d))) - 1)]
    for p in cfg:
        leaves = [
            ((*chosen, cls), (*rpairs, (p, cls)) if cls[0] == "R" else rpairs, sub)
            for chosen, rpairs, rows in leaves
            for cls, mask in classes[p - 1]
            if (sub := rows & mask)
        ]
    return leaves


def _oid(obj: tuple) -> str:
    """An object id as text: ``floor:f``, ``elev:lo-hi:w`` or ``end:f:i``."""
    if obj[0] == "elev":
        return "elev:{}-{}:{}".format(*obj[1:])
    return ":".join(map(str, obj))


class MergedDiagram(namedtuple("MergedDiagram", "diagram marking cfg classes joins", defaults=((),))):
    """A marked floor diagram with the pairs at the positions ``cfg``
    merged: ``classes`` holds each pair's ``classify_pair`` class, and
    ``joins`` the 1-based label pairs (i, j) that form one twin tree, a
    weight-1 elevator pair i with the floor pair j above it."""

    __slots__ = ()

    @property
    def s(self) -> int:
        return len(self.cfg)

    def factors(self) -> tuple[tuple, ...]:
        """The local factor keys in the canonical order of ``_factor_keys``."""
        return _FACTOR_KEYS[self._fid()]

    def _fid(self) -> int:
        return _factor_id(_weights(self.diagram), self.classes, self.joins)

    def multiplicity(self) -> TildeElement:
        return _multiset_product(TildeElement, factor_value, self.s, self._fid())

    def residual_multiplicity(self) -> ResidualTilde:
        return _multiset_product(ResidualTilde, residual_factor, self.s, self._fid())

    def to_json(self) -> dict:
        partner = {}
        for i, j in self.joins:
            partner[i] = j
            partner[j] = i
        merges = []
        for j, (p, cls) in enumerate(zip(self.cfg, self.classes), start=1):
            o1, o2 = self.marking[p - 1], self.marking[p]
            objects = [_oid(o1), _oid(o2)]
            if j in partner:
                body = {"type": "twin", "t": 2, "m_circ": 1, "partner": partner[j], "objects": objects}
            elif cls[0] == "A":
                edge = o2 if o1[0] == "floor" else o1
                body = {"type": "A", "m": cls[2], "object": _oid(edge)}
            elif cls[0] == "T":
                body = {"type": "twin", "t": 1, "m_circ": 2, "objects": objects}
            else:
                body = {"type": "R", "objects": objects}
            merges.append({"pair": j, "position": p, "tag": body})
        return {
            "d": self.diagram.d,
            "elevators": [list(e) for e in self.diagram.elevators],
            "ends": list(self.diagram.end_counts),
            "marking": [_oid(o) for o in self.marking],
            "merges": merges,
        }


def _merge_config(d: int, cfg: Sequence[int]) -> tuple[int, ...]:
    """cfg as a tuple, after checking that d is a supported degree and
    that cfg, exactly as given, is a merge configuration among its 3d-1
    marks; the error names the rule that is broken."""
    _check_degree(d)
    cfg = tuple(cfg)
    n = 3 * d - 1
    if not is_merge_config(cfg, n):
        rule = (
            f"positions must lie in 1..{n - 1}"
            if any(not 1 <= p < n for p in cfg)
            else "positions must be ascending and at least 2 apart"
        )
        raise ValueError(f"{cfg} is not a valid merge configuration for {n} points ({rule})")
    return cfg


def enumerate_merged_diagrams(d: int, cfg: Sequence[int] = ()) -> tuple[MergedDiagram, ...]:
    """All merged diagrams for the configuration, one per orbit: the
    marked diagrams that are their orbit's minimum encoding, sorted by
    that encoding.  Built afresh on every call: no merged diagram is
    kept."""
    cfg = _merge_config(d, cfg)
    marked = enumerate_diagrams(d)
    out = []
    for classes, rpairs, rows in _leaves(d, cfg):
        for index in _bits(rows):
            stabiliser = _orbit_test(d, index, rpairs)
            if stabiliser is not None:
                diagram, marking = marked[index]
                joins = _joins(d, marking, cfg, classes, stabiliser)
                out.append(MergedDiagram(diagram, marking, cfg, classes, joins))
    out.sort(key=lambda m: (m.diagram.elevators, m.marking))
    return tuple(out)


@cache
def _key_product(ring, value, nvars: int, multiset: tuple):
    """Product of ``value(key, nvars)`` over a factor-key tuple, in
    ``ring`` (``TildeElement`` or ``ResidualTilde``), multiplied left to
    right from the ring's <1> (the degree-1 diagram has no factor).

    Cached per (ring, value, nvars, multiset), across configurations, and
    so is every prefix: the product is the cached product of
    ``multiset[:-1]`` times the last factor.  At degree 4 with s <= 3
    the 18,859 orbits carry only 268 distinct (s, multiset) pairs per
    ring, with 447 distinct prefixes (the empty one included)."""
    if not multiset:
        return ring.constant(1, nvars)
    return _key_product(ring, value, nvars, multiset[:-1]) * value(multiset[-1], nvars)


@cache
def _multiset_product(ring, value, nvars: int, fid: int):
    """The ``_key_product`` of the factor-key tuple whose id is ``fid``:
    ``_sum_by_multiset`` finds each product by int, reads it, weighted by
    its orbit count, and never mutates it.

    Cached per (ring, value, nvars, factor id), across configurations, so
    each factor-key tuple is hashed once per (ring, value, nvars), never
    per configuration."""
    return _key_product(ring, value, nvars, _FACTOR_KEYS[fid])


@cache
def _factor_multisets(d: int, cfg: tuple[int, ...]) -> dict[int, int]:
    """How many merged diagrams (orbits) of a valid configuration carry
    each factor multiset, as ``{factor id: orbit count}``, counted by
    stabiliser weights (see the module docstring); no ``MergedDiagram``
    is built, and no factor-key tuple is hashed, since ``_factor_id``
    gives each (weights, classes, joins) its id.

    Each leaf of ``_leaves`` (one tuple of pair classes) is counted by
    one loop.  When the leaf holds a row with an element of
    ``_stabiliser_table`` inside the configuration, each such row is
    read on its own: its joins come from those elements, and it adds
    1 + their number (the identity and them) to its factor id.  Every
    other row has a trivial stabiliser, and the rows of one
    elevator-weight tuple add their number to one factor id.  A leaf
    with r type-R pairs then holds weight / 2^r merged diagrams of each
    factor id, and a weight that 2^r does not divide raises.

    Cached per validated configuration, so it grows with the number of
    configurations counted; both rings read it.
    """
    weights = _class_table(d)[1]
    by_mask, elements = _stabiliser_table(d)
    marked = enumerate_diagrams(d)
    cfg_mask = sum(1 << p for p in cfg)
    stabilised = 0
    for mask, rows in by_mask:
        if not mask & ~cfg_mask:
            stabilised |= rows
    counts: dict[int, int] = {}
    for chosen, rpairs, rows in _leaves(d, cfg):
        weight: dict[int, int] = {}
        trivial = rows
        if held := rows & stabilised:
            trivial = rows ^ held
            for index in _bits(held):
                diagram, marking = marked[index]
                stabiliser = tuple(pos for mask, pos in elements[index] if not mask & ~cfg_mask)
                joins = _joins(d, marking, cfg, chosen, stabiliser)
                fid = _factor_id(_weights(diagram), chosen, joins)
                weight[fid] = weight.get(fid, 0) + 1 + len(stabiliser)
        for w, mask in weights:
            if n := (trivial & mask).bit_count():
                fid = _factor_id(w, chosen, ())
                weight[fid] = weight.get(fid, 0) + n
        size = 1 << len(rpairs)
        for fid, total in weight.items():
            if total % size:
                raise RuntimeError(
                    f"configuration {cfg}: marked diagrams with pair classes "
                    f"{chosen} weigh {total} toward factor key {_FACTOR_KEYS[fid]}, "
                    f"not a whole number of orbits of size {size}"
                )
            counts[fid] = counts.get(fid, 0) + total // size
    return counts


@cache
def _sum_by_multiset(d: int, cfg: tuple[int, ...], ring, value):
    """The sum in ``ring`` of the multiplicity of every merged diagram of
    the configuration, its factors read by ``value``: each distinct factor
    multiset is multiplied out once (``_multiset_product``, found by its
    factor id), and ``ring.linear_combination`` adds the products, each
    times its orbit count, in integer coordinates.

    Cached per validated configuration and ring, so it grows with the
    number of configurations counted.  It is one of the two memos keyed
    by the tuple ``_merge_config`` returns: this one holds each ring's
    count, and ``_factor_multisets`` holds the orbit counts that both
    rings read, so a configuration's second ring does not walk again."""
    s = len(cfg)
    return ring.linear_combination(
        s, ((_multiset_product(ring, value, s, fid), n) for fid, n in _factor_multisets(d, cfg).items())
    )


def floor_count(d: int, cfg: Sequence[int] = ()) -> TildeElement:
    """Symbolic enriched count: sum of merged-diagram multiplicities."""
    return _sum_by_multiset(d, _merge_config(d, cfg), TildeElement, factor_value)


def floor_count_residual(d: int, cfg: Sequence[int] = ()) -> ResidualTilde:
    """Residual count assembled from the mod-2 factor table directly --
    an independent path from residual-reducing floor_count."""
    return _sum_by_multiset(d, _merge_config(d, cfg), ResidualTilde, residual_factor)


# ---------------------------------------------------------------------------
# Dissolution
# ---------------------------------------------------------------------------


def dissolved_config(cfg: tuple[int, ...], j: int) -> tuple[int, ...]:
    """cfg, exactly as given, without its j-th pair (1-based)."""
    cfg = tuple(cfg)
    # no mark count is given, so any count above the last position will do
    if not is_merge_config(cfg, max(cfg, default=0) + 1):
        raise ValueError(
            f"{cfg} is not a valid merge configuration "
            "(positions must be ascending and at least 2 apart)"
        )
    if not 1 <= j <= len(cfg):
        raise ValueError(f"pair index {j} out of range")
    return cfg[: j - 1] + cfg[j:]
