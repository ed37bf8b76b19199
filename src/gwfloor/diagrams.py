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
* everything else (two floors; floor + spanning vertical; two
  verticals)                      -> type R.

Two merged markings are identified when they differ by the order of a
fused pair's two marks, or -- for a fused pair of two consecutive floor
marks -- by relabeling those two floors throughout the diagram.  The
enumeration of marked diagrams is closed under both operations: a
within-pair swap keeps every marking constraint, and no elevator joins
two merged floors, so relabeling them gives another sorted tree with the
same weights.  Each class (orbit) therefore lies among the enumerated
marked diagrams.  The counts weigh orbits instead of visiting them: an
orbit with no fused pair of two floors has only mark swaps, which always
change the marking, so it has exactly 2^r members (r its type-R pairs),
all with the same pair classes, elevator weights and local factors; n
such marked diagrams hold n / 2^r orbits.  Fusing two floors at a
position is an orbit invariant, and those orbits are each counted at
their minimum encoding, where joined twins and unsupported shapes are
detected.  ``enumerate_merged_diagrams`` lists every orbit's minimum and
is the oracle of the weighted counts.  This rule set makes the rank of
the total count equal the classical degree-d rational-curve count for
every configuration, which is the completeness certificate the test
suite enforces.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property, reduce
from itertools import combinations, product
from operator import mul, or_

from .local_factors import factor_value, residual_factor
from .univ import ResidualTilde, TildeElement

# Object ids: ("floor", f) | ("elev", k) | ("end", f, i), with f, k, i
# 1-based floor, elevator-tuple index, and per-floor end index.


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


@dataclass(frozen=True)
class FloorDiagram:
    """Degree-d genus-0 floor diagram; ends are derived from divergence."""

    d: int
    elevators: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        d = self.d
        if d < 1:
            raise ValueError("degree must be positive")
        if len(self.elevators) != d - 1:
            raise ValueError("genus 0 requires exactly d-1 bounded elevators")
        for lo, hi, w in self.elevators:
            if not (1 <= lo < hi <= d):
                raise ValueError(f"bad elevator endpoints ({lo}, {hi})")
            if w < 1:
                raise ValueError("elevator weight must be positive")
        if not _is_tree(d, [(lo, hi) for lo, hi, _w in self.elevators]):
            raise ValueError("elevators must form a tree (cycle found)")
        if tuple(self.elevators) != tuple(sorted(self.elevators)):
            raise ValueError("elevators must be listed in sorted order")
        if any(e < 0 for e in self.end_counts):
            raise ValueError("negative divergence: no valid end placement")

    @cached_property
    def end_counts(self) -> tuple[int, ...]:
        return _divergence(self.d, self.elevators)

    @property
    def n_marks(self) -> int:
        return 3 * self.d - 1

    def objects(self) -> list[tuple]:
        out = [("floor", f) for f in range(1, self.d + 1)]
        out += [("elev", k) for k in range(len(self.elevators))]
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
    all_edges = list(combinations(range(1, d + 1), 2))
    for edges in combinations(all_edges, d - 1):
        if not _is_tree(d, edges):
            continue
        for weights in product(range(1, d + 1), repeat=len(edges)):
            elevators = tuple(
                sorted((lo, hi, w) for (lo, hi), w in zip(edges, weights))
            )
            if min(_divergence(d, elevators)) >= 0:
                yield FloorDiagram(d, elevators)


def enumerate_markings(diagram: FloorDiagram) -> list[tuple[tuple, ...]]:
    """All linear extensions of the marking order constraints."""
    objects = diagram.objects()
    succ: dict[tuple, list[tuple]] = {o: [] for o in objects}
    indeg: dict[tuple, int] = {o: 0 for o in objects}

    def edge(a, b):
        succ[a].append(b)
        indeg[b] += 1

    for f in range(1, diagram.d):
        edge(("floor", f), ("floor", f + 1))
    for k, (lo, hi, _w) in enumerate(diagram.elevators):
        edge(("floor", lo), ("elev", k))
        edge(("elev", k), ("floor", hi))
    for f, cnt in enumerate(diagram.end_counts, start=1):
        for i in range(cnt):
            edge(("end", f, i), ("floor", f))
            if i + 1 < cnt:
                edge(("end", f, i), ("end", f, i + 1))

    out: list[tuple[tuple, ...]] = []
    chosen: list[tuple] = []
    ready = sorted(o for o in objects if indeg[o] == 0)

    def backtrack(ready: list[tuple]):
        if not ready:
            if len(chosen) == len(objects):
                out.append(tuple(chosen))
            return
        for idx, o in enumerate(ready):
            chosen.append(o)
            nxt = ready[:idx] + ready[idx + 1 :]
            added = []
            for b in succ[o]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    added.append(b)
            backtrack(sorted(nxt + added))
            for b in succ[o]:
                indeg[b] += 1
            chosen.pop()

    backtrack(ready)
    return out


@cache
def enumerate_diagrams(d: int) -> tuple[tuple[FloorDiagram, tuple], ...]:
    """All (diagram, marking) pairs for the simple-point problem."""
    if not 1 <= d <= MAX_DEGREE:
        raise ValueError(f"degree {d} outside supported range 1..{MAX_DEGREE}")
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


def classify_pair(diagram: FloorDiagram, marking: tuple, p: int):
    """Tag for the fused pair at marks (p, p+1), or None if no rule fits.

    Tags: ("A", object, weight) | ("R", obj1, obj2) | ("T", obj1, obj2).
    """
    o1, o2 = marking[p - 1], marking[p]
    kinds = (o1[0], o2[0])
    if kinds == ("floor", "floor"):
        return ("R", o1, o2)
    if "floor" in kinds:
        fl, other = (o1, o2) if o1[0] == "floor" else (o2, o1)
        f = fl[1]
        if other[0] == "elev":
            lo, hi, w = diagram.elevators[other[1]]
            if f in (lo, hi):
                return ("A", other, w)
            if lo < f < hi:
                return ("R", o1, o2)
            return None
        if other[0] == "end":
            if other[1] == f:
                return ("A", other, 1)
            if f < other[1]:
                return ("R", o1, o2)
            return None
    if kinds == ("end", "end") and o1[1] == o2[1]:
        return ("T", o1, o2)
    return ("R", o1, o2)


def _floor_swap_variant(
    elevators: tuple, marking: tuple, f: int, pair_pos: int
) -> tuple[tuple, tuple]:
    """Relabel floors f and f+1 everywhere, keeping the fused floor marks
    in ascending floor order (the two operations combined leave the
    marking skeleton fixed while rewiring the tree)."""
    swap = {f: f + 1, f + 1: f}

    def sf(x: int) -> int:
        return swap.get(x, x)

    raw = [
        (min(sf(lo), sf(hi)), max(sf(lo), sf(hi)), w) for lo, hi, w in elevators
    ]
    order = sorted(range(len(raw)), key=lambda k: raw[k])
    new_elevators = tuple(raw[k] for k in order)
    remap = {old: new for new, old in enumerate(order)}

    def relabel(obj: tuple) -> tuple:
        if obj[0] == "floor":
            return ("floor", sf(obj[1]))
        if obj[0] == "elev":
            return ("elev", remap[obj[1]])
        return ("end", sf(obj[1]), obj[2])

    new_marking = [relabel(o) for o in marking]
    # restore ascending floor order at the fused pair itself
    new_marking[pair_pos - 1], new_marking[pair_pos] = (
        new_marking[pair_pos],
        new_marking[pair_pos - 1],
    )
    return new_elevators, tuple(new_marking)


def _apply_swaps(diagram_elevators, marking, cfg, pair_indices):
    """Apply the alternate-encoding operation at each listed pair: the
    floor relabeling for a fused pair of floor marks, the within-pair
    mark swap otherwise."""
    elevators, mk = diagram_elevators, marking
    for i in pair_indices:
        p = cfg[i]
        o1, o2 = mk[p - 1], mk[p]
        if o1[0] == "floor" and o2[0] == "floor":
            elevators, mk = _floor_swap_variant(elevators, mk, o1[1], p)
        else:
            swapped = list(mk)
            swapped[p - 1], swapped[p] = swapped[p], swapped[p - 1]
            mk = tuple(swapped)
    return elevators, mk


@cache
def _tag_table(d: int) -> tuple[tuple, ...]:
    """``classify_pair`` at every position of every marked diagram, one
    column per position: ``table[p - 1][k]`` tags pair p of
    ``enumerate_diagrams(d)[k]``, for p = 1..3d-2."""
    marked = enumerate_diagrams(d)
    return tuple(
        tuple(classify_pair(diagram, marking, p) for diagram, marking in marked)
        for p in range(1, 3 * d - 1)
    )


@cache
def _orbit_test(d: int, index: int, rpos: tuple[int, ...]):
    """Orbit test of marked diagram ``enumerate_diagrams(d)[index]`` when
    its fused pairs at positions ``rpos`` are of type R.

    Only type-R pairs admit a second encoding (the other within-pair
    order, realised for two consecutive floor marks by relabeling the
    floors); type-A and twin pairs have a single valid order.  Returns
    None when some alternate encoding is smaller than the diagram's own,
    and otherwise its stabiliser: the position tuples whose operations
    leave the encoding unchanged.  Keyed on integers only, so a lookup
    hashes no diagram or marking.

    A mark swap changes only its own two marks, so a descending pair of
    non-floor marks proves a smaller encoding at once; once every such
    pair ascends, swaps without a floor relabeling only give larger
    encodings, and only the sets with a relabeling are searched.
    """
    diagram, marking = enumerate_diagrams(d)[index]
    relabelings = 0  # bit b set when the pair at rpos[b] fuses two floors
    for b, p in enumerate(rpos):
        o1, o2 = marking[p - 1], marking[p]
        if o1[0] == o2[0] == "floor":
            relabelings |= 1 << b
        elif o2 < o1:
            return None
    identity_key = (diagram.elevators, marking)
    stabiliser = []
    for mask in range(1, 1 << len(rpos)):
        if not mask & relabelings:
            continue
        chosen = [b for b in range(len(rpos)) if mask >> b & 1]
        key = _apply_swaps(diagram.elevators, marking, rpos, chosen)
        if key < identity_key:
            return None
        if key == identity_key:
            stabiliser.append(tuple(rpos[b] for b in chosen))
    return tuple(stabiliser)


class UnsupportedShapeError(ValueError):
    """Raised by the counts for a merge configuration whose diagrams have a
    fused-pair interaction the local-factor model does not cover."""


def _joins(diagram: FloorDiagram, cfg: tuple, tags: tuple, stabiliser: tuple) -> tuple:
    """Joint-twin detection for an orbit minimum.

    Lists index pairs (i, j) of fused pairs whose two operations act
    identically on the marking: a doubled weight-1 elevator pair together
    with the doubled floor pair above it.  Such a pair of pairs forms one
    twin tree with two double points rather than two independent
    crossings.  Any other stabiliser raises ``UnsupportedShapeError``.
    """
    joins: list[tuple[int, int]] = []
    used: set[int] = set()
    for positions in stabiliser:
        if len(positions) != 2 or used.intersection(positions):
            raise UnsupportedShapeError(
                "unsupported twin interaction between fused pairs "
                f"{list(positions)} (degree {diagram.d})"
            )
        i, j = map(cfg.index, positions)
        kinds = {tags[i][1][0], tags[i][2][0]}, {tags[j][1][0], tags[j][2][0]}
        if kinds[0] == {"floor"}:
            i, j = j, i
            kinds = kinds[1], kinds[0]
        if kinds[0] != {"elev"} or kinds[1] != {"floor"}:
            raise UnsupportedShapeError(
                "unsupported twin interaction kinds at fused pairs "
                f"{list(positions)}"
            )
        if any(diagram.elevators[obj[1]][2] != 1 for obj in tags[i][1:]):
            raise ValueError("joined twin elevators must have weight 1")
        used.update(positions)
        joins.append((i, j))
    return tuple(sorted(joins))


def _orbit_minima(d: int, cfg: tuple[int, ...], indices):
    """Yield ``(index, tags, joins)`` for every marked diagram
    ``enumerate_diagrams(d)[index]``, index in ``indices`` (ascending),
    that is its orbit's minimum encoding under the valid configuration
    cfg.  Diagrams with a pair that no rule classifies are skipped."""
    marked = enumerate_diagrams(d)
    rows = list(zip(*(_tag_table(d)[p - 1] for p in cfg))) if cfg else [()] * len(marked)
    for index in indices:
        tags = rows[index]
        if None in tags:
            continue
        rpos = tuple(p for p, tag in zip(cfg, tags) if tag[0] == "R")
        stabiliser = _orbit_test(d, index, rpos)
        if stabiliser is not None:
            yield index, tags, _joins(marked[index][0], cfg, tags, stabiliser)


_R = ("R",)


def _pair_class(tag: tuple) -> tuple:
    """What a classified pair's tag contributes to the local factors:
    ``("A", "elev", w)`` or ``("A", "end", 1)`` for type A on an elevator
    of weight w or on a down end, ``("T",)`` for a twin, ``("R",)``."""
    if tag[0] == "A":
        return ("A", tag[1][0], tag[2])
    return (tag[0],) if tag[0] == "T" else _R


def _weights(diagram: FloorDiagram) -> tuple[int, ...]:
    return tuple(sorted(w for _lo, _hi, w in diagram.elevators))


@cache
def _factor_keys(weights: tuple[int, ...], classes: tuple, joins: tuple) -> tuple[tuple, ...]:
    """Keys of a merged diagram's local factors (see ``local_factors``) in
    a canonical order, so that equal multisets give equal tuples: one
    factor per fused pair in label order (a joined pair once, at its
    elevator pair), then the square of every elevator no pair consumed,
    by weight.  ``weights`` are the diagram's elevator weights,
    ``classes`` the ``_pair_class`` of each fused pair.  A type-A pair on
    an elevator consumes that elevator; a joined pair consumes its two
    weight-1 elevators.  Down ends contribute <1> and are left out."""
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
        elif j - 1 in joined:  # joins link two type-R pairs
            # a doubled weight-1 elevator and the doubled floors above it:
            # one twin tree, two double points, odd circuit
            left.remove(1)
            left.remove(1)
            out.append(("tree", 2, 1, (j, joined[j - 1] + 1), ((1, j),)))
        elif j - 1 not in joined.values():
            out.append(("R", j))
    return (*out, *[("square", w) for w in sorted(left)])


@cache
def _class_table(d: int) -> tuple[tuple, tuple, tuple, tuple]:
    """Row bitmasks over ``enumerate_diagrams(d)``, bit k for marked
    diagram k, derived from ``_tag_table(d)``.

    Returns ``(classes, fused_floors, descending, weights)``.  For pair
    p, ``classes[p - 1]`` lists ``(pair class, rows)``; ``fused_floors[p - 1]``
    holds the rows whose pair p is type R on two floor marks, which are
    in no class; ``descending[p - 1]`` the rows whose pair p is type R on
    two other marks in descending order.  ``weights`` lists ``(sorted
    elevator weights, rows)``.  An unclassifiable pair is in no mask.
    """
    classes, fused_floors, descending = [], [], []
    for column in _tag_table(d):
        rows: dict[tuple, list[int]] = {}
        floors, down = [], []
        for k, tag in enumerate(column):
            if tag is None:
                continue
            if tag[0] == "R" and tag[1][0] == tag[2][0] == "floor":
                floors.append(k)
                continue
            if tag[0] == "R" and tag[2] < tag[1]:
                down.append(k)
            rows.setdefault(_pair_class(tag), []).append(k)
        classes.append(tuple((cls, _mask(ks)) for cls, ks in rows.items()))
        fused_floors.append(_mask(floors))
        descending.append(_mask(down))
    weights: dict[tuple, list[int]] = {}
    for k, (diagram, _marking) in enumerate(enumerate_diagrams(d)):
        weights.setdefault(_weights(diagram), []).append(k)
    return (
        tuple(classes),
        tuple(fused_floors),
        tuple(descending),
        tuple((w, _mask(ks)) for w, ks in weights.items()),
    )


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


@dataclass(frozen=True)
class MergedDiagram:
    diagram: FloorDiagram
    marking: tuple
    cfg: tuple[int, ...]
    tags: tuple
    joins: tuple[tuple[int, int], ...] = ()

    @property
    def s(self) -> int:
        return len(self.cfg)

    def factors(self) -> tuple[tuple, ...]:
        """The local factor keys in the canonical order of ``_factor_keys``."""
        classes = tuple(map(_pair_class, self.tags))
        return _factor_keys(_weights(self.diagram), classes, self.joins)

    def multiplicity(self) -> TildeElement:
        return _multiset_product(TildeElement, factor_value, self.s, self.factors())

    def residual_multiplicity(self) -> ResidualTilde:
        return _multiset_product(ResidualTilde, residual_factor, self.s, self.factors())

    def to_json(self) -> dict:
        def oid(obj: tuple) -> str:
            if obj[0] == "floor":
                return f"floor:{obj[1]}"
            if obj[0] == "elev":
                lo, hi, w = self.diagram.elevators[obj[1]]
                return f"elev:{lo}-{hi}:{w}"
            return f"end:{obj[1]}:{obj[2]}"

        partner = {}
        for i, j in self.joins:
            partner[i + 1] = j + 1
            partner[j + 1] = i + 1
        merges = []
        for j, (p, tag) in enumerate(zip(self.cfg, self.tags), start=1):
            if j in partner:
                body = {
                    "type": "twin",
                    "t": 2,
                    "m_circ": 1,
                    "partner": partner[j],
                    "objects": [oid(tag[1]), oid(tag[2])],
                }
            elif tag[0] == "A":
                body = {"type": "A", "m": tag[2], "object": oid(tag[1])}
            elif tag[0] == "T":
                body = {
                    "type": "twin",
                    "t": 1,
                    "m_circ": 2,
                    "objects": [oid(tag[1]), oid(tag[2])],
                }
            else:
                body = {"type": "R", "objects": [oid(tag[1]), oid(tag[2])]}
            merges.append({"pair": j, "position": p, "tag": body})
        return {
            "d": self.diagram.d,
            "elevators": [list(e) for e in self.diagram.elevators],
            "ends": list(self.diagram.end_counts),
            "marking": [oid(o) for o in self.marking],
            "merges": merges,
        }


def _merge_config(d: int, cfg) -> tuple[int, ...]:
    """cfg sorted, after checking that it is a merge configuration among
    the 3d-1 marks of degree d."""
    cfg = tuple(sorted(cfg))
    n = 3 * d - 1
    if not is_merge_config(cfg, n):
        raise ValueError(f"invalid merge configuration {cfg} for {n} positions")
    return cfg


@cache
def enumerate_merged_diagrams(d: int, cfg: tuple[int, ...] = ()) -> tuple[MergedDiagram, ...]:
    """All merged diagrams for the configuration, one per orbit: the
    marked diagrams that are their orbit's minimum encoding, sorted by
    that encoding."""
    cfg = _merge_config(d, cfg)
    marked = enumerate_diagrams(d)
    out = [
        MergedDiagram(*marked[index], cfg, tags, joins)
        for index, tags, joins in _orbit_minima(d, cfg, range(len(marked)))
    ]
    out.sort(key=lambda m: (m.diagram.elevators, m.marking))
    return tuple(out)


@cache
def _multiset_product(ring, value, nvars: int, multiset: tuple):
    """Product of ``value(key, nvars)`` over a canonical factor-key tuple,
    in ``ring`` (``TildeElement`` or ``ResidualTilde``).

    Cached across configurations: at degree 4 with s <= 3 the 18,859
    orbits carry only 268 distinct (s, multiset) pairs, so each product
    is multiplied out once and then scaled by its orbit count.  The
    product starts at the ring's <1>, because the degree-1 diagram has
    no factor.
    """
    return reduce(mul, (value(key, nvars) for key in multiset), ring.constant(1, nvars))


@cache
def _factor_multisets(d: int, cfg: tuple[int, ...]) -> Counter:
    """How often each factor-key tuple occurs among the merged diagrams
    (the orbits) of a valid configuration, counted by orbit weights (see
    the module docstring); no ``MergedDiagram`` is built.

    A depth-first walk over the positions ANDs the class masks of
    ``_class_table``, so each leaf holds the rows of one class tuple, and
    its rows of one elevator-weight tuple share one factor tuple.  The
    rows that fuse two floors take ``_orbit_minima`` instead.
    """
    classes, fused_floors, descending, weights = _class_table(d)
    counts: Counter = Counter()

    def walk(i: int, rows: int, chosen: tuple, r: int):
        if i < len(cfg):
            for cls, mask in classes[cfg[i] - 1]:
                if sub := rows & mask:
                    walk(i + 1, sub, (*chosen, cls), r + (cls == _R))
            return
        for w, mask in weights:
            n = (rows & mask).bit_count()
            if n % (1 << r):
                raise RuntimeError(
                    f"configuration {cfg}: {n} marked diagrams with pair "
                    f"classes {chosen} and elevator weights {w} are not a "
                    f"whole number of orbits of size {1 << r}"
                )
            if n:
                counts[_factor_keys(w, chosen, ())] += n >> r

    marked = enumerate_diagrams(d)
    walk(0, (1 << len(marked)) - 1, (), 0)
    # A descending pair of non-floor marks rules out an orbit minimum
    # (see ``_orbit_test``), so those rows need no visit.
    visit = reduce(or_, (fused_floors[p - 1] for p in cfg), 0)
    visit &= ~reduce(or_, (descending[p - 1] for p in cfg), 0)
    for index, tags, joins in _orbit_minima(d, cfg, _bits(visit)):
        pair_classes = tuple(map(_pair_class, tags))
        counts[_factor_keys(_weights(marked[index][0]), pair_classes, joins)] += 1
    return counts


def _sum_by_multiset(d: int, cfg: tuple[int, ...], ring, value):
    """The sum in ``ring`` of the multiplicity of every merged diagram of
    the configuration, its factors read by ``value``: each distinct factor
    multiset is multiplied out once and counted as often as it occurs."""
    total = ring.zero(len(cfg))
    for multiset, n in _factor_multisets(d, cfg).items():
        total = total + _multiset_product(ring, value, len(cfg), multiset) * n
    return total


@cache
def floor_count(d: int, cfg: tuple[int, ...] = ()) -> TildeElement:
    """Symbolic enriched count: sum of merged-diagram multiplicities."""
    cfg = _merge_config(d, cfg)
    return _sum_by_multiset(d, cfg, TildeElement, factor_value)


@cache
def floor_count_residual(d: int, cfg: tuple[int, ...] = ()) -> ResidualTilde:
    """Residual count assembled from the mod-2 factor table directly --
    an independent path from residual-reducing floor_count."""
    cfg = _merge_config(d, cfg)
    return _sum_by_multiset(d, cfg, ResidualTilde, residual_factor)


# ---------------------------------------------------------------------------
# Dissolution
# ---------------------------------------------------------------------------


def dissolve_specialize(count: TildeElement, j: int) -> TildeElement:
    """Set the j-th double-point parameter to 1 and drop its variable slot."""
    return count.substitute_one(j).drop_variable(j)


def dissolved_config(cfg: tuple[int, ...], j: int) -> tuple[int, ...]:
    cfg = tuple(sorted(cfg))
    if not 1 <= j <= len(cfg):
        raise ValueError(f"pair index {j} out of range")
    return cfg[: j - 1] + cfg[j:]
