"""Floor diagrams, merge configurations, counts, and dissolution."""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import combinations, permutations, product
from operator import mul, or_
from pathlib import Path

import pytest

from gwfloor import checks, diagrams, local_factors, wallcross
from gwfloor.diagrams import (
    FloorDiagram,
    MergedDiagram,
    UnsupportedShapeError,
    _FACTOR_KEYS,
    _apply_swaps,
    _class_table,
    _factor_multisets,
    _joins,
    _multiset_product,
    _orbit_test,
    _stabiliser_table,
    _weighted_diagrams,
    classify_pair,
    dissolved_config,
    enumerate_diagrams,
    enumerate_markings,
    enumerate_merge_configs,
    enumerate_merged_diagrams,
    floor_count,
    floor_count_residual,
    graph_connected,
    is_merge_config,
    kontsevich_nd,
    unit_shift_graph,
    unit_shifts,
)
from gwfloor.fields import ClosedField, FiniteField, RealField, specialize_field
from gwfloor.local_factors import factor_value, residual_factor
from gwfloor.univ import (
    UNIV_H,
    UNIV_ONE,
    UNIV_TWO,
    ResidualTilde,
    TildeElement,
    residual_reduce,
)
from gwfloor.wallcross import SWEEP_FQ_ORDERS


class TestFloorDiagram:
    def test_validation(self):
        with pytest.raises(ValueError):
            FloorDiagram(0, ())
        with pytest.raises(ValueError):
            FloorDiagram(2, ())  # wrong elevator count
        with pytest.raises(ValueError):
            FloorDiagram(2, ((2, 1, 1),))  # lo >= hi
        with pytest.raises(ValueError):
            FloorDiagram(2, ((1, 2, 0),))  # weight < 1
        with pytest.raises(ValueError):
            FloorDiagram(3, ((1, 3, 1), (1, 2, 1)))  # unsorted
        with pytest.raises(ValueError):
            FloorDiagram(3, ((1, 2, 1), (2, 3, 3)))  # negative divergence

    def test_end_counts(self):
        dg = FloorDiagram(3, ((1, 2, 2), (2, 3, 1)))
        assert dg.end_counts == (3, 0, 0)
        dg = FloorDiagram(3, ((1, 2, 1), (2, 3, 1)))
        assert dg.end_counts == (2, 1, 0)

    def test_marks_and_objects(self):
        dg = FloorDiagram(2, ((1, 2, 1),))
        assert dg.n_marks == 5
        objs = dg.objects()
        assert ("floor", 1) in objs and ("elev", 1, 2, 1) in objs
        assert sum(1 for o in objs if o[0] == "end") == 2


class TestKontsevich:
    def test_known_values(self):
        assert [kontsevich_nd(d) for d in (1, 2, 3, 4, 5)] == [
            1,
            1,
            12,
            620,
            87304,
        ]

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            kontsevich_nd(0)


class TestEnumeration:
    def test_degree_two(self):
        pairs = enumerate_diagrams(2)
        assert len(pairs) == 1
        assert pairs[0][0].elevators == ((1, 2, 1),)

    def test_degree_three_census(self):
        pairs = enumerate_diagrams(3)
        assert len(pairs) == 9
        by_diagram = Counter(dg.elevators for dg, _ in pairs)
        assert by_diagram == {
            ((1, 2, 1), (1, 3, 1)): 3,
            ((1, 2, 1), (2, 3, 1)): 5,
            ((1, 2, 2), (2, 3, 1)): 1,
        }

    def test_markings_are_linear_extensions(self):
        dg = FloorDiagram(3, ((1, 2, 1), (2, 3, 1)))
        markings = enumerate_markings(dg)
        assert len(markings) == 5
        for mk in markings:
            assert sorted(mk) == sorted(dg.objects())
            # floors appear bottom-up along every marking
            assert mk.index(("floor", 1)) < mk.index(("floor", 2))
            assert mk.index(("floor", 2)) < mk.index(("floor", 3))

    def test_markings_are_the_filtered_permutations(self):
        """At d <= 3, the markings of every diagram are exactly the
        orderings of its sorted objects that obey the four rules, in the
        order ``permutations`` yields them."""
        for d in (1, 2, 3):
            for diagram in dict.fromkeys(dg for dg, _marking in enumerate_diagrams(d)):
                brute = [
                    mk for mk in permutations(sorted(diagram.objects())) if _obeys_marking_rules(diagram, mk)
                ]
                assert enumerate_markings(diagram) == brute

    def test_degree_four_markings_obey_the_rules_and_ascend(self):
        rows = enumerate_diagrams(4)
        assert all(_obeys_marking_rules(dg, mk) for dg, mk in rows)
        for dg in dict.fromkeys(dg for dg, _marking in rows):
            markings = [mk for other, mk in rows if other == dg]
            assert all(a < b for a, b in zip(markings, markings[1:]))


    def test_diagrams_are_the_filtered_weightings(self):
        """At d <= 5, the diagrams built by construction are exactly those
        the filter keeps, in its order: every (d-1)-edge tree of the
        complete graph on the floors, times every weight tuple in 1..d,
        kept when no divergence is negative."""
        for d in range(1, 6):
            assert list(_weighted_diagrams(d)) == list(_filtered_diagrams(d)), d

    def test_degree_one_has_one_diagram_without_elevators(self):
        assert [diagram.elevators for diagram in _weighted_diagrams(1)] == [()]

    def test_diagram_count_is_cayley_count(self):
        """The diagram count equals d^(d-2), Cayley's count of labelled
        trees on d vertices, at every d <= 6.  This is observed here, not
        derived: no bijection with the labelled trees is claimed."""
        counts = [sum(1 for _ in _weighted_diagrams(d)) for d in range(1, 7)]
        assert counts == [d ** (d - 2) for d in range(1, 7)] == [1, 1, 3, 16, 125, 1296]


def _filtered_diagrams(d: int):
    """The floor diagrams of degree d by brute force: each (d-1)-edge
    subset of the complete graph on the floors that forms a tree, in
    ``combinations`` order, then each weight tuple in 1..d in ``product``
    order, kept when every floor's divergence is non-negative."""
    all_edges = list(combinations(range(1, d + 1), 2))
    for edges in combinations(all_edges, d - 1):
        if not diagrams._is_tree(d, edges):
            continue
        for weights in product(range(1, d + 1), repeat=len(edges)):
            elevators = tuple(sorted((lo, hi, w) for (lo, hi), w in zip(edges, weights)))
            if min(diagrams._divergence(d, elevators)) >= 0:
                yield FloorDiagram(d, elevators)


def _obeys_marking_rules(diagram: FloorDiagram, marking: tuple) -> bool:
    """The four marking rules of the ``diagrams`` module docstring, read
    off the marks of one ordering of the diagram's objects."""
    mark = {o: k for k, o in enumerate(marking)}
    floor = {f: mark[("floor", f)] for f in range(1, diagram.d + 1)}
    ends = [o for o in marking if o[0] == "end"]
    return (
        all(floor[f] < floor[f + 1] for f in range(1, diagram.d))
        and all(floor[lo] < mark[("elev", lo, hi, w)] < floor[hi] for lo, hi, w in diagram.elevators)
        and all(mark[o] < floor[o[1]] for o in ends)
        and all(mark[("end", o[1], o[2] - 1)] < mark[o] for o in ends if o[2])
    )


class TestMergeConfigs:
    def test_counts(self):
        assert len(enumerate_merge_configs(8, 0)) == 1
        assert len(enumerate_merge_configs(8, 1)) == 7
        assert len(enumerate_merge_configs(8, 2)) == 15
        assert enumerate_merge_configs(5, 2) == [(1, 3), (1, 4), (2, 4)]

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            enumerate_merge_configs(5, 3)

    def test_degree_outside_the_range_names_it(self):
        with pytest.raises(ValueError, match=rf"1\.\.{diagrams.MAX_DEGREE}"):
            floor_count(0, ())

    @pytest.mark.parametrize("count", [floor_count, floor_count_residual, enumerate_merged_diagrams])
    def test_descending_positions_are_rejected(self, count):
        for cfg in ((7, 5), [7, 5]):
            with pytest.raises(ValueError, match="ascending"):
                count(3, cfg)

    @pytest.mark.parametrize("count", [floor_count, floor_count_residual, enumerate_merged_diagrams])
    def test_list_and_tuple_agree(self, count):
        """The counts validate a configuration before any memo reads it,
        so they take any int sequence, a list included."""
        assert count(4, [3, 6, 9]) == count(4, (3, 6, 9))

    def test_unit_shifts(self):
        assert unit_shifts((1,), 8) == [(2,)]
        assert unit_shifts((4,), 8) == [(3,), (5,)]
        assert unit_shifts((1, 3), 5) == [(1, 4)]

    def test_graph_connected_small(self):
        for n in (5, 8, 11):
            for s in range(0, n // 2 + 1):
                cfgs = enumerate_merge_configs(n, s)
                assert graph_connected(unit_shift_graph(cfgs, n))


class TestCounts:
    def test_unmerged_anchor(self):
        assert floor_count(3) == TildeElement.constant(
            8 * UNIV_ONE + 2 * UNIV_H, 0
        )

    def test_single_pair_anchor(self):
        assert floor_count(3, (7,)) == TildeElement(
            1,
            {
                frozenset(): 6 * UNIV_ONE + 2 * UNIV_H + UNIV_TWO,
                frozenset({1}): UNIV_TWO,
            },
        )

    def test_joined_pair_anchor(self):
        assert floor_count(3, (5, 7)) == TildeElement(
            2,
            {
                frozenset(): 6 * UNIV_ONE + 2 * UNIV_H,
                frozenset({1}): UNIV_TWO,
                frozenset({2}): UNIV_TWO,
            },
        )

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_rank_oracle_low_degree(self, d):
        n = 3 * d - 1
        for s in range(0, n // 2 + 1):
            for cfg in enumerate_merge_configs(n, s):
                assert floor_count(d, cfg).rank == kontsevich_nd(d)

    def test_rank_oracle_degree_four_spot(self):
        assert floor_count(4).rank == 620
        assert floor_count(4, (1, 5)).rank == 620

    def test_signature_ladder(self):
        # with every pair parameter negative the real signature drops by
        # two per pair, independent of the pair positions
        model = RealField()
        for s in range(0, 4):
            for cfg in enumerate_merge_configs(8, s):
                cls = specialize_field(
                    floor_count(3, cfg), model, {j: -1 for j in range(1, s + 1)}
                )
                assert cls.sig == 8 - 2 * s

    def test_residual_two_path(self):
        for cfg in [(), (3,), (5, 7), (1, 3, 5)]:
            assert floor_count_residual(3, cfg) == residual_reduce(
                floor_count(3, cfg)
            )


class TestWelschinger:
    """The all-negative real signature is the Welschinger invariant W_{d,s}
    tabulated in ``checks.WELSCHINGER``."""

    @pytest.mark.parametrize(
        "s, value, unsupported",
        [
            (0, 240, ""),
            (1, 144, ""),
            (2, 80, ""),
            (3, 40, ""),
            (4, 16, "; 1 unsupported: (1, 3, 5, 7)"),
            (5, 0, "; 2 unsupported: (1, 3, 5, 7, 9), (1, 3, 5, 7, 10)"),
        ],
    )
    def test_degree_four(self, s, value, unsupported):
        """Every supported configuration at d = 4 has the tabulated
        signature; the unsupported ones are named, never counted."""
        assert checks.WELSCHINGER[4][s] == value
        assert checks._check_signature_invariance(4, s) == (
            True,
            f"common signature {value}{unsupported}",
        )

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_s_zero_counts_marked_diagrams_with_odd_elevators(self, d):
        """W_{d,0} without any enriched factor, merge or field: the number
        of marked floor diagrams whose elevator weights are all odd (1, 1,
        8, 240 at d = 1..4).

        With every point real, Mikhalkin's real multiplicity of a tropical
        curve is the product over its vertices of (-1)^((m-1)/2) for an
        odd vertex multiplicity m, and 0 for an even one (Mikhalkin,
        *Enumerative tropical algebraic geometry in R^2*, JAMS 2005).  In
        a floor decomposition, an elevator of weight w meets its two
        floors at two vertices of multiplicity w (Brugallé-Mikhalkin,
        *Enumeration of curves via floor diagrams*, 2007; *Floor
        decompositions of tropical curves: the planar case*, 2008), whose
        two equal signs cancel.  So a marked diagram contributes 1 when
        every elevator weight is odd and 0 otherwise.  A single sign
        (-1)^((w-1)/2) per elevator would give 234 at d = 4, not 240.
        """
        odd = sum(
            all(w % 2 for _lo, _hi, w in diagram.elevators)
            for diagram, _marking in enumerate_diagrams(d)
        )
        assert odd == checks.WELSCHINGER[d][0], d

    def test_table_covers_every_pair_count(self):
        for d, values in checks.WELSCHINGER.items():
            assert len(values) == (3 * d - 1) // 2 + 1, d

    def test_wrong_value_names_expected_and_measured(self, monkeypatch):
        monkeypatch.setitem(checks.WELSCHINGER, 3, (8, 6, 5, 2, 0))
        assert checks._check_signature_invariance(3, 2) == (
            False,
            "expected Welschinger invariant 5, got signature 4",
        )


# Counts the 103 configurations at d = 4 with s <= 3 in the order given by
# argv[1] and prints one JSON line per configuration, sorted by it.
_ORDER_PROBE = """
import json, sys
from gwfloor import enumerate_merge_configs, floor_count, floor_count_residual

configs = sorted(cfg for s in range(4) for cfg in enumerate_merge_configs(11, s))
if sys.argv[1] == "reversed":
    configs.reverse()
rows = {}
for cfg in configs:
    residual = [[list(labels), list(v)] for labels, v in floor_count_residual(4, cfg).terms()]
    rows[cfg] = json.dumps([list(cfg), floor_count(4, cfg).to_json(), residual])
print("\\n".join(rows[cfg] for cfg in sorted(rows)))
"""


class TestMultisetMemo:
    """floor_count and floor_count_residual multiply each distinct factor
    multiset once; they must equal the naive per-diagram sums."""

    @staticmethod
    def _configs():
        for d in (1, 2, 3):
            n = 3 * d - 1
            for s in range(0, n // 2 + 1):
                for cfg in enumerate_merge_configs(n, s):
                    yield d, cfg
        for cfg in [(), (5,), (3, 8), (2, 5, 9)]:
            yield 4, cfg

    def test_matches_naive_sum(self):
        for d, cfg in self._configs():
            exact = TildeElement.zero(len(cfg))
            residual = ResidualTilde.zero(len(cfg))
            for merged in enumerate_merged_diagrams(d, cfg):
                exact = exact + merged.multiplicity()
                residual = residual + merged.residual_multiplicity()
            assert floor_count(d, cfg) == exact, (d, cfg)
            assert floor_count_residual(d, cfg) == residual, (d, cfg)

    def test_factors_in_canonical_order(self):
        """Equal factor multisets give equal factor tuples, so the memo
        may key on the tuple; every key has one of the four kinds, so
        down ends contribute no factor."""
        for d, cfg in _all_configs(4):
            try:
                merged = enumerate_merged_diagrams(d, cfg)
            except ValueError:
                # the unsupported shapes of TestUnsupportedShapes
                assert (d, cfg[:4]) == (4, (1, 3, 5, 7)), cfg
                continue
            orders = {}
            for m in merged:
                factors = m.factors()
                assert all(f[0] in ("square", "A", "R", "tree") for f in factors), m
                orders.setdefault(frozenset(Counter(factors).items()), set()).add(factors)
            assert all(len(tuples) == 1 for tuples in orders.values()), (d, cfg)

    def test_factor_ids_match_factors(self):
        """The key tuples counted by orbit weights, read back from their
        ids, are the factor tuples of the merged diagrams (the orbit
        minima), with the same multiplicities, on every supported
        configuration at d <= 4."""
        supported = joined = 0
        for d, cfg in _all_configs(4):
            if (d, cfg[:4]) == (4, (1, 3, 5, 7)):
                continue
            merged = enumerate_merged_diagrams(d, cfg)
            by_keys = {_FACTOR_KEYS[fid]: n for fid, n in _factor_multisets(d, cfg).items()}
            assert by_keys == Counter(m.factors() for m in merged), (d, cfg)
            supported += 1
            joined += sum(1 for m in merged if m.joins)
        assert (supported, joined) == (185, 414)

    def test_factor_census_degree_four(self):
        """The factors of the 103 configurations at d = 4 with s <= 3, as
        perfbench's count-d4 counters read them: merged diagrams, factors,
        distinct (s, factor multiset) pairs, and factors by kind."""
        configs = [cfg for s in range(4) for cfg in enumerate_merge_configs(11, s)]
        assert len(configs) == 103
        merged = 0
        kinds = Counter()
        multisets = set()
        for cfg in configs:
            for m in enumerate_merged_diagrams(4, cfg):
                merged += 1
                factors = m.factors()
                kinds.update(f[0] for f in factors)
                multisets.add((m.s, frozenset(Counter(factors).items())))
        assert merged == 18_859
        assert sum(kinds.values()) == 80_042
        assert len(multisets) == 268
        assert kinds == {"square": 36_602, "A": 24_623, "R": 10_502, "tree": 8_315}

    def test_counts_match_merged_diagrams_everywhere(self):
        """floor_count and floor_count_residual equal the sums over the
        orbit minima of enumerate_merged_diagrams on every configuration
        at d <= 4, and the unsupported ones raise the oracle's message."""
        products = {}

        def oracle(merged, nvars, value, ring):
            total = ring.zero(nvars)
            for factors, n in Counter(m.factors() for m in merged).items():
                key = (value, nvars, factors)
                if key not in products:
                    products[key] = reduce(
                        mul, (value(f, nvars) for f in factors), ring.constant(1, nvars)
                    )
                total = total + products[key] * n
            return total

        unsupported = []
        for d, cfg in _all_configs(4):
            try:
                merged = enumerate_merged_diagrams(d, cfg)
            except UnsupportedShapeError as exc:
                for count in (floor_count, floor_count_residual):
                    with pytest.raises(UnsupportedShapeError) as raised:
                        count(d, cfg)
                    assert str(raised.value) == str(exc)
                unsupported.append((cfg, str(exc)))
                continue
            s = len(cfg)
            exact = oracle(merged, s, factor_value, TildeElement)
            residual = oracle(merged, s, residual_factor, ResidualTilde)
            assert floor_count(d, cfg) == exact, (d, cfg)
            assert floor_count_residual(d, cfg) == residual, (d, cfg)
        message = "unsupported twin interaction between fused pairs [1, 3, 5, 7] (degree 4)"
        assert unsupported == [
            ((1, 3, 5, 7), message),
            ((1, 3, 5, 7, 9), message),
            ((1, 3, 5, 7, 10), message),
        ]

    def test_prefix_products_multiply_factor_by_factor(self):
        """Every (s, multiset) of the supported counts at d <= 4, in both
        rings, is the product multiplied out one factor at a time from
        the ring's <1>, although the cache builds it from its prefix."""
        multisets = set()
        for d, cfg in _all_configs(4):
            if (d, cfg[:4]) != (4, (1, 3, 5, 7)):
                multisets.update((len(cfg), fid) for fid in _factor_multisets(d, cfg))
        for ring, value in ((TildeElement, factor_value), (ResidualTilde, residual_factor)):
            for s, fid in multisets:
                multiset = _FACTOR_KEYS[fid]
                product = ring.constant(1, s)
                for key in multiset:
                    product = product * value(key, s)
                assert _multiset_product(ring, value, s, fid) == product, (s, multiset)
            assert _multiset_product(ring, value, 2, diagrams._intern(())) == ring.constant(1, 2)

    def test_factor_ids_grow_with_distinct_tuples(self):
        """Each distinct factor tuple gets one id: over every supported
        configuration at d <= 4 the ids are as many as the distinct
        ``MergedDiagram.factors()`` tuples, and walking every
        configuration again, its per-configuration memos and its
        (weights, classes, joins) ids cleared, adds no id."""
        _clear_caches()
        supported = [(d, cfg) for d, cfg in _all_configs(4) if (d, cfg[:4]) != (4, (1, 3, 5, 7))]
        for d, cfg in supported:
            floor_count(d, cfg)
            floor_count_residual(d, cfg)
        ids = len(_FACTOR_KEYS)
        for memo in (diagrams._factor_multisets, diagrams._sum_by_multiset, diagrams._factor_id):
            memo.cache_clear()
        for d, cfg in supported:
            floor_count(d, cfg)
            floor_count_residual(d, cfg)
        assert len(_FACTOR_KEYS) == ids
        distinct = {m.factors() for d, cfg in supported for m in enumerate_merged_diagrams(d, cfg)}
        assert diagrams._intern.cache_info().currsize == len(distinct) == 618
        assert len(_FACTOR_KEYS) == ids

    def test_counts_do_not_depend_on_the_order_ids_are_given(self):
        """Ids are handed out in first-seen order, so two interpreters that
        count the 103 configurations at d = 4 with s <= 3 in opposite
        orders, under different hash seeds, give each configuration other
        ids; every count's ``to_json``, and the residual count's terms,
        must still match byte for byte."""
        src = Path(diagrams.__file__).resolve().parents[1]
        outputs = []
        for order, seed in (("sorted", "0"), ("reversed", "12345")):
            proc = subprocess.run(
                [sys.executable, "-c", _ORDER_PROBE, order],
                capture_output=True,
                text=True,
                timeout=120,
                env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert len(outputs[0].splitlines()) == 103
        assert outputs[0] == outputs[1]

    @staticmethod
    def _drop_r_row(monkeypatch):
        """Drop one row from the ("R",) mask of pair 6 at d = 3, so that a
        leaf's row count is not a whole number of orbits.  That mask holds
        no floor pair, so its rows are counted by weight."""
        classes, weights = _class_table(3)
        column = 6 - 1

        def drop(mask):
            assert mask
            return mask ^ (mask & -mask)

        classes = list(classes)
        classes[column] = tuple(
            (cls, drop(mask) if cls == ("R",) else mask) for cls, mask in classes[column]
        )
        corrupt = (tuple(classes), weights)
        monkeypatch.setattr(diagrams, "_class_table", lambda d: corrupt)
        _clear_caches()

    def test_orbit_weights_must_divide(self, monkeypatch):
        """A leaf whose row count is not a whole number of orbits raises
        and names the configuration."""
        self._drop_r_row(monkeypatch)
        try:
            with pytest.raises(RuntimeError, match=r"configuration \(6,\): .*\('R',\)"):
                floor_count(3, (6,))
        finally:
            monkeypatch.undo()
            _clear_caches()
        assert floor_count(3, (6,)).rank == 12

    @pytest.mark.parametrize("suite", ["counts", "dissolution", "wallcross", "residual", "all", "sweep"])
    def test_faulting_count_fails_every_suite_that_holds_it(self, monkeypatch, suite):
        """A count that faults is a failing row naming its configuration in
        every suite that counts degree 3, never a raise while the suite
        builds its check list: the wallcross list counts nothing, and the
        residual list then runs a check for every unit shift."""
        self._drop_r_row(monkeypatch)
        try:
            result = checks.run_suite(suite, 3)
        finally:
            monkeypatch.undo()
            _clear_caches()
        assert not result.passed
        failed = [c for c in result.checks if not c.passed]
        assert any("configuration (6,): " in c.detail for c in failed)
        counting = ("rank-", "signature-", "dissolution:", "wallcross:", "residual-")
        assert all(c.check_id.startswith(counting) for c in failed)

    def test_counts_survive_cold_caches_in_any_order(self):
        configs = [
            cfg for s in range(4) for cfg in enumerate_merge_configs(11, s)
        ]
        forward = [(floor_count(4, c), floor_count_residual(4, c)) for c in configs]
        _clear_caches()
        backward = [
            (floor_count(4, c), floor_count_residual(4, c)) for c in reversed(configs)
        ]
        assert backward[::-1] == forward

    def test_unsupported_shape_raises_with_cold_memo(self):
        """A memoised table never hides the raise: the join
        classification runs on every call, cold or warm."""
        _clear_caches()
        self._assert_unsupported_raise()
        self._assert_unsupported_raise()
        floor_count(4, (1, 3, 5, 8))
        floor_count_residual(4, (1, 3, 5, 8))
        self._assert_unsupported_raise()

    @staticmethod
    def _assert_unsupported_raise():
        for cfg in [(1, 3, 5, 7), (1, 3, 5, 7, 9), (1, 3, 5, 7, 10)]:
            for count in (floor_count, floor_count_residual):
                with pytest.raises(UnsupportedShapeError, match="unsupported twin"):
                    count(4, cfg)


def _clear_caches():
    """Empty every cache behind the counts and the reports: every memoised
    function of ``diagrams``, ``local_factors`` and ``wallcross``, found by
    its ``cache_clear``."""
    for module in (diagrams, local_factors, wallcross):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


class TestClassTable:
    def test_cells_match_classify_pair(self):
        """Each row is in the mask of the class classify_pair gives its
        pair, or in none; the class is ("R", "floors") exactly when the
        pair fuses two floors."""
        for d in range(1, 5):
            classes, _weights = _class_table(d)
            assert len(classes) == 3 * d - 2
            for k, (_diagram, marking) in enumerate(enumerate_diagrams(d)):
                for p in range(1, 3 * d - 1):
                    o1, o2 = marking[p - 1], marking[p]
                    cls = classify_pair(o1, o2)
                    holding = [c for c, mask in classes[p - 1] if mask >> k & 1]
                    assert holding == ([] if cls is None else [cls]), (d, k, p)
                    floors = o1[0] == o2[0] == "floor"
                    assert (cls == ("R", "floors")) == floors, (d, k, p)


# sha256 of the repr of each per-degree table: the marked diagrams as
# (elevators, marking), then _class_table(d), then _stabiliser_table(d).
TABLE_SHA256 = {
    1: (
        "c65f222928879f5cf7787058b1296a2f66b3f20aff3bffc6272387b5f11f4eba",
        "65b97549d1ca3b152313998543e116794a8d2d7d4ee764ed3e8a503d13e7b488",
        "abbfc3e4c033b034406a9e320712f963a0f191131bbb2d0ab561bc37e228256c",
    ),
    2: (
        "ffe2c5eca57e7ac97569437d21ea5388afe1d3196adc26bedbadc590192e6fe3",
        "e189ac6545e755b601f15860a557c6de58b0767e4bd5d5f03f4d0afc77c5bd38",
        "abbfc3e4c033b034406a9e320712f963a0f191131bbb2d0ab561bc37e228256c",
    ),
    3: (
        "7b4b232017aa42a65edf78bf7afbb737d722fbfbb0963f8a0ca4e8f994e98778",
        "16a951600c8afdfab5eeaa3c75bc1d305f403cfa61f0c4545176ed13a91a9f0c",
        "b08752fda5dd6c984e5e9bb212721febe7c547d885532a6e10a82bac5758c4b1",
    ),
    4: (
        "f64990b132419058f140ff4d37109ecd1c3d6d2b0f32945edb22bda5e819b764",
        "59c9814d5c1a7f43f101f25c9b0722425601fb10cfa2c14925a2f5a1ae907903",
        "b81f77b9a475d6157aea8db9b5351224f7abe9d2cfb77c2ed574681ffa7c9f54",
    ),
}


@pytest.mark.parametrize("d", sorted(TABLE_SHA256))
def test_tables_are_pinned(d):
    """Every row index feeds a mask, so the tables are gated byte for
    byte, order included, and not only through the counts they give."""
    tables = (
        [(diagram.elevators, marking) for diagram, marking in enumerate_diagrams(d)],
        _class_table(d),
        _stabiliser_table(d),
    )
    digests = tuple(hashlib.sha256(repr(table).encode()).hexdigest() for table in tables)
    assert digests == TABLE_SHA256[d]


@cache
def _orbits(d: int, cfg: tuple[int, ...]) -> list[list[tuple]]:
    """Every encoding of every classifiable marked diagram of the
    configuration: the diagram's own first, then one per non-empty set
    of its type-R pairs with their alternate-encoding operations applied."""
    out = []
    for _diagram, marking in enumerate_diagrams(d):
        classes = [classify_pair(marking[p - 1], marking[p]) for p in cfg]
        if None in classes:
            continue
        swappable = [(p, cls) for p, cls in zip(cfg, classes) if cls[0] == "R"]
        out.append(
            [
                _apply_swaps(marking, chosen)
                for size in range(len(swappable) + 1)
                for chosen in combinations(swappable, size)
            ]
        )
    return out


def _all_configs(max_degree: int):
    for d in range(1, max_degree + 1):
        n = 3 * d - 1
        for s in range(0, n // 2 + 1):
            for cfg in enumerate_merge_configs(n, s):
                yield d, cfg


class TestOrbitMinima:
    """enumerate_merged_diagrams keeps a marked diagram only when it is its
    orbit's minimum encoding, which is sound only if every alternate
    encoding of an enumerated marked diagram is enumerated too."""

    def test_enumeration_closed_under_pair_operations(self):
        for d, cfg in _all_configs(4):
            marked = {(dg.elevators, mk) for dg, mk in enumerate_diagrams(d)}
            for encodings in _orbits(d, cfg):
                for key in encodings[1:]:
                    assert key in marked, (d, cfg, encodings[0], key)

    def test_one_merged_diagram_per_orbit(self):
        for d, cfg in _all_configs(4):
            try:
                merged = enumerate_merged_diagrams(d, cfg)
            except ValueError:
                # the unsupported shapes of TestUnsupportedShapes
                continue
            kept = [(m.diagram.elevators, m.marking) for m in merged]
            minima = {min(encodings) for encodings in _orbits(d, cfg)}
            assert kept == sorted(minima), (d, cfg)

    def test_orbit_test_matches_full_search(self):
        """The orbit test agrees with comparing every alternate encoding."""
        for d, cfg in _all_configs(4):
            for index, (diagram, marking) in enumerate(enumerate_diagrams(d)):
                classes = [classify_pair(marking[p - 1], marking[p]) for p in cfg]
                if None in classes:
                    continue
                rpairs = tuple((p, cls) for p, cls in zip(cfg, classes) if cls[0] == "R")
                own = (diagram.elevators, marking)
                keys = {
                    chosen: _apply_swaps(marking, chosen)
                    for size in range(1, len(rpairs) + 1)
                    for chosen in combinations(rpairs, size)
                }
                if any(key < own for key in keys.values()):
                    expected = None
                else:
                    expected = {
                        tuple(p for p, _cls in chosen)
                        for chosen, key in keys.items()
                        if key == own
                    }
                got = _orbit_test(d, index, rpairs)
                assert (got if got is None else set(got)) == expected, (d, cfg, index)


def _full_stabiliser(diagram, marking, rpairs) -> tuple:
    """The position tuples of every non-empty set of the type-R pairs
    ``rpairs`` whose operations leave the encoding unchanged, found by
    applying all of them, in ``_orbit_test``'s order (by bit mask over
    ``rpairs``)."""
    own = (diagram.elevators, marking)
    out = []
    for mask in range(1, 1 << len(rpairs)):
        chosen = [pair for b, pair in enumerate(rpairs) if mask >> b & 1]
        if _apply_swaps(marking, chosen) == own:
            out.append(tuple(p for p, _cls in chosen))
    return tuple(out)


def _classified_rows(d: int, cfg: tuple[int, ...]):
    """Yield ``(index, diagram, marking, classes, rpairs)`` for every
    marked diagram whose fused pairs all have a class under cfg."""
    for index, (diagram, marking) in enumerate(enumerate_diagrams(d)):
        classes = tuple(classify_pair(marking[p - 1], marking[p]) for p in cfg)
        if None in classes:
            continue
        rpairs = tuple((p, cls) for p, cls in zip(cfg, classes) if cls[0] == "R")
        yield index, diagram, marking, classes, rpairs


class TestStabiliserWeights:
    """Orbit counting (Cauchy-Frobenius-Burnside): the operations of r
    type-R pairs form a group of order 2^r, so a marked diagram whose
    stabiliser has |Stab| elements counts |Stab| / 2^r, and the members of
    each orbit sum to one merged diagram."""

    def test_weights_count_the_merged_diagrams(self):
        """Every classifiable row weighs (1 + |full-search stabiliser|) /
        2^r, with the joins ``_joins`` reads off that stabiliser; summed by
        factor tuple, the weights are the merged diagrams' factor census on
        every supported configuration at d <= 4."""
        for d, cfg in _all_configs(4):
            if (d, cfg[:4]) == (4, (1, 3, 5, 7)):
                continue
            weights: Counter = Counter()
            for _index, diagram, marking, classes, rpairs in _classified_rows(d, cfg):
                stabiliser = _full_stabiliser(diagram, marking, rpairs)
                joins = _joins(d, marking, cfg, classes, stabiliser)
                factors = MergedDiagram(diagram, marking, cfg, classes, joins).factors()
                weights[factors] += Fraction(1 + len(stabiliser), 2 ** len(rpairs))
            expected = Counter(m.factors() for m in enumerate_merged_diagrams(d, cfg))
            assert weights == expected, (d, cfg)

    def test_table_matches_full_search(self):
        """The table's elements inside a configuration are each
        classifiable row's full-search stabiliser, in the same order, orbit
        minimum or not, for every configuration at d <= 4; its position
        masks select exactly the rows with a non-trivial one.  Each row's
        elements ascend by mask, as ``_orbit_test`` orders them, although
        no configuration at d <= 4 holds two elements of one row."""
        for d in range(1, 5):
            assert all(list(found) == sorted(found) for found in _stabiliser_table(d)[1].values())
        for d, cfg in _all_configs(4):
            by_mask, elements = _stabiliser_table(d)
            cfg_mask = sum(1 << p for p in cfg)
            stabilised = reduce(or_, (rows for mask, rows in by_mask if not mask & ~cfg_mask), 0)
            for index, diagram, marking, _classes, rpairs in _classified_rows(d, cfg):
                got = tuple(pos for mask, pos in elements.get(index, ()) if not mask & ~cfg_mask)
                assert got == _full_stabiliser(diagram, marking, rpairs), (d, cfg, index)
                assert bool(stabilised >> index & 1) == bool(got), (d, cfg, index)

    def test_element_order_at_degree_five(self, monkeypatch):
        """At d = 5 a configuration can hold two elements of one row, and
        their order decides which unsupported message ``_joins`` raises.
        On every row whose elements together form a valid configuration,
        the table's elements are the full-search stabiliser in order; 90
        of those rows hold two or more."""
        monkeypatch.setattr(diagrams, "MAX_DEGREE", 5)
        try:
            marked = enumerate_diagrams(5)
            rows = several = 0
            for index, found in _stabiliser_table(5)[1].items():
                cfg = tuple(sorted({p for _mask, positions in found for p in positions}))
                if not is_merge_config(cfg, 14):
                    continue
                diagram, marking = marked[index]
                classes = [classify_pair(marking[p - 1], marking[p]) for p in cfg]
                rpairs = tuple((p, cls) for p, cls in zip(cfg, classes) if cls[0] == "R")
                got = tuple(positions for _mask, positions in found)
                assert got == _full_stabiliser(diagram, marking, rpairs), index
                rows += 1
                several += len(found) > 1
            assert (rows, several) == (3980, 90)
        finally:
            monkeypatch.undo()
            _clear_caches()

    def test_dropped_element_must_divide(self, monkeypatch):
        """A stabiliser element missing from the table leaves a weight that
        is no whole number of orbits, and the count raises and names the
        configuration.  Under (5, 7) at d = 3, rows 0 and 2 form one orbit,
        each fixed by relabeling floors 2 and 3; row 0 loses its element."""
        by_mask, elements = _stabiliser_table(3)
        assert elements[0] == elements[2] == ((1 << 5 | 1 << 7, (5, 7)),)
        corrupt = (by_mask, {**elements, 0: ()})
        monkeypatch.setattr(diagrams, "_stabiliser_table", lambda d: corrupt)
        _clear_caches()
        try:
            with pytest.raises(RuntimeError, match=r"configuration \(5, 7\): .*\('R', 'floors'\)"):
                floor_count(3, (5, 7))
        finally:
            monkeypatch.undo()
            _clear_caches()
        assert floor_count(3, (5, 7)).rank == 12

    def test_counts_never_run_the_orbit_test(self, monkeypatch):
        """The counts weigh rows by their stabilisers and never run the
        orbit test: with it raising, count-d4's 103 configurations still
        count in both rings from cold caches, and so do the 14
        configurations with s <= 1 at d = 5."""

        def refuse(*args):
            raise AssertionError(f"orbit test run on {args}")

        monkeypatch.setattr(diagrams, "_orbit_test", refuse)
        monkeypatch.setattr(diagrams, "MAX_DEGREE", 5)
        _clear_caches()
        try:
            for d, top, size in ((4, 3, 103), (5, 1, 14)):
                configs = [cfg for s in range(top + 1) for cfg in enumerate_merge_configs(3 * d - 1, s)]
                assert len(configs) == size
                for cfg in configs:
                    floor_count(d, cfg)
                    floor_count_residual(d, cfg)
        finally:
            monkeypatch.undo()
            _clear_caches()


class TestJoins:
    """``_joins`` on hand-built markings, with the pair classes that
    ``classify_pair`` gives them; the elevators name their weights."""

    @staticmethod
    def marking(w: int) -> tuple:
        return (("end", 1, 1), ("elev", 1, 2, w), ("elev", 2, 3, 1), ("floor", 3), ("floor", 4))

    @staticmethod
    def joins(marking: tuple, cfg: tuple, stabiliser: tuple) -> tuple:
        classes = tuple(classify_pair(marking[p - 1], marking[p]) for p in cfg)
        return _joins(4, marking, cfg, classes, stabiliser)

    def test_elevator_pair_comes_first(self):
        """A stabiliser listing the floor pair first still joins the
        elevator pair (label 1) to the floor pair (label 2)."""
        assert self.joins(self.marking(1), (2, 4), ((4, 2),)) == ((1, 2),)

    def test_joined_elevators_must_have_weight_one(self):
        with pytest.raises(ValueError, match="joined twin elevators must have weight 1"):
            self.joins(self.marking(2), (2, 4), ((4, 2),))

    @pytest.mark.parametrize(
        "marking",
        [
            (("end", 1, 0), ("end", 2, 0), ("floor", 1), ("floor", 2)),
            (("floor", 1), ("floor", 2), ("floor", 3), ("floor", 4)),
        ],
        ids=["end-pair", "second-floor-pair"],
    )
    def test_floor_pair_joins_only_an_elevator_pair(self, marking):
        """A floor pair stabilised together with an end pair, or with a
        second floor pair, is not a joined twin."""
        message = r"unsupported twin interaction kinds at fused pairs \[1, 3\]$"
        with pytest.raises(UnsupportedShapeError, match=message):
            self.joins(marking, (1, 3), ((1, 3),))

    def test_stabiliser_elements_must_not_overlap(self):
        """Two stabiliser elements sharing a fused pair are one larger
        interaction, not two joined twins."""
        marking = (*self.marking(1), ("floor", 1), ("floor", 2))
        message = r"unsupported twin interaction between fused pairs \[4, 6\] \(degree 4\)$"
        with pytest.raises(UnsupportedShapeError, match=message):
            self.joins(marking, (2, 4, 6), ((2, 4), (4, 6)))


class TestMergedJson:
    def test_shape(self):
        merged = enumerate_merged_diagrams(3, (5, 7))
        twin_tags = []
        a_tags = 0
        for md in merged:
            doc = md.to_json()
            assert set(doc) == {"d", "elevators", "ends", "marking", "merges"}
            assert doc["d"] == 3
            assert len(doc["marking"]) == 8
            assert all(isinstance(o, str) for o in doc["marking"])
            for entry in doc["merges"]:
                assert set(entry) == {"pair", "position", "tag"}
                tag = entry["tag"]
                assert isinstance(tag, dict) and "type" in tag
                if tag["type"] == "twin":
                    twin_tags.append(tag)
                if tag["type"] == "A":
                    # the edge of the pair, never its floor
                    p = entry["position"]
                    pair = doc["marking"][p - 1 : p + 1]
                    assert tag["object"] in pair and not tag["object"].startswith("floor")
                    a_tags += 1
        assert twin_tags and a_tags
        for t in twin_tags:
            assert t["t"] == 2 and t["m_circ"] == 1
            assert t["partner"] in (1, 2)


class TestUnsupportedShapes:
    @pytest.mark.fragile
    def test_degree_four_dense_pairs_rejected(self):
        # four mutually fused pairs on a doubled floor; outside the
        # supported twin-tree interaction shapes
        with pytest.raises(ValueError, match="unsupported twin interaction"):
            floor_count(4, (1, 3, 5, 7))

    def test_rank_oracle_names_unsupported_configuration(self):
        # set aside and named, never counted among the configurations
        # at rank 620
        assert checks._check_rank_oracle(4, 4) == (
            True,
            "34 configurations at rank 620; 1 unsupported: (1, 3, 5, 7)",
        )


class TestDissolution:
    def _assignments(self, model, s):
        if s == 0:
            yield {}
            return
        values = (1, -1) if isinstance(model, RealField) else (0, 1)
        for bits in range(2**s):
            yield {
                j: values[(bits >> (j - 1)) & 1] for j in range(1, s + 1)
            }

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_field_level_identity(self, d):
        n = 3 * d - 1
        for s in (1, 2):
            if 2 * s > n:
                continue
            for cfg in enumerate_merge_configs(n, s):
                full = floor_count(d, cfg)
                for j in range(1, s + 1):
                    left = full.specialize_one(j)
                    right = floor_count(d, dissolved_config(cfg, j))
                    for model in (RealField(), *map(FiniteField, SWEEP_FQ_ORDERS)):
                        for assign in self._assignments(model, s - 1):
                            assert specialize_field(
                                left, model, assign
                            ) == specialize_field(right, model, assign)
                    assert (
                        specialize_field(left, ClosedField(), {
                            j2: 0 for j2 in range(1, s)
                        }).rank
                        == right.rank
                    )

    def test_perturbed_count_fails_and_names_its_key(self, monkeypatch):
        """The check compares in Q: a change that is zero there passes, any
        other fails and names the first monomial that differs."""
        count = floor_count(3, (7,))

        def perturbed(by):
            monkeypatch.setattr(
                checks, "floor_count", lambda d, cfg: count + by if cfg == (7,) else floor_count(d, cfg)
            )
            return checks._check_dissolution(3, (5, 7), 1)

        h, x1 = TildeElement.constant(UNIV_H, 1), TildeElement.variable(1, 1)
        assert perturbed(h * x1 - h + TildeElement.constant(2 * UNIV_ONE - 2 * UNIV_TWO, 1)) == (True, "")
        assert perturbed((UNIV_ONE - UNIV_TWO) * x1) == (False, "normal forms differ at x1")

    def test_degree_four(self):
        """Every dissolution at d = 4, which the verify suite leaves out:
        the 406 supported instances are equal in Q, and the only others
        are the 14 on the three unsupported configurations, which raise."""
        passed, raised = 0, []
        for s in range(1, 6):
            for cfg in enumerate_merge_configs(11, s):
                for j in range(1, s + 1):
                    try:
                        assert checks._check_dissolution(4, cfg, j) == (True, ""), (cfg, j)
                    except UnsupportedShapeError:
                        raised.append((cfg, j))
                        continue
                    passed += 1
        unsupported = [(1, 3, 5, 7), (1, 3, 5, 7, 9), (1, 3, 5, 7, 10)]
        assert passed == 406
        assert raised == [(cfg, j) for cfg in unsupported for j in range(1, len(cfg) + 1)]

    def test_dissolved_config_validation(self):
        assert dissolved_config((2, 5), 1) == (5,)
        assert dissolved_config((2, 5), 2) == (2,)
        with pytest.raises(ValueError):
            dissolved_config((2, 5), 3)
        with pytest.raises(ValueError, match=r"\(5, 2\) .*ascending and at least 2 apart"):
            dissolved_config((5, 2), 1)
        # position 0 is not a merge position
        with pytest.raises(ValueError, match=r"\(0, 2\) .*ascending and at least 2 apart"):
            dissolved_config((0, 2), 1)
