"""Floor diagrams, merge configurations, counts, and dissolution."""

from collections import Counter
from functools import cache, reduce
from itertools import combinations
from operator import mul

import pytest

from gwfloor import checks, diagrams
from gwfloor.diagrams import (
    FloorDiagram,
    UnsupportedShapeError,
    _apply_swaps,
    _class_table,
    _factor_keys,
    _factor_multisets,
    _multiset_product,
    _orbit_test,
    _tag_table,
    classify_pair,
    dissolve_specialize,
    dissolved_config,
    enumerate_diagrams,
    enumerate_markings,
    enumerate_merge_configs,
    enumerate_merged_diagrams,
    floor_count,
    floor_count_residual,
    graph_connected,
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
        assert ("floor", 1) in objs and ("elev", 0) in objs
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


class TestMergeConfigs:
    def test_counts(self):
        assert len(enumerate_merge_configs(8, 0)) == 1
        assert len(enumerate_merge_configs(8, 1)) == 7
        assert len(enumerate_merge_configs(8, 2)) == 15
        assert enumerate_merge_configs(5, 2) == [(1, 3), (1, 4), (2, 4)]

    def test_rejects_overfull(self):
        with pytest.raises(ValueError):
            enumerate_merge_configs(5, 3)

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

    def test_table_covers_every_pair_count(self):
        for d, values in checks.WELSCHINGER.items():
            assert len(values) == (3 * d - 1) // 2 + 1, d

    def test_wrong_value_names_expected_and_measured(self, monkeypatch):
        monkeypatch.setitem(checks.WELSCHINGER, 3, (8, 6, 5, 2, 0))
        assert checks._check_signature_invariance(3, 2) == (
            False,
            "expected Welschinger invariant 5, got signature 4",
        )


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
        """The key tuples counted by orbit weights are the factor tuples of
        the merged diagrams (the orbit minima), with the same
        multiplicities, on every supported configuration at d <= 4."""
        supported = joined = 0
        for d, cfg in _all_configs(4):
            if (d, cfg[:4]) == (4, (1, 3, 5, 7)):
                continue
            merged = enumerate_merged_diagrams(d, cfg)
            by_keys = _factor_multisets(d, cfg)
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

    def test_counts_match_orbit_minima_everywhere(self):
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

    def test_orbit_weights_must_divide(self, monkeypatch):
        """A leaf whose row count is not a whole number of orbits raises
        and names the configuration: drop one row from an R-class mask."""
        classes, *rest = _class_table(3)
        column = 6 - 1
        classes = list(classes)
        classes[column] = tuple(
            (cls, mask & (mask - 1) if cls == ("R",) else mask)
            for cls, mask in classes[column]
        )
        corrupt = (tuple(classes), *rest)
        monkeypatch.setattr(diagrams, "_class_table", lambda d: corrupt)
        _clear_caches()
        try:
            with pytest.raises(RuntimeError, match=r"configuration \(6,\): .*\('R',\)"):
                floor_count(3, (6,))
        finally:
            monkeypatch.undo()
            _clear_caches()
        assert floor_count(3, (6,)).rank == 12

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
        """A memoised orbit test never hides the raise: the join
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
    """Empty every cache behind the counts: the tag and class tables, the
    orbit memo, the factor-key table, the two factor tables, the multiset
    counts and products, and the memoised results."""
    for fn in (
        _tag_table,
        _class_table,
        _orbit_test,
        _factor_keys,
        factor_value,
        residual_factor,
        _factor_multisets,
        _multiset_product,
        enumerate_merged_diagrams,
        floor_count,
        floor_count_residual,
    ):
        fn.cache_clear()


class TestTagTable:
    def test_matches_classify_pair(self):
        for d in range(1, 5):
            table = _tag_table(d)
            marked = enumerate_diagrams(d)
            assert len(table) == 3 * d - 2
            assert all(len(column) == len(marked) for column in table)
            for k, (diagram, marking) in enumerate(marked):
                for p in range(1, 3 * d - 1):
                    assert table[p - 1][k] == classify_pair(diagram, marking, p), (d, k, p)


@cache
def _orbits(d: int, cfg: tuple[int, ...]) -> list[list[tuple]]:
    """Every encoding of every classifiable marked diagram of the
    configuration: the diagram's own first, then one per non-empty set
    of its type-R pairs with their alternate-encoding operations applied."""
    out = []
    for diagram, marking in enumerate_diagrams(d):
        tags = [classify_pair(diagram, marking, p) for p in cfg]
        if None in tags:
            continue
        swappable = [i for i, tag in enumerate(tags) if tag[0] == "R"]
        out.append(
            [
                _apply_swaps(diagram.elevators, marking, cfg, chosen)
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
        """The orbit test's shortcuts (a descending non-floor pair; only
        sets with a floor relabeling searched) agree with comparing every
        alternate encoding."""
        for d, cfg in _all_configs(4):
            for index, (diagram, marking) in enumerate(enumerate_diagrams(d)):
                tags = [classify_pair(diagram, marking, p) for p in cfg]
                if None in tags:
                    continue
                rpos = tuple(p for p, tag in zip(cfg, tags) if tag[0] == "R")
                own = (diagram.elevators, marking)
                keys = {
                    chosen: _apply_swaps(diagram.elevators, marking, rpos, chosen)
                    for size in range(1, len(rpos) + 1)
                    for chosen in combinations(range(len(rpos)), size)
                }
                if any(key < own for key in keys.values()):
                    expected = None
                else:
                    expected = {
                        tuple(rpos[b] for b in chosen)
                        for chosen, key in keys.items()
                        if key == own
                    }
                got = _orbit_test(d, index, rpos)
                assert (got if got is None else set(got)) == expected, (d, cfg, index)


class TestMergedJson:
    def test_shape(self):
        merged = enumerate_merged_diagrams(3, (5, 7))
        twin_tags = []
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
        assert twin_tags
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
                    left = dissolve_specialize(full, j)
                    right = floor_count(d, dissolved_config(cfg, j))
                    for model in (RealField(), FiniteField(5), FiniteField(7)):
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

    def test_dissolved_config_validation(self):
        assert dissolved_config((2, 5), 1) == (5,)
        assert dissolved_config((2, 5), 2) == (2,)
        with pytest.raises(ValueError):
            dissolved_config((2, 5), 3)
