"""Local multiplicity factors: closed forms, twin trees, residual path."""

import itertools

import pytest

from gwfloor import checks, local_factors
from gwfloor.group_ring import (
    GroupRingElement,
    carrier_for,
    hyperbolic_reduce,
    to_univ,
    type_a_closed_raw,
)
from gwfloor.local_factors import (
    TwinTreeDescriptor,
    elevator_square,
    factor_value,
    residual_factor,
    twin_edge_factor,
    twin_tree_factor,
    type_a_factor,
    type_r_factor,
)
from gwfloor.univ import (
    UNIV_H,
    UNIV_MINUS_ONE,
    UNIV_MINUS_TWO,
    UNIV_ONE,
    UNIV_TWO,
    TildeElement,
    UnivElement,
    residual_reduce,
)


class TestElevatorSquare:
    def test_odd(self):
        assert elevator_square(1) == UNIV_ONE
        assert elevator_square(3) == UNIV_ONE + 4 * UNIV_H
        assert elevator_square(5) == UNIV_ONE + 12 * UNIV_H

    def test_even(self):
        assert elevator_square(2) == 2 * UNIV_H
        assert elevator_square(4) == 8 * UNIV_H

    def test_rank_is_weight_squared(self):
        for m in range(1, 20):
            assert elevator_square(m).rank == m * m

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            elevator_square(0)


class TestTypeA:
    def test_odd_shape(self):
        f = type_a_factor(5, 2, 3)
        assert f.coefficient([]) == UNIV_ONE + 2 * UNIV_TWO + 10 * UNIV_H
        assert f.coefficient([2]) == 2 * UNIV_MINUS_TWO
        assert f.coefficient([1]) == UnivElement(0, 0, 0)

    def test_even_is_constant(self):
        f = type_a_factor(4, 1, 1)
        assert f == TildeElement.constant(8 * UNIV_H, 1)

    def test_rank_is_weight_squared(self):
        for m in range(1, 16):
            assert type_a_factor(m, 1, 1).rank == m * m

    def test_anchor_m3(self):
        # weight-3 factor: <1> + <2> + <-2 d> + 3h with d the pair variable.
        f = type_a_factor(3, 1, 1)
        assert f == TildeElement(
            1,
            {
                frozenset(): UNIV_ONE + UNIV_TWO + 3 * UNIV_H,
                frozenset({1}): UNIV_MINUS_TWO,
            },
        )

    def test_identity_check_reads_the_factor_the_counts_multiply(self, monkeypatch):
        """Adding 2<1> - h to the constant for m >= 9 keeps the rank and
        every count at d <= 4 (weights <= 4), but the identity check of
        the raw group-ring product catches it."""
        assert all(checks._check_type_a_product(m) == (True, "") for m in range(1, 13))

        def mutated(m, label, nvars):
            f = type_a_factor(m, label, nvars)
            if m >= 9:
                f = f + TildeElement.constant(2 * UNIV_ONE - UNIV_H, nvars)
            return f

        monkeypatch.setattr(local_factors, "type_a_factor", mutated)
        assert checks._check_type_a_product(8) == (True, "")
        ok, detail = checks._check_type_a_product(9)
        assert not ok
        assert detail.startswith("type_a_factor (3<1> + 35h + 4<2>) + (4h - 4<2>)x1 differs")

    def test_square_checks_read_the_elevator_square(self, monkeypatch):
        """Adding 2<1> - 2<2> for m >= 9 moves no rank, signature or
        discriminant, so no field image sees it; both identity checks that
        read ``elevator_square`` against the raw group ring catch it."""

        def mutated(m):
            e = elevator_square(m)
            return e + 2 * UNIV_ONE - 2 * UNIV_TWO if m >= 9 else e

        monkeypatch.setattr(local_factors, "elevator_square", mutated)
        for check, raw in (
            (checks._check_elevator_square, "raw square"),
            (checks._check_universal_square_product, "raw product"),
        ):
            assert check(8) == (True, "")
            assert check(9) == (
                False,
                f"{raw} <1> + 40h differs from elevator_square 3<1> + 40h - 2<2>",
            )


class TestTypeR:
    def test_shape_and_rank(self):
        f = type_r_factor(3, 4)
        assert f.coefficient([]) == UNIV_TWO
        assert f.coefficient([3]) == UNIV_TWO
        assert f.rank == 2

    def test_square(self):
        f = type_r_factor(1, 1)
        assert f * f == TildeElement(
            1, {frozenset(): 2 * UNIV_ONE, frozenset({1}): 2 * UNIV_ONE}
        )


class TestTwinEdge:
    def test_rank_is_weight_fourth(self):
        for m in range(1, 10):
            assert twin_edge_factor(m, 1, 1).rank == m**4

    def test_weight_one(self):
        f = twin_edge_factor(1, 1, 1)
        assert f == TildeElement.constant(UNIV_ONE, 1)

    def test_weight_two(self):
        f = twin_edge_factor(2, 1, 1)
        assert f == TildeElement(
            1,
            {
                frozenset(): 2 * UNIV_ONE + 6 * UNIV_H,
                frozenset({1}): 2 * UNIV_MINUS_ONE,
            },
        )


class TestTwinTreeDescriptor:
    def test_validation(self):
        with pytest.raises(ValueError):
            TwinTreeDescriptor(t=0, m_circ=1, labels=())
        with pytest.raises(ValueError):
            TwinTreeDescriptor(t=2, m_circ=1, labels=(1,))
        with pytest.raises(ValueError):
            TwinTreeDescriptor(t=2, m_circ=1, labels=(1, 1))
        with pytest.raises(ValueError):
            TwinTreeDescriptor(t=1, m_circ=1, labels=(1,), bounded_edges=((0, 1),))
        with pytest.raises(ValueError):
            TwinTreeDescriptor(t=2, m_circ=1, labels=(1, 2), bounded_edges=((1, 3),))
        with pytest.raises(ValueError):
            TwinTreeDescriptor(
                t=1, m_circ=1, labels=(1,), bounded_edges=((1, 1),)
            )


class TestTwinTree:
    def test_single_point_even_circuit(self):
        for m_circ in (0, 2):
            desc = TwinTreeDescriptor(t=1, m_circ=m_circ, labels=(1,))
            assert twin_tree_factor(desc, 1) == TildeElement.constant(UNIV_ONE, 1)

    def test_two_points_odd_circuit(self):
        desc = TwinTreeDescriptor(t=2, m_circ=1, labels=(1, 2))
        assert twin_tree_factor(desc, 2) == TildeElement(
            2, {frozenset({1}): UNIV_TWO, frozenset({2}): UNIV_TWO}
        )

    def test_seven_points_with_bounded_edge(self):
        desc = TwinTreeDescriptor(
            t=7, m_circ=3, labels=tuple(range(1, 8)), bounded_edges=((2, 1),)
        )
        edge = TildeElement(
            7,
            {
                frozenset(): 2 * UNIV_ONE + 6 * UNIV_H,
                frozenset({1}): 2 * UNIV_MINUS_ONE,
            },
        )
        parity_sum = TildeElement(
            7,
            {
                frozenset(subset): UNIV_ONE
                for size in (1, 3, 5, 7)
                for subset in itertools.combinations(range(1, 8), size)
            },
        )
        assert twin_tree_factor(desc, 7) == edge * parity_sum

    def test_failing_anchor_names_both_sides(self, monkeypatch):
        monkeypatch.setattr(local_factors, "twin_tree_factor", lambda desc, n: TildeElement.constant(UNIV_ONE, n))
        ok, detail = checks._check_anchor_twin_t3()
        assert not ok
        assert detail.startswith("value (<1>) differs from edge * parity_sum (-2<1> + 2h) + (2<1> + 6h)x1 + ")

    def test_crossing_product(self):
        # A two-point twin tree meeting a transversal crossing: every
        # surviving monomial carries a plain <1>.
        twin = twin_tree_factor(TwinTreeDescriptor(t=2, m_circ=1, labels=(1, 2)), 4)
        product = twin * type_r_factor(4, 4)
        expected = TildeElement(
            4,
            {
                frozenset(labels): UNIV_ONE
                for labels in [{1}, {2}, {1, 4}, {2, 4}]
            },
        )
        assert product == expected


class TestFactorKeys:
    def test_factor_value_matches_functions(self):
        assert factor_value(("square", 3), 2) == TildeElement.constant(
            elevator_square(3), 2
        )
        assert factor_value(("A", 5, 1), 2) == type_a_factor(5, 1, 2)
        assert factor_value(("R", 2), 2) == type_r_factor(2, 2)
        desc = TwinTreeDescriptor(t=2, m_circ=0, labels=(1, 2), bounded_edges=((3, 2),))
        assert factor_value(("tree", 2, 0, (1, 2), ((3, 2),)), 2) == twin_tree_factor(desc, 2)
        # a tree with one bounded edge carries that edge's factor
        assert twin_tree_factor(desc, 2) == twin_edge_factor(3, 2, 2) * twin_tree_factor(
            TwinTreeDescriptor(t=2, m_circ=0, labels=(1, 2)), 2
        )

    def test_tree_keys_are_validated(self):
        with pytest.raises(ValueError, match="fewer bounded edges"):
            factor_value(("tree", 1, 0, (1,), ((1, 1),)), 1)
        with pytest.raises(ValueError, match="fewer bounded edges"):
            residual_factor(("tree", 1, 0, (1,), ((1, 1),)), 1)

    @pytest.mark.parametrize("table", [factor_value, residual_factor])
    def test_unknown_kind_raises(self, table):
        for key in [("edge", 2, 1), ("unit",), ("Square", 3)]:
            with pytest.raises(TypeError, match="unknown factor"):
                table(key, 2)


class TestResidualPath:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8, 13])
    def test_factor_kinds_agree_with_reduction(self, m):
        keys = [
            ("square", m),
            ("A", m, 1),
            ("R", 1),
            ("tree", 2, 0, (1, 2), ((m, 1),)),  # one bounded twin edge of weight m
        ]
        for key in keys:
            assert residual_factor(key, 2) == residual_reduce(factor_value(key, 2))

    def test_twin_trees_agree_with_reduction(self):
        keys = [
            ("tree", 1, 0, (1,), ()),
            ("tree", 2, 1, (1, 2), ()),
            ("tree", 2, 0, (1, 2), ((2, 1),)),
            ("tree", 3, 1, (1, 2, 3), ()),
        ]
        for key in keys:
            assert residual_factor(key, 3) == residual_reduce(factor_value(key, 3))

    def test_mod_2_table_never_reads_the_exact_one(self):
        names = residual_factor.__wrapped__.__code__.co_names
        assert "factor_value" not in names
        assert "residual_reduce" not in names


class TestCarrierRawForms:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 9, 12])
    def test_square_equals_product_with_norm(self, m):
        assert checks._check_square_field(m) == (True, "")

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 9, 12])
    def test_closed_square_forms(self, m):
        assert checks._check_elevator_square(m) == (True, "")

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 9, 12])
    def test_formal_product_closed_form(self, m):
        assert checks._check_type_a_product(m) == (True, "")

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_formal_symbol_collapse_matches_trivial_pair(self, m):
        # Setting the formal symbol to the trivial square class must agree
        # with setting the pair variable to 1 in the diagram-level factor.
        carrier = carrier_for(m, ("d",))
        raw = type_a_closed_raw(m, carrier, "d")
        dbit = carrier.bit("d")
        collapsed = GroupRingElement(carrier)
        for mask, coeff in raw.coeffs.items():
            collapsed += GroupRingElement.symbol(carrier, mask & ~dbit, coeff)
        anchor = type_a_factor(m, 1, 1)
        expected = anchor.coefficient([]) + anchor.coefficient([1])
        assert to_univ(hyperbolic_reduce(collapsed)) == expected

    def test_failing_detail_names_both_sides(self, monkeypatch):
        monkeypatch.setattr(checks, "gamma_hat_raw", lambda m, c, d: GroupRingElement.of_int(c, m, m))
        assert checks._check_square_field(5) == (
            False,
            "gamma_hat 5*<5> differs from m_a1 2*<1> + 2*<-1> + 1*<5>",
        )
