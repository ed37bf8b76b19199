"""Local multiplicity factors: closed forms, twin trees, residual path."""

import itertools

import pytest

from gwfloor.group_ring import (
    HypUnivElement,
    carrier_for,
    elevator_square_closed_raw,
    gamma_hat_raw,
    m_a1_raw,
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
        carrier = carrier_for(m)
        assert gamma_hat_raw(m, carrier, None) == m_a1_raw(m, carrier)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 9, 12])
    def test_closed_square_forms(self, m):
        carrier = carrier_for(m)
        square = m_a1_raw(m, carrier) * m_a1_raw(m, carrier)
        assert square == elevator_square_closed_raw(m, carrier)
        assert square.to_univ() == elevator_square(m)

    @pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6, 9, 12])
    def test_formal_product_closed_form(self, m):
        carrier = carrier_for(m, ("d",))
        lhs = gamma_hat_raw(m, carrier, "d") * m_a1_raw(m, carrier)
        assert lhs == type_a_closed_raw(m, carrier, "d")

    @pytest.mark.parametrize("m", [1, 3, 5, 7])
    def test_formal_symbol_collapse_matches_trivial_pair(self, m):
        # Setting the formal symbol to the trivial square class must agree
        # with setting the pair variable to 1 in the diagram-level factor.
        carrier = carrier_for(m, ("d",))
        raw = type_a_closed_raw(m, carrier, "d")
        dbit = carrier.bit("d")
        folded: dict[int, int] = {}
        for mask, coeff in raw.coeffs.items():
            key = mask & ~dbit
            folded[key] = folded.get(key, 0) + coeff
        collapsed = HypUnivElement(
            carrier, raw.hcoeff, {k: v for k, v in folded.items() if v}
        )
        anchor = type_a_factor(m, 1, 1)
        expected = anchor.coefficient([]) + anchor.coefficient([1])
        assert collapsed.to_univ() == expected
