"""Wall-crossing differences, cascade extraction, and report objects."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwfloor import checks, wallcross
from gwfloor.diagrams import UnsupportedShapeError
from gwfloor.fields import ClosedField, FiniteField, RealField, specialize_field
from gwfloor.univ import (
    UNIV_H,
    UNIV_ONE,
    UNIV_TWO,
    TildeElement,
    UnivElement,
    cascade_reconstruct,
    gw_normal_form,
    pfister_element,
    top_coefficient,
)
from gwfloor.wallcross import (
    SWEEP_FQ_ORDERS,
    FieldCheck,
    TransferCheck,
    default_field_sweep,
    delta_count,
    extract_universal_coefficient,
    proof_cascade_order,
    residual_report,
    transfer_targets,
    unit_shift_pairs,
    wallcross_report,
)

tilde_elements = st.integers(1, 3).flatmap(
    lambda nvars: st.dictionaries(
        st.frozensets(st.integers(1, nvars), max_size=nvars),
        st.builds(
            UnivElement,
            st.integers(-4, 4),
            st.integers(-4, 4),
            st.integers(-4, 4),
        ),
        max_size=5,
    ).map(lambda cs: TildeElement(nvars, cs))
)


class TestPfister:
    def test_base(self):
        assert pfister_element(0) == TildeElement.constant(
            UNIV_ONE - UNIV_TWO, 0
        )

    def test_one_variable(self):
        assert pfister_element(1) == TildeElement(
            1,
            {
                frozenset(): UNIV_ONE - UNIV_TWO,
                frozenset({1}): UNIV_TWO - UNIV_ONE,
            },
        )

    def test_equals_the_product_of_its_factors(self):
        """The written-out element equals (<1> - <2>) times the s binomials
        (<1> - x_l), multiplied out one at a time."""
        for s in range(11):
            one = TildeElement.constant(UNIV_ONE, s)
            product = TildeElement.constant(UNIV_ONE - UNIV_TWO, s)
            for label in range(1, s + 1):
                product = product * (one - TildeElement.variable(label, s))
            assert pfister_element(s) == product, s

    def test_negative_count_raises(self):
        with pytest.raises(ValueError, match="nonnegative"):
            pfister_element(-1)

    def test_torsion_failure_names_model_and_assignment(self, monkeypatch):
        monkeypatch.setattr(checks, "pfister_element", lambda s: TildeElement.constant(UNIV_ONE, s))
        assert checks._check_pfister_torsion(5, 2) == (False, "nonzero at fq:5 sq/sq")
        assert checks._check_pfister_torsion(7, 0) == (False, "nonzero at fq:7")

    def test_rank_zero_and_doubling(self):
        for s in range(0, 4):
            e = pfister_element(s)
            assert e.rank == 0
            doubled = e + e
            for model, assign in default_field_sweep(s):
                if isinstance(model, (FiniteField, ClosedField)):
                    assert specialize_field(doubled, model, assign).is_zero()


class TestCascade:
    def test_order(self):
        assert proof_cascade_order(1) == [1]
        assert proof_cascade_order(3) == [3, 1, 2]
        assert proof_cascade_order(5) == [5, 1, 2, 3, 4]

    def test_pure_product(self):
        prod = TildeElement.constant(UNIV_TWO, 2)
        for label in (1, 2):
            step = TildeElement.variable(label, 2) - TildeElement.constant(
                UNIV_ONE, 2
            )
            prod = prod * step
        full, witnesses = extract_universal_coefficient(prod)
        assert full == UNIV_TWO
        assert all(w == TildeElement.zero(2) for w in witnesses)

    def test_affine_step(self):
        e = TildeElement(
            1, {frozenset(): -1 * UNIV_H, frozenset({1}): UNIV_H}
        )
        full, witnesses = extract_universal_coefficient(e)
        assert full == UNIV_H
        assert witnesses == (TildeElement.zero(1),)

    @given(tilde_elements)
    @settings(max_examples=80)
    def test_full_coefficient_order_independent(self, e):
        import itertools

        base, _ = extract_universal_coefficient(e)
        for order in itertools.permutations(range(1, e.nvars + 1)):
            full, _ = extract_universal_coefficient(e, list(order))
            assert full == base

    @given(tilde_elements)
    @settings(max_examples=80)
    def test_reconstruction(self, e):
        order = proof_cascade_order(e.nvars)
        full, witnesses = extract_universal_coefficient(e)
        assert cascade_reconstruct(
            list(witnesses), full, order, e.nvars
        ) == e


class TestSweep:
    def test_sizes(self):
        assert len(default_field_sweep(0)) == 1 + 4 + 1
        assert len(default_field_sweep(1)) == 2 + 8 + 1
        assert len(default_field_sweep(2)) == 4 + 16 + 1

    def test_describe(self):
        assert RealField().describe_assign({1: 1, 2: -1}) == "+-"
        assert FiniteField(5).describe_assign({1: 0, 2: 1}) == "sq/ns"
        assert ClosedField().describe_assign({1: 0}) == ""

    def test_sweep_orders_have_distinct_square_bits(self):
        bits = {(FiniteField(q).bit_minus_one, FiniteField(q).bit_two) for q in SWEEP_FQ_ORDERS}
        assert len(bits) == len(SWEEP_FQ_ORDERS) == 4

    def test_returned_sweep_is_fresh(self):
        sweep = default_field_sweep(1)
        snapshot = [(model, dict(assign)) for model, assign in sweep]
        sweep[0][1][1] = 99
        sweep[-1][1][2] = 0
        sweep.pop()
        assert default_field_sweep(1) == snapshot


class TestWallCrossReport:
    def test_unit_shift_passes(self):
        report = wallcross_report(3, (4,), (5,))
        assert report.passed
        assert report.n1 + report.n2 == 0
        assert report.n1 % 2 == 0
        assert report.rank_zero and report.broccoli and report.parity
        assert report.reconstruction and report.witnesses_zero
        assert all(fc.ok for fc in report.field_checks)

    def test_json_shape(self):
        doc = wallcross_report(2, (1,), (2,)).to_json()
        assert set(doc) == {
            "schema",
            "d",
            "s",
            "from",
            "to",
            "n1",
            "n2",
            "m",
            "checks",
            "passed",
        }
        assert doc["schema"] == "gwfloor/1"
        assert set(doc["checks"]) == {
            "rank_zero",
            "broccoli",
            "parity",
            "field_zero",
            "witnesses_zero",
            "reconstruction",
        }
        assert doc["passed"] is True

    def test_two_pair_shift(self):
        report = wallcross_report(3, (1, 3), (1, 4))
        assert report.s == 2
        assert report.passed

    def test_mismatched_configs_rejected(self):
        with pytest.raises(ValueError):
            delta_count(3, (4,), (1, 3))

    @pytest.mark.parametrize("cfg_from, cfg_to", [((1, 4), (1, 5)), ((1, 3, 5), (1, 3, 6))])
    def test_witness_vanishing_only_in_q_passes(self, cfg_from, cfg_to):
        """The cascade of the free delta has a witness S_2 that is nonzero
        over F_5; the delta is zero in Q, so every witness of its normal
        form vanishes.  Their h-content m is 0."""
        report = wallcross_report(4, cfg_from, cfg_to)
        assert report.passed and report.failed_checks() == []
        assert (report.n1, report.n2, report.m) == (0, 0, 0)
        assert gw_normal_form(report.delta).is_zero()
        _, free_witnesses = extract_universal_coefficient(report.delta)
        assert not FiniteField(5).evaluate(free_witnesses[1].coeffs, 0).is_zero()

    def test_m_is_the_h_content(self, monkeypatch):
        """m sums the delta's h-coefficients over every monomial: here the
        free top coefficient has h-coordinate 2 and m is 0."""
        report = wallcross_report(4, (1, 5), (1, 6))
        assert top_coefficient(report.delta).ch == 2
        assert report.m == 0
        h, x1 = TildeElement.constant(UNIV_H, 1), TildeElement.variable(1, 1)
        monkeypatch.setattr(wallcross, "delta_count", lambda d, cfg_from, cfg_to: 3 * h * x1 - h)
        assert wallcross_report(2, (1,), (2,)).m == 2

    def test_witness_zero_only_in_q_counts_as_zero(self, monkeypatch):
        """The normal form of (<2> - <1>)(x1 - 1) is (<2> - <1>)(x1 + 1),
        whose witness 2<2> - 2<1> is nonzero in the free ring but zero in
        Q; the odd n1 fails parity alone."""
        x1 = TildeElement.variable(1, 1)
        delta = (UNIV_TWO - UNIV_ONE) * (x1 - TildeElement.constant(UNIV_ONE, 1))
        monkeypatch.setattr(wallcross, "delta_count", lambda d, cfg_from, cfg_to: delta)
        report = wallcross_report(2, (1,), (2,))
        assert report.witnesses == (TildeElement.constant(2 * UNIV_TWO - 2 * UNIV_ONE, 1),)
        assert report.failed_checks() == ["parity"]
        assert (report.n1, report.n2) == (-1, 1)

    def test_witness_in_i_cubed_fails_and_is_named(self, monkeypatch):
        """(<1> - <2>)(x1 - 1)(x2 - 1) lies in I^3: it vanishes in every
        field image, but not in Q.  As a three-pair delta it is its own
        first witness, named by its first monomial."""
        one = TildeElement.constant(UNIV_ONE, 3)
        delta = TildeElement.constant(UNIV_ONE - UNIV_TWO, 3)
        for label in (1, 2):
            delta = delta * (TildeElement.variable(label, 3) - one)
        monkeypatch.setattr(wallcross, "delta_count", lambda d, cfg_from, cfg_to: delta)
        report = wallcross_report(4, (1, 3, 5), (1, 3, 6))
        assert report.failed_checks() == ["witnesses_zero S_1 1"]
        assert report.witnesses[0] == gw_normal_form(delta)
        assert all(c.ok for c in report.field_checks)
        assert all(
            FiniteField(q).evaluate(delta.coeffs, flips).is_zero()
            for q in SWEEP_FQ_ORDERS
            for flips in range(1 << 3)
        )

    def test_perturbed_witness_fails_reconstruction(self, monkeypatch):
        """The reconstruction rebuilds the element from the witnesses it is
        given: a witness off by <1> no longer rebuilds the normal form."""
        def perturbed(delta, order=None):
            full, witnesses = extract_universal_coefficient(delta, order)
            bump = TildeElement.constant(UNIV_ONE, delta.nvars)
            return full, (witnesses[0] + bump, *witnesses[1:])

        monkeypatch.setattr(wallcross, "extract_universal_coefficient", perturbed)
        report = wallcross_report(4, (1, 4), (1, 5))
        assert report.reconstruction is False
        assert "reconstruction" in report.failed_checks()


class TestCachedReportObjects:
    """The reports hand out field checks and transfers built once per
    level; they must equal the objects built afresh for each shift."""

    @staticmethod
    def fresh_field_checks(report):
        return tuple(
            FieldCheck(
                model.describe(),
                model.describe_assign(assign),
                specialize_field(report.delta, model, assign).is_zero(),
            )
            for model, assign in default_field_sweep(report.s)
        )

    @pytest.mark.parametrize("s", [2, 3])
    def test_match_fresh_construction(self, s):
        targets = transfer_targets(4, s - 1)[0]
        for pair in unit_shift_pairs(11, s):
            report, residual = wallcross_report(4, *pair), residual_report(4, *pair)
            assert residual.transfers == tuple(
                TransferCheck(target_from, target_to, residual.top.a, rhs)
                for target_from, target_to, rhs in targets
            )
            assert report.field_checks == self.fresh_field_checks(report)

    def test_failing_images_match_fresh_construction(self, monkeypatch):
        """<1> - x_s vanishes exactly where x_s is a square, so the cached
        checks must pass and fail as the fresh ones do, at s = 1 and at
        s = 6, where the label reads the top bit of the flip mask."""
        for s in (1, 6):
            delta = TildeElement.constant(UNIV_ONE, s) - TildeElement.variable(s, s)
            monkeypatch.setattr(wallcross, "delta_count", lambda d, cfg_from, cfg_to: delta)
            report = wallcross_report(2, tuple(range(1, s + 1)), tuple(range(2, s + 2)))
            assert {c.ok for c in report.field_checks} == {True, False}
            assert report.field_checks == self.fresh_field_checks(report)


class TestWallcrossLevelCheck:
    def test_failing_field_check_is_named(self, monkeypatch):
        def one_field_fails(d, cfg_from, cfg_to):
            report = wallcross_report(d, cfg_from, cfg_to)
            field_checks = tuple(
                c._replace(ok=False) if (c.model, c.assign) == ("fq:7", "ns") else c
                for c in report.field_checks
            )
            return report._replace(field_checks=field_checks)

        monkeypatch.setattr(checks, "wallcross_report", one_field_fails)
        assert checks._check_wallcross_level(2, 1) == (
            False,
            "3 of 3 unit shifts failed; first (1,) -> (2,): failed ['field_zero fq:7 ns']",
        )

    def test_unsupported_shift_is_named(self, monkeypatch):
        def unsupported_from_two(d, cfg_from, cfg_to):
            if cfg_from == (2,):
                raise UnsupportedShapeError("unsupported twin interaction")
            return wallcross_report(d, cfg_from, cfg_to)

        monkeypatch.setattr(checks, "wallcross_report", unsupported_from_two)
        assert checks._check_wallcross_level(2, 1) == (
            True,
            "2 unit shifts; 1 unsupported: (2,) -> (3,)",
        )

    def test_level_with_no_supported_shift_fails(self, monkeypatch):
        def unsupported(d, cfg_from, cfg_to):
            raise UnsupportedShapeError("unsupported twin interaction")

        monkeypatch.setattr(checks, "wallcross_report", unsupported)
        result = checks._run_check(("level", checks._check_wallcross_level, (2, 1)))
        assert not result.passed
        assert result.detail == (
            "3 unsupported: (1,) -> (2,), (2,) -> (3,), (3,) -> (4,)"
        )

    def test_unsupported_shift_has_no_residual_check(self):
        ids = [check_id for check_id, _, _ in checks.shift_level_specs(4, 4)]
        assert ids[0] == "wallcross:d=4:s=4" and len(ids) == 1 + 59
        assert "residual-transfer:d=4:1,3,5,7>1,3,5,8" not in ids

    def test_level_with_no_unit_shift_fails(self):
        # d = 3 has one configuration with s = 4 pairs and no free point
        result = checks._run_check(("level", checks._check_wallcross_level, (3, 4)))
        assert (result.passed, result.detail) == (False, "no unit shifts")

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_shift_levels_are_the_levels_with_a_unit_shift(self, d):
        n = 3 * d - 1
        with_shift = [s for s in range(n // 2 + 1) if unit_shift_pairs(n, s)]
        assert list(checks.shift_levels(d)) == with_shift

    def test_verdicts_drive_passed(self):
        report = wallcross_report(2, (1,), (2,))
        assert list(report.verdicts()) == [
            "rank_zero",
            "broccoli",
            "parity",
            "witnesses_zero",
            "reconstruction",
        ]
        assert not report._replace(first_witness="S_1 x1").passed


class TestResidualCheck:
    def test_no_supported_target_fails(self, monkeypatch):
        def no_supported_target(d, cfg_from, cfg_to):
            report = residual_report(d, cfg_from, cfg_to)
            pairs = tuple((t.target_from, t.target_to) for t in report.transfers)
            return report._replace(transfers=(), unsupported=pairs)

        monkeypatch.setattr(checks, "residual_report", no_supported_target)
        ok, detail = checks._check_residual(2, (1, 3), (1, 4))
        assert not ok
        assert detail == (
            "0 dissolved targets; 3 unsupported: (1,) -> (2,), (2,) -> (3,), (3,) -> (4,)"
        )


class TestTransferCheck:
    def test_predicates(self):
        both = TransferCheck((1,), (2,), 0, 0)
        assert both.congruent and both.both_zero
        agree = TransferCheck((1,), (2,), 1, 1)
        assert agree.congruent and not agree.both_zero
        off = TransferCheck((1,), (2,), 1, 0)
        assert not off.congruent and not off.both_zero

    def test_json(self):
        doc = TransferCheck((1,), (2,), 0, 0).to_json()
        assert doc == {
            "target_from": [1],
            "target_to": [2],
            "lhs": 0,
            "rhs": 0,
            "congruent": True,
            "both_zero": True,
        }


class TestResidualReport:
    def test_single_pair_base(self):
        report = residual_report(3, (4,), (5,))
        assert report.s == 1
        assert report.base_zero is True
        assert report.transfers == ()
        assert report.passed

    def test_two_pair_transfers(self):
        report = residual_report(3, (1, 3), (1, 4))
        assert report.base_zero is None
        assert len(report.transfers) == len(unit_shift_pairs(8, 1))
        assert all(t.both_zero for t in report.transfers)
        assert report.passed

    @pytest.mark.parametrize("d, s", [(3, 2), (3, 3), (3, 4), (4, 2)])
    def test_transfer_rhs_is_delta_parity(self, d, s):
        """Each transfer's right side is the <2>-parity of the top
        coefficient of its target's full delta."""
        for cfg_from, cfg_to in unit_shift_pairs(3 * d - 1, s):
            for t in residual_report(d, cfg_from, cfg_to).transfers:
                delta = delta_count(d, t.target_from, t.target_to)
                assert t.rhs == top_coefficient(delta).c2 % 2, t

    @pytest.mark.parametrize("d, s", [(3, 2), (3, 3), (4, 2)])
    def test_transfers_follow_target_order(self, d, s):
        targets = unit_shift_pairs(3 * d - 1, s - 1)
        for cfg_from, cfg_to in unit_shift_pairs(3 * d - 1, s):
            transfers = residual_report(d, cfg_from, cfg_to).transfers
            assert [(t.target_from, t.target_to) for t in transfers] == targets

    def test_unsupported_target_is_set_aside(self):
        # The source is supported; its target (1,3,5,7) -> (1,3,5,8) is not.
        bad = ((1, 3, 5, 7), (1, 3, 5, 8))
        shift = ((1, 3, 5, 8, 10), (1, 3, 6, 8, 10))
        for _ in range(2):
            report = residual_report(4, *shift)
            assert report.unsupported == (bad,)
            targets = [(t.target_from, t.target_to) for t in report.transfers]
            assert targets == [pair for pair in unit_shift_pairs(11, 4) if pair != bad]
            assert len(targets) == 59
            assert report.top.a == 0 and report.passed

    def test_json_shape(self):
        doc = residual_report(2, (1,), (2,)).to_json()
        assert doc["schema"] == "gwfloor/1"
        assert {"residual", "top", "transfers"} <= set(doc)
        assert set(doc["top"]) == {"one", "eps"}


class TestUnitShiftPairs:
    def test_ordering_and_determinism(self):
        pairs = unit_shift_pairs(8, 1)
        assert pairs == unit_shift_pairs(8, 1)
        assert pairs == sorted(pairs)
        for a, b in pairs:
            assert a < b

    def test_returned_list_is_fresh(self):
        pairs = unit_shift_pairs(8, 1)
        snapshot = list(pairs)
        pairs.reverse()
        pairs.append(((1,), (9,)))
        assert unit_shift_pairs(8, 1) == snapshot

    def test_membership(self):
        pairs = unit_shift_pairs(5, 2)
        assert ((1, 3), (1, 4)) in pairs
        assert ((1, 4), (2, 4)) in pairs
        assert all(len(a) == len(b) == 2 for a, b in pairs)
