"""Ring laws for the universal coefficients and their extensions."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwfloor.univ import (
    RES_EPS,
    RES_ONE,
    RES_ZERO,
    UNIV_H,
    UNIV_MINUS_ONE,
    UNIV_MINUS_TWO,
    UNIV_ONE,
    UNIV_TWO,
    UNIV_ZERO,
    ResidualElement,
    ResidualTilde,
    TildeElement,
    UnivElement,
    cascade_decompose,
    cascade_reconstruct,
    first_term_name,
    gw_normal_form,
    pfister_element,
    residual_reduce,
    top_coefficient,
)
from gwfloor.wallcross import _sweep

univ_elements = st.builds(
    UnivElement,
    st.integers(-9, 9),
    st.integers(-9, 9),
    st.integers(-9, 9),
)


def label_dicts(nvars: int, coeff_range: int = 5):
    """Label-set-keyed coefficient maps, the constructor's input format."""
    labels = st.frozensets(st.integers(1, nvars), max_size=nvars) if nvars else st.just(frozenset())
    coeff = st.builds(
        UnivElement,
        st.integers(-coeff_range, coeff_range),
        st.integers(-coeff_range, coeff_range),
        st.integers(-coeff_range, coeff_range),
    )
    return st.dictionaries(labels, coeff, max_size=6)


def tilde_elements(nvars: int, coeff_range: int = 5):
    return label_dicts(nvars, coeff_range).map(lambda d: TildeElement(nvars, d))


# A frozenset-keyed reference for the bitmask container: plain dicts from
# label sets to coefficients, zero coefficients dropped.


def ref_clean(d):
    return {k: v for k, v in d.items() if not v.is_zero()}


def ref_add(a, b, zero):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, zero) + v
    return ref_clean(out)


def ref_mul(a, b, zero):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            out[ka ^ kb] = out.get(ka ^ kb, zero) + va * vb
    return ref_clean(out)


def ref_cascade(a, order):
    witnesses, current = [], a
    for label in order:
        a_part = {k: v for k, v in current.items() if label not in k}
        b_part = {k - {label}: v for k, v in current.items() if label in k}
        witnesses.append(ref_add(a_part, b_part, UNIV_ZERO))
        current = b_part
    return witnesses, current.get(frozenset(), UNIV_ZERO)


def ref_reduce(a):
    return ref_clean({k: ResidualElement(v.c1, v.c2) for k, v in a.items()})


def as_label_dict(e):
    return {frozenset(labels): v for labels, v in e.terms()}


class TestUnivElement:
    def test_symbol_constants(self):
        assert UNIV_MINUS_ONE == UNIV_H - UNIV_ONE
        assert UNIV_MINUS_TWO == UNIV_H - UNIV_TWO
        assert UNIV_ONE + UNIV_MINUS_ONE == UNIV_H

    def test_h_absorbs_symbols(self):
        for symbol in (UNIV_ONE, UNIV_TWO, UNIV_MINUS_ONE, UNIV_MINUS_TWO):
            assert UNIV_H * symbol == UNIV_H
        assert UNIV_H * UNIV_H == 2 * UNIV_H

    def test_two_times_two_is_one(self):
        assert UNIV_TWO * UNIV_TWO == UNIV_ONE
        assert UNIV_MINUS_TWO * UNIV_MINUS_TWO == UNIV_ONE
        assert UNIV_MINUS_ONE * UNIV_MINUS_ONE == UNIV_ONE

    def test_rank(self):
        assert UNIV_ONE.rank == 1
        assert UNIV_H.rank == 2
        assert UnivElement(3, 2, 1).rank == 8

    def test_coords_roundtrip(self):
        e = UnivElement(4, -1, 7)
        n1, n2, m = e.c1, e.c2, e.ch
        assert (n1, n2, m) == (4, 7, -1)
        assert n1 * UNIV_ONE + n2 * UNIV_TWO + m * UNIV_H == e

    @given(univ_elements, univ_elements, univ_elements)
    def test_ring_axioms(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(univ_elements, univ_elements)
    def test_rank_multiplicative(self, a, b):
        assert (a * b).rank == a.rank * b.rank


class TestTildeElement:
    def test_variable_involution(self):
        x = TildeElement.variable(1, 2)
        one = TildeElement.constant(UNIV_ONE, 2)
        assert x * x == one

    def test_cancelling_product_has_no_coefficients(self):
        # (1 - x1)(1 + x1) = 1 - x1^2 = 0: the first product at each key
        # is stored as it is, and the sum that cancels it is dropped
        x = TildeElement.variable(1, 1)
        one = TildeElement.constant(UNIV_ONE, 1)
        product = (one - x) * (one + x)
        assert product.coeffs == {}
        assert product == TildeElement.zero(1)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            TildeElement.variable(3, 2)
        with pytest.raises(ValueError):
            TildeElement(1, {frozenset({2}): UNIV_ONE})
        with pytest.raises(ValueError):
            TildeElement(2, {frozenset({0}): UNIV_ONE})
        with pytest.raises(ValueError):
            ResidualTilde(2, {frozenset({1, 3}): RES_ONE})

    @pytest.mark.parametrize("ring", [TildeElement, ResidualTilde])
    @pytest.mark.parametrize("count", [1.5, 2.0, True, "2"])
    def test_count_that_is_not_an_int_is_rejected(self, ring, count):
        """Every constructor names a variable count that is not an int (a
        bool is not one), where a float count built an element whose
        ``top_coefficient`` raised TypeError."""
        builds = (
            lambda: ring(count, {frozenset({1}): 1}),
            lambda: ring(count),
            lambda: ring.constant(1, count),
            lambda: ring.variable(1, count),
            lambda: ring.zero(count),
        )
        for build in builds:
            with pytest.raises(ValueError, match=re.escape(f"variable count must be a nonnegative int, got {count!r}")):
                build()

    @pytest.mark.parametrize("ring", [TildeElement, ResidualTilde])
    @pytest.mark.parametrize("label", [1.0, 1.5, True])
    def test_label_that_is_not_an_int_is_rejected(self, ring, label):
        """Every entry point names a variable label that is not an int (a
        bool is not one), where a float raised TypeError from ``<<`` and
        ``True`` built x1."""
        e = ring.variable(1, 2)
        uses = (
            lambda: ring.variable(label, 2),
            lambda: ring(2, {frozenset({label}): 1}),
            lambda: e.coefficient([label]),
            lambda: e.specialize_one(label),
        )
        for use in uses:
            with pytest.raises(ValueError, match=re.escape(f"variable label must be an int in 1..2, got {label!r}")):
                use()

    @pytest.mark.parametrize("label", [1.0, True])
    def test_cascade_order_label_that_is_not_an_int_is_rejected(self, label):
        e = TildeElement.variable(1, 1)
        message = re.escape(f"variable label must be an int in 1..1, got {label!r}")
        with pytest.raises(ValueError, match=message):
            cascade_decompose(e, [label])
        witnesses, full = cascade_decompose(e, [1])
        with pytest.raises(ValueError, match=message):
            cascade_reconstruct(witnesses, full, [label], 1)

    @pytest.mark.parametrize("count", [2.0, True, -1])
    def test_pfister_count_must_be_a_nonnegative_int(self, count):
        with pytest.raises(ValueError, match=re.escape(f"variable count must be a nonnegative int, got {count!r}")):
            pfister_element(count)

    def test_coefficient_lookup(self):
        e = TildeElement(2, {frozenset({1}): UNIV_TWO})
        assert e.coefficient([1]) == UNIV_TWO
        assert e.coefficient([2]) == UNIV_ZERO
        assert e.coefficient([1, 2]) == UNIV_ZERO

    def test_specialize_one_sums_and_renumbers(self):
        # x1 x2 + x1 at x1 = 1 is x2 + 1, and x2 becomes x1
        x1 = TildeElement.variable(1, 2)
        x2 = TildeElement.variable(2, 2)
        collapsed = (x1 * x2 + x1).specialize_one(1)
        assert collapsed.nvars == 1
        assert collapsed == TildeElement.variable(1, 1) + TildeElement.constant(UNIV_ONE, 1)

    def test_specialize_one_validates_its_label(self):
        e = TildeElement.variable(1, 2)
        for label in (0, 3):
            with pytest.raises(ValueError):
                e.specialize_one(label)

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(tilde_elements(n), st.integers(1, n))))
    @settings(max_examples=60)
    def test_specialize_one_is_the_term_by_term_image(self, case):
        """Every term (labels, c) lands at its labels without the
        specialised one, the labels above it lowered by one."""
        e, label = case
        expected = TildeElement.zero(e.nvars - 1)
        for labels, val in e.terms():
            key = frozenset(l - (l > label) for l in labels if l != label)
            expected = expected + TildeElement(e.nvars - 1, {key: val})
        assert e.specialize_one(label) == expected

    @given(tilde_elements(3), tilde_elements(3), tilde_elements(3))
    @settings(max_examples=50)
    def test_ring_axioms(self, a, b, c):
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


class TestCascade:
    def test_top_coefficient(self):
        e = TildeElement(
            2,
            {
                frozenset({1, 2}): UnivElement(3, 1, 0),
                frozenset({1}): UNIV_TWO,
            },
        )
        assert top_coefficient(e) == UnivElement(3, 1, 0)
        assert top_coefficient(residual_reduce(e)) == ResidualElement(1, 0)
        assert top_coefficient(ResidualTilde.zero(2)) == RES_ZERO

    def test_pure_product_has_zero_witnesses(self):
        one = TildeElement.constant(UNIV_ONE, 2)
        product = (TildeElement.variable(1, 2) - one) * (
            TildeElement.variable(2, 2) - one
        )
        c = UnivElement(2, 1, -1)
        e = TildeElement.constant(c, 2) * product
        witnesses, full = cascade_decompose(e, [2, 1])
        assert full == c
        assert all(w.is_zero() for w in witnesses)

    def test_order_must_be_permutation(self):
        e = TildeElement.constant(UNIV_ONE, 2)
        with pytest.raises(ValueError):
            cascade_decompose(e, [1])
        with pytest.raises(ValueError):
            cascade_decompose(e, [1, 1])

    @pytest.mark.parametrize(
        "order, kept, message",
        [
            ([1, 1], 2, r"order \[1, 1\] is not a permutation of 1\.\.2"),
            ([1], 2, r"order \[1\] is not a permutation of 1\.\.2"),
            ([1, 2], 1, r"order \[1, 2\] needs one witness per label, got 1"),
        ],
        ids=["repeated-label", "short-order", "witness-missing"],
    )
    def test_reconstruction_needs_a_permutation_and_one_witness_per_label(self, order, kept, message):
        """A repeated or short order, or a missing witness, would rebuild
        some other element, so the rebuild refuses what the decomposition
        refuses."""
        x1 = TildeElement.variable(1, 2)
        witnesses, full = cascade_decompose(x1 * TildeElement.variable(2, 2) + x1, [1, 2])
        with pytest.raises(ValueError, match=message):
            cascade_reconstruct(witnesses[:kept], full, order, 2)

    @given(tilde_elements(3), st.permutations([1, 2, 3]))
    @settings(max_examples=100)
    def test_reconstruction(self, e, order):
        witnesses, full = cascade_decompose(e, order)
        assert cascade_reconstruct(witnesses, full, order, 3) == e

    @given(st.integers(0, 4).flatmap(lambda n: st.tuples(
        st.permutations(range(1, n + 1)), st.lists(tilde_elements(n), min_size=n, max_size=n), univ_elements
    )))
    @settings(max_examples=80)
    def test_reconstruction_is_the_written_formula(self, data):
        """For arbitrary witnesses, even ones holding variables already
        peeled, the rebuild is sum_q S_q prod_{p<q} (x_{j_p} - 1) +
        C prod_p (x_{j_p} - 1), multiplied out in TildeElement products."""
        order, witnesses, full = data
        n = len(order)
        one = shift = TildeElement.constant(UNIV_ONE, n)
        expected = TildeElement.zero(n)
        for label, witness in zip(order, witnesses):
            expected = expected + witness * shift
            shift = shift * (TildeElement.variable(label, n) - one)
        expected = expected + TildeElement.constant(full, n) * shift
        assert cascade_reconstruct(witnesses, full, order, n) == expected

    @given(tilde_elements(4), st.permutations([1, 2, 3, 4]), st.permutations([1, 2, 3, 4]))
    @settings(max_examples=60)
    def test_full_coefficient_is_order_independent(self, e, order_a, order_b):
        _, full_a = cascade_decompose(e, order_a)
        _, full_b = cascade_decompose(e, order_b)
        assert full_a == full_b == top_coefficient(e)


class TestNormalForm:
    """The normal form in Q, the free ring modulo h*x_l = h and 2<1> = 2<2>."""

    @staticmethod
    def images(e):
        return [model.evaluate(e.coeffs, flips) for model, _, flips, *_ in _sweep(e.nvars)]

    @given(st.integers(0, 3).flatmap(tilde_elements))
    @settings(max_examples=80)
    def test_idempotent_and_keeps_every_field_image(self, e):
        normal = gw_normal_form(e)
        assert gw_normal_form(normal) == normal
        assert self.images(normal) == self.images(e)
        assert normal.rank == e.rank and residual_reduce(normal) == residual_reduce(e)

    @given(st.integers(0, 3).flatmap(lambda n: st.tuples(tilde_elements(n), tilde_elements(n))))
    @settings(max_examples=60)
    def test_respects_sum_and_product(self, ab):
        """The kernel is an ideal: Q is a ring and the normal form its map."""
        a, b = ab
        assert gw_normal_form(gw_normal_form(a) + b) == gw_normal_form(a + b)
        assert gw_normal_form(gw_normal_form(a) * b) == gw_normal_form(a * b)

    def test_relations_vanish(self):
        h, x1 = TildeElement.constant(UNIV_H, 2), TildeElement.variable(1, 2)
        assert gw_normal_form(h * x1 - h).is_zero()
        assert gw_normal_form(TildeElement.constant(2 * UNIV_ONE - 2 * UNIV_TWO, 2)).is_zero()
        assert gw_normal_form(h * x1) == h

    def test_i_cubed_element_vanishes_in_every_field_but_not_in_q(self):
        one = TildeElement.constant(UNIV_ONE, 2)
        e = TildeElement.constant(UNIV_ONE - UNIV_TWO, 2)
        for label in (1, 2):
            e = e * (TildeElement.variable(label, 2) - one)
        assert all(image.is_zero() for image in self.images(e))
        every_key = {frozenset(k): UNIV_TWO - UNIV_ONE for k in ((), (1,), (2,), (1, 2))}
        assert gw_normal_form(e) == TildeElement(2, every_key)

    def test_first_term_name(self):
        assert first_term_name(TildeElement(3, {frozenset({1, 3}): UNIV_H})) == "x1x3"
        assert first_term_name(TildeElement(3, {frozenset({2}): 1, frozenset(): 1})) == "1"


class TestResidual:
    def test_eps_squares_to_one(self):
        assert RES_EPS * RES_EPS == RES_ONE
        assert RES_ONE + RES_ONE == RES_ZERO

    def test_reduce_univ(self):
        assert residual_reduce(UNIV_H) == RES_ZERO
        assert residual_reduce(UNIV_TWO) == RES_EPS
        assert residual_reduce(UnivElement(3, 5, 2)) == RES_ONE
        assert residual_reduce(UNIV_MINUS_TWO) == RES_EPS

    def test_reduce_is_ring_map(self):
        pairs = [
            (UnivElement(1, 2, 3), UnivElement(0, 1, 1)),
            (UnivElement(2, 0, 1), UnivElement(1, 1, 0)),
        ]
        for a, b in pairs:
            assert residual_reduce(a * b) == residual_reduce(a) * residual_reduce(b)
            assert residual_reduce(a + b) == residual_reduce(a) + residual_reduce(b)

    @given(tilde_elements(2), tilde_elements(2))
    @settings(max_examples=60)
    def test_reduce_tilde_is_ring_map(self, a, b):
        assert residual_reduce(a * b) == residual_reduce(a) * residual_reduce(b)
        assert residual_reduce(a + b) == residual_reduce(a) + residual_reduce(b)

    @pytest.mark.parametrize(
        "ring, three",
        [(TildeElement, UnivElement(3, 0, 0)), (ResidualTilde, RES_ONE)],
        ids=["universal", "residual"],
    )
    def test_both_rings_coerce_ints_and_refuse_floats(self, ring, three):
        """One ``_coerce`` serves both rings: an int n is n<1>, a ring
        element is itself, and a float raises in construction and in
        products alike."""
        assert ring.constant(3, 1) == ring.constant(three, 1)
        assert ring.variable(1, 1) * 3 == 3 * ring.variable(1, 1) == ring(1, {frozenset({1}): 3})
        with pytest.raises(TypeError, match="cannot coerce 1.5"):
            ring.constant(1.5, 1)
        with pytest.raises(TypeError):
            ring.variable(1, 1) * 1.5

    def test_residual_tilde_convolution(self):
        x1 = ResidualTilde(2, {frozenset({1}): RES_ONE})
        assert x1 * x1 == ResidualTilde.constant(RES_ONE, 2)
        eps = ResidualTilde.constant(RES_EPS, 2)
        assert (eps * x1).coefficient([1]) == RES_EPS


class TestBitmaskContainer:
    """The bitmask container agrees with the frozenset-keyed reference."""

    @given(label_dicts(4), label_dicts(4))
    @settings(max_examples=80)
    def test_sum_and_product(self, a, b):
        ea, eb = TildeElement(4, a), TildeElement(4, b)
        ra, rb = ref_clean(a), ref_clean(b)
        assert as_label_dict(ea) == ra
        assert as_label_dict(ea + eb) == ref_add(ra, rb, UNIV_ZERO)
        assert as_label_dict(ea * eb) == ref_mul(ra, rb, UNIV_ZERO)

    @given(label_dicts(4), st.permutations([1, 2, 3, 4]))
    @settings(max_examples=60)
    def test_cascade(self, a, order):
        witnesses, full = cascade_decompose(TildeElement(4, a), order)
        ref_witnesses, ref_full = ref_cascade(ref_clean(a), order)
        assert [as_label_dict(w) for w in witnesses] == ref_witnesses
        assert full == ref_full

    @given(label_dicts(3), label_dicts(3))
    @settings(max_examples=60)
    def test_residual_reduce_and_product(self, a, b):
        ra, rb = ref_reduce(ref_clean(a)), ref_reduce(ref_clean(b))
        reduced_a = residual_reduce(TildeElement(3, a))
        reduced_b = residual_reduce(TildeElement(3, b))
        assert as_label_dict(reduced_a) == ra
        assert as_label_dict(reduced_a * reduced_b) == ref_mul(ra, rb, RES_ZERO)
        assert as_label_dict(reduced_a + reduced_b) == ref_add(ra, rb, RES_ZERO)
        assert reduced_a == ResidualTilde(3, ra)


def residual_elements(nvars: int):
    return tilde_elements(nvars).map(residual_reduce)


class TestLinearCombination:
    """``linear_combination`` against the naive fold sum(e * n)."""

    @pytest.mark.parametrize(
        "ring, elements",
        [(TildeElement, tilde_elements(3)), (ResidualTilde, residual_elements(3))],
        ids=["universal", "residual"],
    )
    @given(data=st.data())
    @settings(max_examples=80)
    def test_matches_the_fold_and_leaves_inputs_alone(self, ring, elements, data):
        terms = data.draw(st.lists(st.tuples(elements, st.integers(-6, 6)), max_size=5))
        before = [dict(e.coeffs) for e, _n in terms]
        total = ring.linear_combination(3, terms)
        assert total == sum((e * n for e, n in terms), ring.zero(3))
        assert all(not v.is_zero() for v in total.coeffs.values())
        assert [e.coeffs for e, _n in terms] == before

    @pytest.mark.parametrize("ring", [TildeElement, ResidualTilde])
    def test_large_coefficients_over_many_terms(self, ring):
        """200 terms in 6 variables, coefficients and multipliers near
        10**30, against a fold of ring-element sums key by key: the sum
        stays exact, and a zero sum leaves no key.  Over the residual
        ring an even multiplier adds nothing."""
        rng = random.Random(6)
        big = 10**30

        def near_big():
            return rng.choice((-1, 1)) * (big + rng.randrange(-50, 51))

        def element():
            coeffs = {}
            for _ in range(rng.randrange(1, 9)):
                labels = frozenset(l for l in range(1, 7) if rng.random() < 0.5)
                coeffs[labels] = UnivElement(near_big(), near_big(), near_big())
            e = TildeElement(6, coeffs)
            return e if ring is TildeElement else residual_reduce(e)

        elements = [element() for _ in range(40)]
        terms = [(rng.choice(elements), near_big()) for _ in range(200)]
        terms += [(e, -n) for e, n in terms[:20]]  # cancels some keys away
        fold = {}
        for e, n in terms:
            for key, value in (e * n).coeffs.items():
                fold[key] = fold[key] + value if key in fold else value
        total = ring.linear_combination(6, terms)
        assert total.coeffs == {k: v for k, v in fold.items() if not v.is_zero()}
        assert all(not v.is_zero() for v in total.coeffs.values())
        assert ring.linear_combination(6, terms + [(e, -n) for e, n in terms]).coeffs == {}
        if ring is ResidualTilde:
            even = [(e, n) for e, n in terms if n % 2 == 0]
            assert even and ring.linear_combination(6, even).coeffs == {}
            assert ring.linear_combination(6, terms + even) == total
        else:
            assert max(abs(c) for v in total.coeffs.values() for c in v) > big**2

    def test_residual_coefficients_reduce_mod_two(self):
        x1 = ResidualTilde.variable(1, 2)
        one = ResidualTilde.constant(RES_ONE + RES_EPS, 2)
        assert ResidualTilde.linear_combination(2, [(x1, 3), (one, -1)]) == x1 + one
        assert ResidualTilde.linear_combination(2, [(x1, 2), (one, 0)]).is_zero()
        assert ResidualTilde.linear_combination(2, [(x1, -1), (x1, 4), (one, 2)]) == x1

    def test_cancellation_drops_the_key(self):
        x1 = TildeElement.variable(1, 2)
        h = TildeElement.constant(UNIV_H, 2)
        total = TildeElement.linear_combination(2, [(x1, 3), (h, 1), (x1, -3)])
        assert total.coeffs == {0: UNIV_H}
        assert TildeElement.linear_combination(2, [(x1, 0)]).coeffs == {}

    @pytest.mark.parametrize("ring", [TildeElement, ResidualTilde])
    def test_empty_input_is_zero(self, ring):
        assert ring.linear_combination(2, []) == ring.zero(2)

    @pytest.mark.parametrize("ring", [TildeElement, ResidualTilde])
    def test_variable_count_mismatch_raises(self, ring):
        with pytest.raises(ValueError, match="variable count mismatch: 2 vs 3"):
            ring.linear_combination(2, [(ring.zero(2), 1), (ring.zero(3), 1)])
        with pytest.raises(ValueError, match="variable count mismatch"):
            ring.variable(1, 2) - ring.variable(1, 3)
