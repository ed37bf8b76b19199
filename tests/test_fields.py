"""Field models and specialization of universal elements."""

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwfloor.fields import (
    ClosedClass,
    ClosedField,
    FiniteField,
    FqClass,
    RealClass,
    RealField,
    field_model,
    finite_field,
    specialize_field,
)
from gwfloor.univ import (
    UNIV_H,
    UNIV_MINUS_ONE,
    UNIV_MINUS_TWO,
    UNIV_ONE,
    UNIV_TWO,
    TildeElement,
    UnivElement,
)
from gwfloor.wallcross import SWEEP_FQ_ORDERS

univ_elements = st.builds(
    UnivElement, st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6)
)


def _monomials(nvars):
    return st.lists(st.booleans(), min_size=nvars, max_size=nvars).map(
        lambda bits: frozenset(l for l, b in enumerate(bits, 1) if b)
    )


tilde_elements = st.integers(0, 4).flatmap(
    lambda nvars: st.dictionaries(_monomials(nvars), univ_elements, max_size=8).map(
        lambda cs: TildeElement(nvars, cs)
    )
)

ORACLE_MODELS = (
    RealField(),
    *(FiniteField(q) for q in (5, 7, 9, 11, 13, 17)),
    ClosedField(),
)


def symbol_images(model):
    """Images of <1>, h and <2>: h = <1> + <-1>, and <2> is a square in F_q
    exactly when ``bit_two`` is 0."""
    if isinstance(model, RealField):
        return RealClass(1, 1), RealClass(2, 0), RealClass(1, 1)
    if isinstance(model, FiniteField):
        return FqClass(1, 0), FqClass(2, model.bit_minus_one), FqClass(1, model.bit_two)
    return ClosedClass(1), ClosedClass(2), ClosedClass(1)


def variable_image(model, value):
    """Image of a variable assigned ``value``: the class of that sign (real),
    the square class with that bit (F_q), or <1> (closed)."""
    if isinstance(model, RealField):
        return RealClass(1, value)
    if isinstance(model, FiniteField):
        return FqClass(1, value)
    return ClosedClass(1)


def scaled(n, c, zero):
    total = zero
    for _ in range(abs(n)):
        total = total + c if n > 0 else total - c
    return total


def naive_specialize(e, model, assign):
    """The term-by-term class product: each coefficient's image, written
    from the symbol images, times the class of each of its variables."""
    one, h, two = symbol_images(model)
    zero = type(one)()
    total = zero
    for labels, c in e.terms():
        term = scaled(c.c1, one, zero) + scaled(c.ch, h, zero) + scaled(c.c2, two, zero)
        for label in labels:
            term = term * variable_image(model, assign[label])
        total = total + term
    return total


class TestRealField:
    def test_symbol_images(self):
        model = RealField()
        assert specialize_field(UNIV_ONE, model) == RealClass(1, 1)
        assert specialize_field(UNIV_TWO, model) == RealClass(1, 1)
        assert specialize_field(UNIV_H, model) == RealClass(2, 0)
        assert specialize_field(UNIV_MINUS_ONE, model) == RealClass(1, -1)
        assert specialize_field(UNIV_MINUS_TWO, model) == RealClass(1, -1)

    def test_sign_assignment_validation(self):
        with pytest.raises(ValueError, match="real assignment must be a sign, got 0"):
            specialize_field(TildeElement.variable(1, 1), RealField(), {1: 0})

    @given(univ_elements, univ_elements)
    def test_ring_map(self, a, b):
        image = functools.partial(specialize_field, model=RealField())
        assert image(a * b) == image(a) * image(b)
        assert image(a + b) == image(a) + image(b)


class TestFiniteField:
    def test_square_classification(self):
        # -1 is a square exactly when q = 1 mod 4; 2 exactly when q = +-1 mod 8.
        assert FiniteField(5).is_square(-1)
        assert not FiniteField(7).is_square(-1)
        assert not FiniteField(5).is_square(2)
        assert FiniteField(7).is_square(2)
        assert FiniteField(17).is_square(2)
        assert FiniteField(9).is_square(-1)  # even-degree extension
        assert FiniteField(9).is_square(2)

    def test_rejects_bad_order(self):
        for q in (2, 3, 4, 8, 12, 10**12 + 39):
            with pytest.raises(ValueError, match="odd prime power 3 < q <= 10\\^12"):
                FiniteField(q)
        with pytest.raises(ValueError, match="15 is not a prime power"):
            FiniteField(15)

    def test_h_image(self):
        for q in (5, 7, 11, 13):
            model = FiniteField(q)
            h = specialize_field(UNIV_H, model)
            assert h.rank == 2
            # h = <1> + <-1> has discriminant class of -1.
            assert h.disc == model.bit_minus_one

    @given(univ_elements, univ_elements, st.sampled_from([5, 7, 11, 13, 17]))
    @settings(max_examples=60)
    def test_ring_map(self, a, b, q):
        image = functools.partial(specialize_field, model=FiniteField(q))
        assert image(a * b) == image(a) * image(b)
        assert image(a + b) == image(a) + image(b)

    def test_two_torsion_of_symbol_differences(self):
        for q in (5, 7, 11, 13):
            model = FiniteField(q)
            for bit in (0, 1):
                a = FqClass(1, bit)
                diff = a - specialize_field(UNIV_TWO, model) * a
                assert diff + diff == FqClass(0, 0)


class TestClosedField:
    def test_rank_only(self):
        model = ClosedField()
        assert specialize_field(UnivElement(3, 2, 1), model) == ClosedClass(8)
        # every unit is a square, so the assigned value is never read
        x = TildeElement.variable(1, 1)
        assert specialize_field(x, model, {1: 123}) == ClosedClass(1)


class TestSpecialize:
    def test_univ_passthrough(self):
        assert specialize_field(UNIV_H, RealField()) == RealClass(2, 0)

    def test_tilde_requires_assignment(self):
        e = TildeElement.variable(1, 1)
        with pytest.raises(ValueError):
            specialize_field(e, RealField(), {})

    def test_tilde_real(self):
        e = TildeElement.constant(UNIV_ONE, 1) + TildeElement.variable(1, 1)
        plus = specialize_field(e, RealField(), {1: 1})
        minus = specialize_field(e, RealField(), {1: -1})
        assert plus == RealClass(2, 2)
        assert minus == RealClass(2, 0)

    def test_tilde_fq(self):
        # <2> + <2>x1 at a non-square x1 has trivial discriminant only
        # when 2 and 2*nonsquare cancel mod squares.
        e = TildeElement.constant(UNIV_TWO, 1) * (
            TildeElement.constant(UNIV_ONE, 1) + TildeElement.variable(1, 1)
        )
        model = FiniteField(5)
        sq = specialize_field(e, model, {1: 0})
        ns = specialize_field(e, model, {1: 1})
        assert sq.rank == ns.rank == 2
        assert sq.disc != ns.disc

    def test_specialization_is_multiplicative(self):
        a = TildeElement.constant(UNIV_TWO, 2) + TildeElement.variable(1, 2)
        b = TildeElement.variable(2, 2) - TildeElement.constant(UNIV_ONE, 2)
        for model, assign in [
            (RealField(), {1: -1, 2: 1}),
            (FiniteField(7), {1: 1, 2: 0}),
            (ClosedField(), {1: 0, 2: 0}),
        ]:
            left = specialize_field(a * b, model, assign)
            right = specialize_field(a, model, assign) * specialize_field(
                b, model, assign
            )
            assert left == right

    def test_rejects_unknown_type(self):
        with pytest.raises(TypeError):
            specialize_field(3, RealField())

    def test_rejects_non_units_of_occurring_variables(self):
        e = TildeElement.variable(1, 2)
        with pytest.raises(ValueError, match="real assignment must be a sign"):
            specialize_field(e, RealField(), {1: 0, 2: 1})
        with pytest.raises(ValueError, match="square bit"):
            specialize_field(e, FiniteField(5), {1: 2, 2: 0})
        # x2 does not occur, so its value is never read
        assert specialize_field(e, RealField(), {1: -1, 2: 0}) == RealClass(1, -1)

    @given(tilde_elements)
    @settings(max_examples=80, deadline=None)
    def test_matches_term_by_term_product(self, e):
        for model in ORACLE_MODELS:
            values = (1, -1) if isinstance(model, RealField) else (0, 1)
            for pattern in itertools.product(values, repeat=e.nvars):
                assign = dict(zip(range(1, e.nvars + 1), pattern))
                assert specialize_field(e, model, assign) == naive_specialize(
                    e, model, assign
                ), (model.describe(), assign)


SWEEP_MODELS = (RealField(), *map(finite_field, SWEEP_FQ_ORDERS), ClosedField())


def _one_minus_variables(nvars):
    """(<1> - x_l) over a random nonempty set of labels, each factor
    vanishing where x_l is +1 or a square."""
    return st.sets(st.integers(1, nvars), min_size=1).map(
        lambda labels: functools.reduce(
            lambda acc, l: acc * (TildeElement.constant(UNIV_ONE, nvars) - TildeElement.variable(l, nvars)),
            sorted(labels),
            TildeElement.constant(UNIV_ONE, nvars),
        )
    )


def _sweep_elements(nvars):
    """Random elements in nvars variables: any, of rank zero (so every
    real signature is computed), and times a product of <1> - x_l (so
    they vanish at some masks only)."""
    any_element = st.dictionaries(_monomials(nvars), univ_elements, max_size=12).map(
        lambda cs: TildeElement(nvars, cs)
    )
    rank_zero = any_element.map(lambda e: e - TildeElement.constant(UnivElement(e.rank), nvars))
    if nvars == 0:
        return st.one_of(any_element, rank_zero)
    return st.one_of(
        any_element,
        rank_zero,
        st.builds(lambda e, f: e * f, rank_zero, _one_minus_variables(nvars)),
        st.builds(lambda e, f: e * f, any_element, _one_minus_variables(nvars)),
    )


def image_zeros(model, e):
    return [model.evaluate(e.coeffs, m).is_zero() for m in range(1 << e.nvars)]


class TestVanishing:
    """``vanishing`` gives every mask's verdict in one pass; ``evaluate``
    at each mask is the reference."""

    @pytest.mark.parametrize("model", SWEEP_MODELS, ids=lambda m: m.describe())
    @given(e=st.integers(0, 7).flatmap(_sweep_elements))
    @settings(max_examples=80, deadline=None)
    def test_matches_evaluate_at_every_mask(self, model, e):
        assert model.vanishing(e.coeffs, e.nvars) == image_zeros(model, e)

    @pytest.mark.parametrize("model", SWEEP_MODELS, ids=lambda m: m.describe())
    def test_elements_vanishing_at_some_masks(self, model):
        # <1> - <2> lies in I only; it vanishes exactly where 2 is a square.
        e = TildeElement.constant(UNIV_ONE - UNIV_TWO, 0)
        two_is_square = not isinstance(model, FiniteField) or not model.bit_two
        assert model.vanishing(e.coeffs, 0) == image_zeros(model, e) == [two_is_square]
        for nvars in range(1, 8):
            one = TildeElement.constant(UNIV_ONE, nvars)
            x = [TildeElement.variable(l, nvars) for l in range(1, nvars + 1)]
            # <1> - x_l vanishes exactly where x_l is +1 or a square: at
            # half of the masks, or at all of them in the closed model.
            for l in (1, nvars):
                e = one - x[l - 1]
                expected = [isinstance(model, ClosedField) or not m >> (l - 1) & 1 for m in range(1 << nvars)]
                assert model.vanishing(e.coeffs, nvars) == image_zeros(model, e) == expected
            # (<1> - <2>) * prod (x_l - <1>) lies in I^(nvars + 1), and its
            # signature is 0 and I^2(F_q) = 0, so every image vanishes.
            e = TildeElement.constant(UNIV_ONE - UNIV_TWO, nvars)
            for y in x:
                e = e * (y - one)
            assert model.vanishing(e.coeffs, nvars) == image_zeros(model, e) == [True] * (1 << nvars)


class TestAssignmentText:
    """Each model reads back the texts it prints: its name through
    ``field_model`` and its assignments through ``parse_assign``."""

    @pytest.mark.parametrize("model", SWEEP_MODELS, ids=lambda m: m.describe())
    def test_round_trip(self, model):
        assert type(field_model(model.describe())) is type(model)
        for s in range(4):
            for values in itertools.product(model.values, repeat=s):
                assign = dict(enumerate(values, start=1))
                assert model.parse_assign(model.describe_assign(assign), s) == assign
            assert model.parse_assign(None, s) == dict.fromkeys(range(1, s + 1), model.values[0])

    def test_finite_field_models_are_shared(self):
        assert field_model("fq:13") is finite_field(13)

    def test_separators(self):
        assert RealField().parse_assign("+,-", 2) == {1: 1, 2: -1}
        assert finite_field(5).parse_assign("ns,sq", 2) == {1: 1, 2: 0}

    def test_bad_texts(self):
        with pytest.raises(ValueError) as exc:
            RealField().parse_assign("+,-x", 3)
        assert str(exc.value) == "sign pattern must be 3 characters of '+'/'-', got '+-x'"
        with pytest.raises(ValueError) as exc:
            RealField().parse_assign("+-", 3)
        assert str(exc.value) == "sign pattern must be 3 characters of '+'/'-', got '+-'"
        with pytest.raises(ValueError) as exc:
            finite_field(5).parse_assign("sq/xx/ns", 3)
        assert str(exc.value) == (
            "assignment must be 3 'sq'/'ns' tokens separated by '/', got 'sq/xx/ns'"
        )
        with pytest.raises(ValueError) as exc:
            finite_field(5).parse_assign("sq", 2)
        assert str(exc.value) == "assignment must be 2 'sq'/'ns' tokens separated by '/', got 'sq'"
        for name in ("symbolic", "bogus", "fq:", "fq:abc", "fq:-5"):
            with pytest.raises(ValueError) as exc:
                field_model(name)
            assert str(exc.value) == (
                f"unknown field model {name!r}; expected real, closed, "
                "or fq:Q for an odd prime power Q"
            )
