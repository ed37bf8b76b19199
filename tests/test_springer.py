"""Anisotropy certificates for diagonal forms over Laurent towers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwfloor.intmath import squarefree_split
from gwfloor.springer import (
    DiagonalForm,
    Verdict,
    _rational_base_verdict,
    _split,
    form_report,
    is_anisotropic,
    negate,
    pfister_concrete,
    springer_split,
)


class TestDiagonalForm:
    def test_unit_reduction(self):
        f = DiagonalForm(0, ((18, 0), (-50, 0)))
        assert f.entries == ((-2, 0), (2, 0))
        g = DiagonalForm(0, ((4, 0), (-8, 0), (1, 0), (-2, 0)))
        assert g.entries == ((-2, 0), (-2, 0), (1, 0), (1, 0))

    def test_entry_validation(self):
        for unit in (3, 5, 6, -7):  # square classes other than +-1, +-2
            with pytest.raises(ValueError):
                DiagonalForm(0, ((unit, 0),))
        with pytest.raises(ValueError):
            DiagonalForm(0, ((0, 0),))
        with pytest.raises(ValueError):
            DiagonalForm(1, ((1, 2),))  # mask uses variable 2
        with pytest.raises(ValueError):
            DiagonalForm(-1, ())

    def test_sorted_equality(self):
        a = DiagonalForm(1, ((1, 0), (-2, 1)))
        b = DiagonalForm(1, ((-2, 1), (1, 0)))
        assert a == b

    def test_rank(self):
        f = DiagonalForm(3, ((1, 0b100), (1, 0b001), (-1, 0)))
        assert f.rank == 3

    def test_restrict_variables(self):
        f = DiagonalForm(3, ((1, 0b01), (-2, 0)))
        g = f.restrict_variables(1)
        assert g.nvars == 1 and g.entries == f.entries
        with pytest.raises(ValueError):
            DiagonalForm(3, ((1, 0b100),)).restrict_variables(2)

    def test_json(self):
        f = DiagonalForm(2, ((1, 0b11), (-2, 0)))
        assert f.to_json() == [[-2, []], [1, [1, 2]]]

    def test_negate(self):
        f = DiagonalForm(0, ((1, 0), (-2, 0)))
        assert negate(f).entries == ((-1, 0), (2, 0))


class TestPfisterConcrete:
    def test_base(self):
        assert pfister_concrete(0) == DiagonalForm(0, ((1, 0), (-2, 0)))

    def test_one_level(self):
        assert pfister_concrete(1) == DiagonalForm(
            1, ((1, 0), (-2, 0), (-1, 1), (2, 1))
        )

    def test_rank_doubles(self):
        for s in range(0, 9):
            assert pfister_concrete(s).rank == 2 ** (s + 1)

    def test_residues_are_signed_copies(self):
        # splitting at the outermost variable returns the previous level
        # and its negative
        for s in range(1, 9):
            top = pfister_concrete(s)
            unit, uniformizer = springer_split(top, s)
            prev = pfister_concrete(s - 1)
            assert unit.restrict_variables(s - 1) == prev
            assert uniformizer.restrict_variables(s - 1) == negate(prev)


class TestSpringerSplit:
    def test_partition(self):
        f = DiagonalForm(2, ((1, 0b01), (-2, 0b10), (2, 0)))
        unit, uniformizer = springer_split(f, 1)
        assert unit.entries == ((2, 0), (-2, 0b10))
        assert uniformizer.entries == ((1, 0),)

    def test_no_occurrence(self):
        f = DiagonalForm(2, ((1, 0), (-1, 0)))
        unit, uniformizer = springer_split(f, 2)
        assert unit == f
        assert uniformizer.rank == 0

    def test_variable_range(self):
        with pytest.raises(ValueError):
            springer_split(DiagonalForm(1, ((1, 0),)), 2)


class TestVerdicts:
    def test_base_cases(self):
        assert is_anisotropic(DiagonalForm(0, ())) is Verdict.ANISOTROPIC
        assert is_anisotropic(DiagonalForm(0, ((1, 0),))) is Verdict.ANISOTROPIC
        assert (
            is_anisotropic(DiagonalForm(0, ((1, 0), (1, 0))))
            is Verdict.ANISOTROPIC
        )
        assert (
            is_anisotropic(DiagonalForm(0, ((1, 0), (-1, 0))))
            is Verdict.ISOTROPIC
        )
        assert (
            is_anisotropic(DiagonalForm(0, ((1, 0), (-2, 0))))
            is Verdict.ANISOTROPIC
        )
        assert (
            is_anisotropic(DiagonalForm(0, ((2, 0), (-2, 0))))
            is Verdict.ISOTROPIC
        )
        assert (
            is_anisotropic(DiagonalForm(0, ((1, 0), (1, 0), (-1, 0))))
            is Verdict.UNSUPPORTED
        )

    def test_tower_cases(self):
        # u1 * (hyperbolic plane) is isotropic at the residue level
        f = DiagonalForm(1, ((1, 1), (-1, 1)))
        assert is_anisotropic(f) is Verdict.ISOTROPIC
        # <1, -u1> is anisotropic: both residues are rank-1
        g = DiagonalForm(1, ((1, 0), (-1, 1)))
        assert is_anisotropic(g) is Verdict.ANISOTROPIC

    def test_binary_base_matches_square_class(self):
        # <a, b> over Q is isotropic exactly when -ab is a square
        units = (1, -1, 2, -2)
        for a in units:
            for b in units:
                iso = squarefree_split(-a * b)[0] == 1
                expected = Verdict.ISOTROPIC if iso else Verdict.ANISOTROPIC
                assert _rational_base_verdict([a, b]) is expected

    def test_pfister_tower_is_anisotropic(self):
        # the paper's claim stops at s = 8; s = 13 is the benchmark's top
        for s in range(0, 14):
            form = pfister_concrete(s)
            assert recursive_verdict(form.entries) is Verdict.ANISOTROPIC
            assert is_anisotropic(form) is Verdict.ANISOTROPIC

    def test_unsupported_propagates(self):
        f = DiagonalForm(1, ((1, 0), (1, 0), (-1, 0), (2, 1)))
        assert is_anisotropic(f) is Verdict.UNSUPPORTED

    def test_isotropic_group_outranks_unsupported_groups(self):
        unsupported = ((1, 0b01), (1, 0b01), (-1, 0b01), (2, 0b10), (-1, 0b10), (1, 0b10))
        f = DiagonalForm(2, unsupported)
        assert is_anisotropic(f) is Verdict.UNSUPPORTED
        # an isotropic group under a later mask settles the verdict
        g = DiagonalForm(2, unsupported + ((2, 0b11), (-2, 0b11)))
        assert is_anisotropic(g) is Verdict.ISOTROPIC

    def test_verdict_builds_no_forms(self, monkeypatch):
        """The verdict builds no form, and every derived form skips the
        validating constructor: only ``DiagonalForm(...)`` re-validates."""
        form = pfister_concrete(6)
        built = []
        validate = DiagonalForm.__new__

        def recording_new(cls, *args):
            built.append(args)
            return validate(cls, *args)

        monkeypatch.setattr(DiagonalForm, "__new__", recording_new)
        assert is_anisotropic(form) is Verdict.ANISOTROPIC
        assert built == []
        unit_part, _ = springer_split(form, 6)
        unit_part.restrict_variables(5)
        form.restrict_variables(7)
        negate(form)
        assert pfister_concrete(6) == form
        assert built == []
        # the hook sees the public constructor
        DiagonalForm(1, ((1, 1),))
        assert len(built) == 1

    def test_verdict_json_values(self):
        assert Verdict.ANISOTROPIC.value == "aniso"
        assert Verdict.ISOTROPIC.value == "iso"
        assert Verdict.UNSUPPORTED.value == "unsupported"


class TestFormReport:
    def test_shape(self):
        doc = form_report(pfister_concrete(1))
        assert doc == {
            "form": [[-2, []], [1, []], [-1, [1]], [2, [1]]],
            "verdict": "aniso",
        }


def recursive_verdict(entries: tuple) -> Verdict:
    """Springer's residue recursion, the oracle for ``is_anisotropic``.

    Split at the highest tower variable present: the form is anisotropic
    exactly when both residue forms are, an isotropic residue makes it
    isotropic, and an unsupported rational base leaves it undetermined
    unless an isotropic part settles it.
    """
    if not entries:
        # The empty form has no nonzero vector at all.
        return Verdict.ANISOTROPIC
    top = max(bits for _, bits in entries)
    if top == 0:
        return _rational_base_verdict([u for u, _ in entries])
    unit_part, uniformizer_part = _split(entries, 1 << (top.bit_length() - 1))
    left = recursive_verdict(unit_part)
    right = recursive_verdict(uniformizer_part)
    if Verdict.ISOTROPIC in (left, right):
        return Verdict.ISOTROPIC
    if Verdict.UNSUPPORTED in (left, right):
        return Verdict.UNSUPPORTED
    return Verdict.ANISOTROPIC


@st.composite
def diagonal_forms(draw):
    """Forms on up to 6 variables with up to 12 entries.  The masks come
    from a drawn pool of at most 12, so groups of three or more entries
    under one mask, and unsupported groups under several masks, occur."""
    nvars = draw(st.integers(min_value=0, max_value=6))
    mask = st.integers(min_value=0, max_value=(1 << nvars) - 1)
    masks = draw(st.lists(mask, min_size=1, max_size=12))
    entry = st.tuples(
        st.sampled_from([1, -1, 2, -2, 4, -8, 9, -18]), st.sampled_from(masks)
    )
    return DiagonalForm(nvars, tuple(draw(st.lists(entry, max_size=12))))


class TestRecursionReference:
    @settings(max_examples=400, deadline=None)
    @given(diagonal_forms())
    def test_matches_recursion(self, f):
        assert is_anisotropic(f) is recursive_verdict(f.entries)
