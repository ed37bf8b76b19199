"""Anisotropy certificates for diagonal forms over Laurent towers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gwfloor.springer import (
    DiagonalForm,
    Verdict,
    _rational_base_verdict,
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

    def test_entry_validation(self):
        with pytest.raises(ValueError):
            DiagonalForm(0, ((5, 0),))  # class 5 not supported
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

    def test_pfister_tower_is_anisotropic(self):
        for s in range(0, 9):
            assert is_anisotropic(pfister_concrete(s)) is Verdict.ANISOTROPIC

    def test_unsupported_propagates(self):
        f = DiagonalForm(1, ((1, 0), (1, 0), (-1, 0), (2, 1)))
        assert is_anisotropic(f) is Verdict.UNSUPPORTED

    def test_recursion_builds_no_forms(self, monkeypatch):
        form = pfister_concrete(6)
        built = []
        monkeypatch.setattr(
            DiagonalForm, "__post_init__", lambda self: built.append(self)
        )
        assert is_anisotropic(form) is Verdict.ANISOTROPIC
        assert built == []

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


# How far a residue verdict decides the whole form: one isotropic residue
# makes it isotropic, and an unsupported one leaves it undetermined.
_SEVERITY = {Verdict.ISOTROPIC: 2, Verdict.UNSUPPORTED: 1, Verdict.ANISOTROPIC: 0}


def reference_verdict(f: DiagonalForm) -> Verdict:
    """Springer's recursion unrolled: every residue form on the way down
    gathers the entries of one monomial, so the verdict is the worst
    rational verdict over the groups of entries with equal masks."""
    groups: dict[int, list] = {}
    for unit, bits in f.entries:
        groups.setdefault(bits, []).append((unit, 0))
    return max(
        (_rational_base_verdict(tuple(g)) for g in groups.values()),
        key=_SEVERITY.__getitem__,
        default=Verdict.ANISOTROPIC,
    )


@st.composite
def diagonal_forms(draw):
    nvars = draw(st.integers(min_value=0, max_value=4))
    entry = st.tuples(
        st.sampled_from([1, -1, 2, -2, 4, -8, 9, -18]),
        st.integers(min_value=0, max_value=(1 << nvars) - 1),
    )
    return DiagonalForm(nvars, tuple(draw(st.lists(entry, max_size=7))))


class TestRecursionReference:
    @settings(max_examples=400, deadline=None)
    @given(diagonal_forms())
    def test_matches_mask_groups(self, f):
        assert is_anisotropic(f) is reference_verdict(f)
