"""Anisotropy certificates over iterated Laurent-series towers.

Forms are diagonal with entries u * m where u is +-1 or +-2 (up to a
rational square, reduced away on construction) and m is a squarefree
monomial in the tower variables u_1..u_s.  Over the tower
Q((u_1))..((u_s)) a form splits at the outermost variable into a unit
part and a uniformizer part, and by Springer's theorem it is anisotropic
exactly when both residue forms are (``springer_split`` gives the two
residue forms, the certificate the checks inspect).

Iterating the split all the way down sorts every entry by the parity of
each variable in turn, so each bottom residue form is exactly the run of
entries sharing one monomial mask, with that monomial divided out.  The
verdict is therefore decided in one scan over those runs, which are
contiguous because entries are sorted by mask: a run of one entry is
anisotropic, a run of two <a, b> is isotropic exactly when b = -a, and
only a run of three or more goes to the rational rule.  The form is
ISOTROPIC if any run is, otherwise UNSUPPORTED if any run's rational
form falls outside the supported shapes (indefinite of rank >= 3),
otherwise ANISOTROPIC.  Verdicts are data, so sweeps over generated
forms never abort.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from operator import itemgetter

from .intmath import squarefree_split
from .univ import check_variable_count, mask_labels


# The largest tower the ``pfister`` command accepts, and the top of the
# tower that ``verify --suite sweep`` checks.  The Pfister element and the concrete form both double with each
# level, and the command's cost grows about fourfold per two levels.
MAX_TOWER_VARS = 14


class Verdict(Enum):
    ANISOTROPIC = "aniso"
    ISOTROPIC = "iso"
    UNSUPPORTED = "unsupported"


def _reduce_unit(value: int) -> int:
    """Strip the square part of a nonzero integer; require class +-1, +-2."""
    if value in (1, -1, 2, -2):
        return value
    core, _ = squarefree_split(value)
    if abs(core) not in (1, 2):
        raise ValueError(
            f"entry unit {value} is not +-1 or +-2 up to a rational square"
        )
    return core


class DiagonalForm(namedtuple("DiagonalForm", "nvars entries")):
    """Diagonal quadratic form over the Laurent tower on nvars variables.

    Each entry is (unit, bits): the unit is a reduced square-class
    representative in {+-1, +-2} and bits is a mask whose l-th bit marks
    a factor of the tower variable u_l.  Entries are kept sorted so equal
    forms compare equal.
    """

    __slots__ = ()

    def __new__(cls, nvars: int, entries) -> "DiagonalForm":
        check_variable_count(nvars)
        clean = []
        for unit, bits in entries:
            if type(unit) is not int or type(bits) is not int:
                raise ValueError(f"entry ({unit!r}, {bits!r}) must hold two integers")
            if unit == 0:
                raise ValueError("diagonal entries must be nonzero")
            if bits < 0 or bits >= 1 << nvars:
                raise ValueError(
                    f"monomial mask {bits:#x} exceeds {nvars} variables"
                )
            clean.append((_reduce_unit(unit), bits))
        return tuple.__new__(cls, (nvars, tuple(sorted(clean, key=itemgetter(1, 0)))))

    @classmethod
    def _make(cls, iterable):
        """Build through the validating constructor, so ``_replace`` does."""
        return cls(*iterable)

    @property
    def rank(self) -> int:
        return len(self.entries)

    def restrict_variables(self, nvars: int) -> "DiagonalForm":
        """Reinterpret the form over a smaller tower; all entries must fit."""
        check_variable_count(nvars)
        # entries are sorted by mask, so the last one has the largest
        if self.entries and self.entries[-1][1] >> nvars:
            raise ValueError(
                f"monomial mask {self.entries[-1][1]:#x} exceeds {nvars} variables"
            )
        return _derived(nvars, self.entries)

    def to_json(self) -> list:
        return [[unit, list(mask_labels(bits))] for unit, bits in self.entries]


def _derived(nvars: int, entries: tuple) -> DiagonalForm:
    """A form built from entries that are already reduced, sorted and
    within nvars variables, as every form derived from another one is:
    only the public constructor validates."""
    return tuple.__new__(DiagonalForm, (nvars, entries))


def negate(f: DiagonalForm) -> DiagonalForm:
    # negation reverses the order of the units under each mask
    entries = sorted(((-u, b) for u, b in f.entries), key=itemgetter(1, 0))
    return _derived(f.nvars, tuple(entries))


def pfister_concrete(s: int) -> DiagonalForm:
    """Diagonal expansion of <1,-2> tensored with <1,-u_l> for l = 1..s:
    under each mask b the entries <1,-2> times (-1)^|b|, in sorted order."""
    check_variable_count(s)
    units = ((-2, 1), (-1, 2))  # <1,-2> and <-1,2>, each sorted
    return _derived(s, tuple((u, b) for b in range(1 << s) for u in units[b.bit_count() & 1]))


def _split(entries: tuple, bit: int) -> tuple[tuple, tuple]:
    """Partition entries by the parity of the variable at mask ``bit``;
    divide it out of the uniformizer part.  One pass tests each entry
    once; clearing a bit every moved mask has keeps the parts sorted."""
    unit_part = []
    uniformizer_part = []
    keep = unit_part.append
    move = uniformizer_part.append
    for entry in entries:
        unit, bits = entry
        if bits & bit:
            move((unit, bits ^ bit))
        else:
            keep(entry)
    return tuple(unit_part), tuple(uniformizer_part)


def springer_split(
    f: DiagonalForm, var: int
) -> tuple[DiagonalForm, DiagonalForm]:
    """Partition by the parity of var's exponent; divide var out of the
    uniformizer part."""
    if not 1 <= var <= f.nvars:
        raise ValueError(f"variable u{var} outside the {f.nvars}-variable tower")
    unit_part, uniformizer_part = _split(f.entries, 1 << (var - 1))
    return _derived(f.nvars, unit_part), _derived(f.nvars, uniformizer_part)


def _rational_base_verdict(units: list) -> Verdict:
    """Verdict over Q for the reduced units of a form of rank >= 3 with
    no tower variable; ``is_anisotropic`` decides ranks 1 and 2 inline."""
    if all(u > 0 for u in units) or all(u < 0 for u in units):
        # Definite forms have no real zero, hence no rational one.
        return Verdict.ANISOTROPIC
    return Verdict.UNSUPPORTED


def is_anisotropic(f: DiagonalForm) -> Verdict:
    """Springer's residue recursion, decided in one scan over mask runs.

    Splitting at every tower variable in turn leaves, at the bottom, one
    rational residue form per monomial mask: the units of the run of
    entries with that mask (entries are sorted by mask on construction).
    The form is anisotropic exactly when all of them are, so one
    isotropic run makes it isotropic, and an unsupported run leaves it
    undetermined (UNSUPPORTED) unless an isotropic one settles it.  A
    run of one entry is anisotropic; a run of two <a, b> is isotropic
    exactly when -ab is a square, which for a, b in {+-1, +-2} means
    b = -a; longer runs go to ``_rational_base_verdict``.  The empty
    form has no runs and is anisotropic.
    """
    entries = f.entries
    n = len(entries)
    verdict = Verdict.ANISOTROPIC
    start = 0
    while start < n:
        unit, bits = entries[start]
        end = start + 1
        if end == n or entries[end][1] != bits:  # a run of one
            start = end
            continue
        end += 1
        if end == n or entries[end][1] != bits:  # a run of two
            if entries[start + 1][0] == -unit:
                return Verdict.ISOTROPIC
            start = end
            continue
        while end < n and entries[end][1] == bits:
            end += 1
        if _rational_base_verdict([u for u, _ in entries[start:end]]) is Verdict.UNSUPPORTED:
            verdict = Verdict.UNSUPPORTED
        start = end
    return verdict
