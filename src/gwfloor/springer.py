"""Anisotropy certificates over iterated Laurent-series towers.

Forms are diagonal with entries u * m where u is +-1 or +-2 (up to a
rational square, reduced away on construction) and m is a squarefree
monomial in the tower variables u_1..u_s.  Over the tower
Q((u_1))..((u_s)) a form splits at the outermost variable into a unit
part and a uniformizer part, and by Springer's theorem it is anisotropic
exactly when both residue forms are (``springer_split`` gives the two
residue forms, the certificate the checks inspect).

Iterating the split all the way down sorts every entry by the parity of
each variable in turn, so each bottom residue form is exactly the set of
entries sharing one monomial mask, with that monomial divided out.  The
verdict is therefore decided in one pass over the mask groups: ISOTROPIC
if any group is isotropic over Q, otherwise UNSUPPORTED if any group's
rational form falls outside the supported shapes (indefinite of rank
>= 3), otherwise ANISOTROPIC.  Verdicts are data, so sweeps over
generated forms never abort.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from operator import itemgetter

from .intmath import squarefree_split


# The largest tower the ``pfister`` command and scripts/pfister_tower.py
# accept.  The Pfister element and the concrete form both double with each
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


@dataclass(frozen=True, slots=True)
class DiagonalForm:
    """Diagonal quadratic form over the Laurent tower on nvars variables.

    Each entry is (unit, bits): the unit is a reduced square-class
    representative in {+-1, +-2} and bits is a mask whose l-th bit marks
    a factor of the tower variable u_l.  Entries are kept sorted so equal
    forms compare equal.
    """

    nvars: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.nvars < 0:
            raise ValueError(f"variable count must be nonnegative, got {self.nvars}")
        clean = []
        for unit, bits in self.entries:
            if unit == 0:
                raise ValueError("diagonal entries must be nonzero")
            bits = int(bits)
            if bits < 0 or bits >= 1 << self.nvars:
                raise ValueError(
                    f"monomial mask {bits:#x} exceeds {self.nvars} variables"
                )
            clean.append((_reduce_unit(unit), bits))
        object.__setattr__(
            self, "entries", tuple(sorted(clean, key=itemgetter(1, 0)))
        )

    @property
    def rank(self) -> int:
        return len(self.entries)

    def restrict_variables(self, nvars: int) -> "DiagonalForm":
        """Reinterpret the form over a smaller tower; all entries must fit."""
        if nvars < 0:
            raise ValueError(f"variable count must be nonnegative, got {nvars}")
        # entries are sorted by mask, so the last one has the largest
        if self.entries and self.entries[-1][1] >> nvars:
            raise ValueError(
                f"monomial mask {self.entries[-1][1]:#x} exceeds {nvars} variables"
            )
        return _derived(nvars, self.entries)

    def to_json(self) -> list:
        return [
            [unit, [l for l in range(1, self.nvars + 1) if bits >> (l - 1) & 1]]
            for unit, bits in self.entries
        ]


def _derived(nvars: int, entries: tuple) -> DiagonalForm:
    """A form built from entries that are already reduced, sorted and
    within nvars variables, as every form derived from another one is:
    only the public constructor validates."""
    form = object.__new__(DiagonalForm)
    object.__setattr__(form, "nvars", nvars)
    object.__setattr__(form, "entries", entries)
    return form


def negate(f: DiagonalForm) -> DiagonalForm:
    # negation reverses the order of the units under each mask
    entries = sorted(((-u, b) for u, b in f.entries), key=itemgetter(1, 0))
    return _derived(f.nvars, tuple(entries))


def pfister_concrete(s: int) -> DiagonalForm:
    """Diagonal expansion of <1,-2> tensored with <1,-u_l> for l = 1..s:
    under each mask b the entries <1,-2> times (-1)^|b|, in sorted order."""
    if s < 0:
        raise ValueError(f"variable count must be nonnegative, got {s}")
    units = ((-2, 1), (-1, 2))  # <1,-2> and <-1,2>, each sorted
    return _derived(s, tuple((u, b) for b in range(1 << s) for u in units[b.bit_count() & 1]))


def _split(entries: tuple, bit: int) -> tuple[tuple, tuple]:
    """Partition entries by the parity of the variable at mask ``bit``;
    divide it out of the uniformizer part."""
    unit_part = tuple(e for e in entries if not e[1] & bit)
    uniformizer_part = tuple((u, b ^ bit) for u, b in entries if b & bit)
    return unit_part, uniformizer_part


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
    """Verdict over Q for the reduced units of a form with no tower variable."""
    if len(units) == 1:
        return Verdict.ANISOTROPIC
    if len(units) == 2:
        # <a, b> is isotropic iff -ab is a square; for a, b in {+-1, +-2}
        # that happens exactly when b = -a.
        a, b = units
        return Verdict.ISOTROPIC if a == -b else Verdict.ANISOTROPIC
    if all(u > 0 for u in units) or all(u < 0 for u in units):
        # Definite forms have no real zero, hence no rational one.
        return Verdict.ANISOTROPIC
    return Verdict.UNSUPPORTED


def is_anisotropic(f: DiagonalForm) -> Verdict:
    """Springer's residue recursion, decided in one pass over mask groups.

    Splitting at every tower variable in turn leaves, at the bottom, one
    rational residue form per monomial mask: the units of the entries
    with that mask.  The form is anisotropic exactly when all of them
    are, so one isotropic group makes it isotropic, and an unsupported
    group leaves it undetermined (UNSUPPORTED) unless an isotropic one
    settles it.  The empty form has no groups and is anisotropic.
    Entries are sorted by mask on construction, so the groups are runs.
    """
    verdict = Verdict.ANISOTROPIC
    for _, group in groupby(f.entries, key=itemgetter(1)):
        group_verdict = _rational_base_verdict([u for u, _ in group])
        if group_verdict is Verdict.ISOTROPIC:
            return group_verdict
        if group_verdict is Verdict.UNSUPPORTED:
            verdict = group_verdict
    return verdict


def form_report(f: DiagonalForm) -> dict:
    """CLI-facing document: the form together with its verdict."""
    return {"form": f.to_json(), "verdict": is_anisotropic(f).value}
