"""Anisotropy certificates over iterated Laurent-series towers.

Forms are diagonal with entries u * m where u is +-1 or +-2 (up to a
rational square, reduced away on construction) and m is a squarefree
monomial in the tower variables u_1..u_s.  Over the tower
Q((u_1))..((u_s)) a form splits at the outermost variable into a unit
part and a uniformizer part, and it is anisotropic exactly when both
residue forms are; iterating strips one variable per level and reduces
every question to small rational forms.

Verdicts are data: forms whose rational base cases fall outside the
supported shapes (indefinite of rank >= 3) report UNSUPPORTED rather
than raising, so sweeps over generated forms never abort.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .intmath import squarefree_split


class Verdict(Enum):
    ANISOTROPIC = "aniso"
    ISOTROPIC = "iso"
    UNSUPPORTED = "unsupported"


def _reduce_unit(value: int) -> int:
    """Strip the square part of a nonzero integer; require class +-1, +-2."""
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
            self, "entries", tuple(sorted(clean, key=lambda e: (e[1], e[0])))
        )

    @property
    def rank(self) -> int:
        return len(self.entries)

    def restrict_variables(self, nvars: int) -> "DiagonalForm":
        """Reinterpret the form over a smaller tower; all entries must fit."""
        return DiagonalForm(nvars, self.entries)

    def to_json(self) -> list:
        return [
            [unit, [l for l in range(1, self.nvars + 1) if bits >> (l - 1) & 1]]
            for unit, bits in self.entries
        ]


def negate(f: DiagonalForm) -> DiagonalForm:
    return DiagonalForm(f.nvars, tuple((-u, b) for u, b in f.entries))


def pfister_concrete(s: int) -> DiagonalForm:
    """Diagonal expansion of <1,-2> tensored with <1,-u_l> for l = 1..s."""
    if s < 0:
        raise ValueError(f"variable count must be nonnegative, got {s}")
    entries: list[tuple[int, int]] = [(1, 0), (-2, 0)]
    for label in range(1, s + 1):
        bit = 1 << (label - 1)
        entries = entries + [(-u, b | bit) for u, b in entries]
    return DiagonalForm(s, tuple(entries))


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
    return DiagonalForm(f.nvars, unit_part), DiagonalForm(f.nvars, uniformizer_part)


def _rational_base_verdict(entries: tuple) -> Verdict:
    """Verdict over Q for reduced entries that carry no tower variable."""
    units = [u for u, _ in entries]
    if len(units) == 1:
        return Verdict.ANISOTROPIC
    if all(u > 0 for u in units) or all(u < 0 for u in units):
        # Definite forms have no real zero, hence no rational one.
        return Verdict.ANISOTROPIC
    if len(units) == 2:
        a, b = units
        core, _ = squarefree_split(-a * b)
        return Verdict.ISOTROPIC if core == 1 else Verdict.ANISOTROPIC
    return Verdict.UNSUPPORTED


def is_anisotropic(f: DiagonalForm) -> Verdict:
    """Recursion on the highest tower variable present.

    A form over a Laurent level is anisotropic exactly when both of its
    residue forms are; an isotropic residue makes the whole form
    isotropic, and an unsupported rational base leaves the verdict
    undetermined (UNSUPPORTED) unless an isotropic part settles it.
    The form's entries were validated on construction, so the recursion
    runs on bare entry tuples.
    """
    return _verdict(f.entries)


def _verdict(entries: tuple) -> Verdict:
    if not entries:
        # The empty form has no nonzero vector at all.
        return Verdict.ANISOTROPIC
    top = max(bits for _, bits in entries)
    if top == 0:
        return _rational_base_verdict(entries)
    unit_part, uniformizer_part = _split(entries, 1 << (top.bit_length() - 1))
    left = _verdict(unit_part)
    right = _verdict(uniformizer_part)
    if Verdict.ISOTROPIC in (left, right):
        return Verdict.ISOTROPIC
    if Verdict.UNSUPPORTED in (left, right):
        return Verdict.UNSUPPORTED
    return Verdict.ANISOTROPIC


def form_report(f: DiagonalForm) -> dict:
    """CLI-facing document: the form together with its verdict."""
    return {"form": f.to_json(), "verdict": is_anisotropic(f).value}
