"""Wall-crossing differences, cascade extraction, and verification reports.

A wall crossing compares the enriched counts at two merge configurations
of the same size.  Peeling the formal variables off the difference one at
a time (pairing label s first, then the remaining labels in ascending
order) writes

    delta = sum_q S_q * prod_{p<q} (x_{j_p} - <1>)
            + C * prod_l (x_{j_l} - <1>)

where the witnesses S_q vanish in every field model whenever the counts
are merge-position independent, and the full-monomial coefficient
C = n1<1> + n2<2> + m*h carries the obstruction data: n1 + n2 vanishes
by the real-signature argument and n1 is even by the Laurent-series
anisotropy certificate.

Reports evaluate every check as data (verdicts, not exceptions) so
sweeps over many configuration pairs never abort on a failing check.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .diagrams import (
    UnsupportedShapeError,
    enumerate_merge_configs,
    floor_count,
    floor_count_residual,
    unit_shifts,
)
from .fields import ClosedField, RealField, finite_field
from .univ import (
    UNIV_ONE,
    UNIV_TWO,
    ResidualElement,
    ResidualTilde,
    TildeElement,
    UnivElement,
    cascade_decompose,
    cascade_reconstruct,
    residual_reduce,
    top_coefficient,
    univ_coords,
)

SCHEMA_VERSION = "gwfloor/1"

# One order per pair of square bits of -1 and 2: the image of a class over
# F_q depends on nothing else (q = 5, 7, 3, 1 mod 8 in turn).  Both the
# field sweep and the witness check evaluate over these fields.
SWEEP_FQ_ORDERS = (5, 7, 11, 17)

# The models of every sweep, built once.
_REAL = RealField()
_SWEEP_FQ = tuple(map(finite_field, SWEEP_FQ_ORDERS))
_CLOSED = ClosedField()


# ---------------------------------------------------------------------------
# Differences and the Pfister element
# ---------------------------------------------------------------------------


def delta_count(d: int, cfg_from, cfg_to) -> TildeElement:
    """Difference of the enriched counts at two merge configurations."""
    cfg_from = tuple(cfg_from)
    cfg_to = tuple(cfg_to)
    if len(cfg_from) != len(cfg_to):
        raise ValueError(
            f"configurations pair different numbers of points: "
            f"{cfg_from} vs {cfg_to}"
        )
    return floor_count(d, cfg_from) - floor_count(d, cfg_to)


def pfister_element(s: int) -> TildeElement:
    """The 2-torsion product (<1> - <2>) * prod_l (<1> - x_l) on s variables."""
    if s < 0:
        raise ValueError(f"variable count must be nonnegative, got {s}")
    out = TildeElement.constant(UNIV_ONE - UNIV_TWO, s)
    one = TildeElement.constant(UNIV_ONE, s)
    for label in range(1, s + 1):
        out = out * (one - TildeElement.variable(label, s))
    return out


def proof_cascade_order(s: int) -> list[int]:
    """Witness-extraction order: the pairing label s first, then 1..s-1."""
    if s <= 0:
        return []
    return [s, *range(1, s)]


def extract_universal_coefficient(
    delta: TildeElement, order=None
) -> tuple[UnivElement, tuple[TildeElement, ...]]:
    """Split off the full-monomial coefficient together with its witnesses.

    The coefficient is independent of the peeling order; the witnesses
    are reproducible because the default order is fixed.
    """
    if order is None:
        order = proof_cascade_order(delta.nvars)
    witnesses, full = cascade_decompose(delta, order)
    return full, tuple(witnesses)


# ---------------------------------------------------------------------------
# Field sweeps
# ---------------------------------------------------------------------------


@functools.cache
def _sweep(s: int) -> tuple[tuple, ...]:
    """The entries of ``default_field_sweep(s)``, built once per s.  Each is
    (model, assignment as (label, value) pairs, the assignment's flip mask
    for ``model.evaluate``, model name, assignment name)."""
    entries = []
    for model in (_REAL, *_SWEEP_FQ, _CLOSED):
        for pattern in itertools.product(model.values, repeat=s):
            assign = dict(zip(range(1, s + 1), pattern))
            flips = sum(model.flip(value) << i for i, value in enumerate(pattern))
            entries.append(
                (model, tuple(assign.items()), flips, model.describe(), model.describe_assign(assign))
            )
    return tuple(entries)


def default_field_sweep(s: int) -> list[tuple[object, dict]]:
    """Deterministic sweep: real signs, finite fields, closed rank check.

    Real patterns run over all 2^s sign choices; each finite-field model
    runs over all 2^s square/non-square choices; the closed model needs a
    single assignment since every unit is a square there.
    """
    return [(model, dict(assign)) for model, assign, *_ in _sweep(s)]


# ---------------------------------------------------------------------------
# Wall-crossing report
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FieldCheck:
    model: str
    assign: str
    ok: bool

    def to_json(self) -> dict:
        return {"model": self.model, "assign": self.assign, "ok": self.ok}


@dataclass(frozen=True, slots=True)
class WallCrossReport:
    """All vanishing checks for one wall crossing, evaluated as data."""

    d: int
    cfg_from: tuple[int, ...]
    cfg_to: tuple[int, ...]
    delta: TildeElement
    coefficient: UnivElement
    witnesses: tuple[TildeElement, ...]
    n1: int
    n2: int
    m: int
    rank_zero: bool
    broccoli: bool
    parity: bool
    field_checks: tuple[FieldCheck, ...]
    # the first witness with a nonzero image, as "S_<q> <model> <assignment>"
    # with q its 1-based index in the cascade order; None when all vanish
    first_witness: str | None
    reconstruction: bool

    @property
    def s(self) -> int:
        return len(self.cfg_from)

    @property
    def witnesses_zero(self) -> bool:
        return self.first_witness is None

    def verdicts(self) -> dict[str, bool]:
        """The report's named yes/no checks, in report order; the field
        images are the per-model ``field_checks``."""
        return {
            "rank_zero": self.rank_zero,
            "broccoli": self.broccoli,
            "parity": self.parity,
            "witnesses_zero": self.witnesses_zero,
            "reconstruction": self.reconstruction,
        }

    @property
    def passed(self) -> bool:
        return not self.failed_checks()

    def failed_checks(self) -> list[str]:
        """Names of the failing checks, the first non-vanishing witness as
        ``witnesses_zero S_<q> <model> <assignment>`` and the first failing
        field image as ``field_zero <model> <assignment>``; empty when the
        report passes."""
        failed = [name for name, ok in self.verdicts().items() if not ok]
        if not self.witnesses_zero:
            failed[failed.index("witnesses_zero")] += f" {self.first_witness}"
        bad = next((c for c in self.field_checks if not c.ok), None)
        if bad is not None:
            failed.append(f"field_zero {bad.model} {bad.assign}".rstrip())
        return failed

    def to_json(self) -> dict:
        checks = self.verdicts()
        checks["field_zero"] = [c.to_json() for c in self.field_checks]
        return {
            "schema": SCHEMA_VERSION,
            "d": self.d,
            "s": self.s,
            "from": list(self.cfg_from),
            "to": list(self.cfg_to),
            "n1": self.n1,
            "n2": self.n2,
            "m": self.m,
            "checks": checks,
            "passed": self.passed,
        }


def wallcross_report(d: int, cfg_from, cfg_to) -> WallCrossReport:
    """Evaluate every vanishing check for the given configuration pair."""
    cfg_from = tuple(cfg_from)
    cfg_to = tuple(cfg_to)
    delta = delta_count(d, cfg_from, cfg_to)
    s = len(cfg_from)
    order = proof_cascade_order(s)
    coefficient, witnesses = extract_universal_coefficient(delta, order)
    n1, n2, m = univ_coords(coefficient)

    # Every sweep assigns all s variables, so the models evaluate the
    # coefficients directly.
    field_checks = tuple(
        FieldCheck(model_name, assign_name, model.evaluate(delta.coeffs, flips).is_zero())
        for model, _, flips, model_name, assign_name in _sweep(s)
    )

    # All 2^s square/nonsquare assignments are the flip masks below 2^s,
    # bit l - 1 the square bit of label l.
    first_witness = next(
        (
            f"S_{q} {model.describe()} "
            + model.describe_assign({l: flips >> (l - 1) & 1 for l in range(1, s + 1)})
            for q, w in enumerate(witnesses, start=1)
            for model in _SWEEP_FQ
            for flips in range(1 << s)
            if not model.evaluate(w.coeffs, flips).is_zero()
        ),
        None,
    )
    reconstruction = (
        cascade_reconstruct(list(witnesses), coefficient, order, s) == delta
    )

    return WallCrossReport(
        d=d,
        cfg_from=cfg_from,
        cfg_to=cfg_to,
        delta=delta,
        coefficient=coefficient,
        witnesses=witnesses,
        n1=n1,
        n2=n2,
        m=m,
        rank_zero=delta.rank == 0,
        broccoli=n1 + n2 == 0,
        parity=n1 % 2 == 0,
        field_checks=field_checks,
        first_witness=first_witness,
        reconstruction=reconstruction,
    )


# ---------------------------------------------------------------------------
# Residual-ring report
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TransferCheck:
    """One instance of the mod-2 transfer congruence after dissolution.

    lhs is the <1>-parity of the source top coefficient (s pairs); rhs is
    the eps-parity of the target top coefficient (s-1 pairs).  The
    congruence asserts lhs == rhs; the stronger expected outcome is that
    both sides vanish.
    """

    target_from: tuple[int, ...]
    target_to: tuple[int, ...]
    lhs: int
    rhs: int

    @property
    def congruent(self) -> bool:
        return self.lhs == self.rhs

    @property
    def both_zero(self) -> bool:
        return self.lhs == 0 and self.rhs == 0

    def to_json(self) -> dict:
        return {
            "target_from": list(self.target_from),
            "target_to": list(self.target_to),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "congruent": self.congruent,
            "both_zero": self.both_zero,
        }


@dataclass(frozen=True, slots=True)
class ResidualReport:
    """Mod-2 data of a wall crossing in the quotient ring.

    The residual image is computed along an independent mod-2 pipeline
    (per-factor residual tables) and must agree with the reduction of the
    integral difference; construction asserts that agreement.
    """

    d: int
    cfg_from: tuple[int, ...]
    cfg_to: tuple[int, ...]
    residual_delta: ResidualTilde
    top: ResidualElement
    base_zero: bool | None
    transfers: tuple[TransferCheck, ...]
    # transfer targets whose counts are unsupported, left out of transfers
    unsupported: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()

    @property
    def s(self) -> int:
        return len(self.cfg_from)

    @property
    def passed(self) -> bool:
        base_ok = True if self.base_zero is None else self.base_zero
        return base_ok and all(t.both_zero for t in self.transfers)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "d": self.d,
            "s": self.s,
            "from": list(self.cfg_from),
            "to": list(self.cfg_to),
            "residual": [
                {"vars": list(labels), "one": val.a, "eps": val.b}
                for labels, val in self.residual_delta.terms()
            ],
            "top": {"one": self.top.a, "eps": self.top.b},
            "base_zero": self.base_zero,
            "transfers": [t.to_json() for t in self.transfers],
            "passed": self.passed,
        }


def unit_shift_pairs(n: int, s: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Unordered unit-shift pairs at the given level, in a stable order."""
    return list(_unit_shift_pairs(n, s))


@functools.cache
def _unit_shift_pairs(n: int, s: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    pairs = []
    for cfg in enumerate_merge_configs(n, s):
        for other in unit_shifts(cfg, n):
            if cfg < other:
                pairs.append((cfg, other))
    return tuple(sorted(pairs))


@functools.cache
def _transfer_targets(d: int, s: int):
    """Each supported unit-shift pair with s pairs at degree d, with the
    <2>-parity of its delta's top coefficient: the right side of the
    transfer congruence for every source with s + 1 pairs.  The pairs whose
    counts raise ``UnsupportedShapeError`` are set aside and returned as
    the second item."""
    targets = []
    unsupported = []
    for pair in _unit_shift_pairs(3 * d - 1, s):
        try:
            # top_coefficient is linear: read the <2>-coordinate of the
            # target's delta from the two counts, without the delta
            n2_from, n2_to = (top_coefficient(floor_count(d, cfg)).c2 for cfg in pair)
        except UnsupportedShapeError:
            unsupported.append(pair)
            continue
        targets.append((*pair, (n2_from - n2_to) % 2))
    return tuple(targets), tuple(unsupported)


def residual_report(d: int, cfg_from, cfg_to) -> ResidualReport:
    """Mod-2 analysis of one wall crossing.

    For a single pair (s = 1) the verdict records whether the <1>-parity
    of the top coefficient vanishes.  For s >= 2 the transfer congruence
    is evaluated against every unit-shift pair of the problem with one
    pair dissolved; an unsupported target is set aside in ``unsupported``
    and checks nothing.
    """
    cfg_from = tuple(cfg_from)
    cfg_to = tuple(cfg_to)
    s = len(cfg_from)

    delta = delta_count(d, cfg_from, cfg_to)
    residual_delta = floor_count_residual(d, cfg_from) - floor_count_residual(
        d, cfg_to
    )
    if residual_delta != residual_reduce(delta):
        raise AssertionError(
            "independent mod-2 pipeline disagrees with the reduced difference"
        )

    top = residual_delta.coefficient(range(1, s + 1))
    if top != residual_reduce(top_coefficient(delta)):
        raise AssertionError(
            "residual top coefficient disagrees with the reduced coefficient"
        )

    base_zero = (top.a == 0) if s == 1 else None

    transfers = unsupported = ()
    if s >= 2:
        targets, unsupported = _transfer_targets(d, s - 1)
        transfers = tuple(
            TransferCheck(target_from, target_to, top.a, rhs)
            for target_from, target_to, rhs in targets
        )

    return ResidualReport(
        d=d,
        cfg_from=cfg_from,
        cfg_to=cfg_to,
        residual_delta=residual_delta,
        top=top,
        base_zero=base_zero,
        transfers=transfers,
        unsupported=unsupported,
    )
