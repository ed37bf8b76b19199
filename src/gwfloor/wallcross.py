"""Wall-crossing differences, cascade extraction, and verification reports.

A wall crossing compares the enriched counts at two merge configurations
of the same size.  Vanishing is decided exactly in Q, the free ring
modulo h*x_l = h and 2<1> = 2<2> (``univ.gw_normal_form``).  Peeling the
formal variables off the normal form of the difference one at a time
(pairing label s first, then the remaining labels in ascending order)
writes

    delta = sum_q S_q * prod_{p<q} (x_{j_p} - <1>)
            + C * prod_l (x_{j_l} - <1>)

where the witnesses S_q vanish in Q whenever the counts are
merge-position independent, and the full-monomial coefficient
C = n1<1> + n2<2> carries the obstruction data: n1 + n2 vanishes by the
real-signature argument and n1 is even by the Laurent-series anisotropy
certificate.  The report's m is the one h-number Q keeps, the h-content
sum_S ch(S) of the delta: it adds up along a chain of shifts and is 0 on
every supported shift.

Reports evaluate every check as data (verdicts, not exceptions) so
sweeps over many configuration pairs never abort on a failing check.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .diagrams import (
    UnsupportedShapeError,
    enumerate_merge_configs,
    floor_count,
    floor_count_residual,
    unit_shifts,
)
from .fields import ClosedField, RealField, finite_field
from .univ import (
    TildeElement,
    UnivElement,
    cascade_decompose,
    cascade_reconstruct,
    first_term_name,
    gw_normal_form,
    residual_reduce,
    top_coefficient,
)

SCHEMA_VERSION = "gwfloor/1"

# The field sweep's finite fields, one per pair of square bits of -1 and 2,
# which is all an image over F_q depends on (q = 5, 7, 3, 1 mod 8 in turn).
SWEEP_FQ_ORDERS = (5, 7, 11, 17)


# ---------------------------------------------------------------------------
# Differences and the Pfister element
# ---------------------------------------------------------------------------


def delta_count(d: int, cfg_from, cfg_to) -> TildeElement:
    """Difference of the enriched counts at two merge configurations."""
    return _delta_count(d, tuple(cfg_from), tuple(cfg_to))


@functools.cache
def _delta_count(d: int, cfg_from: tuple[int, ...], cfg_to: tuple[int, ...]) -> TildeElement:
    """Cached per (degree, configuration pair), so it grows with the
    number of pairs compared."""
    if len(cfg_from) != len(cfg_to):
        raise ValueError(
            f"configurations pair different numbers of points: "
            f"{cfg_from} vs {cfg_to}"
        )
    return floor_count(d, cfg_from) - floor_count(d, cfg_to)


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
    """The entries of ``default_field_sweep(s)``.  Each is
    (model, assignment as (label, value) pairs, the assignment's flip mask,
    which indexes ``model.vanishing`` and is the mask ``model.evaluate``
    takes, its two possible ``FieldCheck``s indexed by the verdict:
    failing, then passing).  Each model's entries are consecutive.

    Cached per pair count s."""
    entries = []
    for model in (RealField(), *map(finite_field, SWEEP_FQ_ORDERS), ClosedField()):
        for pattern in itertools.product(model.values, repeat=s):
            assign = dict(zip(range(1, s + 1), pattern))
            flips = sum(model.flip(value) << i for i, value in enumerate(pattern))
            names = model.describe(), model.describe_assign(assign)
            verdicts = FieldCheck(*names, False), FieldCheck(*names, True)
            entries.append((model, tuple(assign.items()), flips, verdicts))
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


class FieldCheck(namedtuple("FieldCheck", "model assign ok")):
    """Whether the image in the field model named ``model`` vanishes at
    the assignment named ``assign``."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {"model": self.model, "assign": self.assign, "ok": self.ok}


class WallCrossReport(
    namedtuple(
        "WallCrossReport",
        "d cfg_from cfg_to delta coefficient witnesses n1 n2 m"
        " rank_zero broccoli parity field_checks first_witness reconstruction",
    )
):
    """All vanishing checks for one wall crossing, evaluated as data.

    ``delta`` is the ``TildeElement`` difference of the two counts,
    ``coefficient`` its cascade's full-monomial ``UnivElement`` C =
    n1<1> + n2<2>, and ``witnesses`` the tuple of its witnesses; m is the
    h-content.  ``rank_zero``, ``broccoli``, ``parity`` and
    ``reconstruction`` are bools, and ``field_checks`` a tuple of
    ``FieldCheck``.  ``first_witness`` is the first witness nonzero in Q,
    as "S_<q> <first monomial of its normal form>" with q its 1-based
    index in the cascade order, or None if there is none.
    """

    __slots__ = ()

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
        ``witnesses_zero S_<q> <monomial>`` and the first failing
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
    """Evaluate every vanishing check for the given configuration pair.

    The field images come from one ``vanishing`` pass per model of the
    sweep, which covers all of that model's assignments; each sweep entry
    then reads its prebuilt ``FieldCheck`` at its flip mask."""
    cfg_from = tuple(cfg_from)
    cfg_to = tuple(cfg_to)
    delta = delta_count(d, cfg_from, cfg_to)
    s = len(cfg_from)
    order = proof_cascade_order(s)
    normal = gw_normal_form(delta)
    coefficient, witnesses = extract_universal_coefficient(normal, order)

    field_checks = []
    model = zero = None
    for entry_model, _, flips, verdicts in _sweep(s):
        if entry_model is not model:
            model = entry_model
            zero = model.vanishing(delta.coeffs, s)
        field_checks.append(verdicts[zero[flips]])

    first_witness = next(
        (f"S_{q} {first_term_name(w)}" for q, w in enumerate(map(gw_normal_form, witnesses), 1) if w.coeffs),
        None,
    )
    reconstruction = cascade_reconstruct(list(witnesses), coefficient, order, s) == normal

    return WallCrossReport(
        d=d,
        cfg_from=cfg_from,
        cfg_to=cfg_to,
        delta=delta,
        coefficient=coefficient,
        witnesses=witnesses,
        n1=coefficient.c1,
        n2=coefficient.c2,
        m=sum(v.ch for v in delta.coeffs.values()),
        rank_zero=delta.rank == 0,
        broccoli=coefficient.c1 + coefficient.c2 == 0,
        parity=coefficient.c1 % 2 == 0,
        field_checks=tuple(field_checks),
        first_witness=first_witness,
        reconstruction=reconstruction,
    )


# ---------------------------------------------------------------------------
# Residual-ring report
# ---------------------------------------------------------------------------


class TransferCheck(namedtuple("TransferCheck", "target_from target_to lhs rhs")):
    """One instance of the mod-2 transfer congruence after dissolution.

    lhs is the <1>-parity of the source top coefficient (s pairs); rhs is
    the eps-parity of the target top coefficient (s-1 pairs).  The
    congruence asserts lhs == rhs; the stronger expected outcome is that
    both sides vanish.
    """

    __slots__ = ()

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


class ResidualReport(
    namedtuple(
        "ResidualReport",
        "d cfg_from cfg_to residual_delta top base_zero transfers unsupported",
        defaults=((),),
    )
):
    """Mod-2 data of a wall crossing in the quotient ring.

    The residual image is computed along an independent mod-2 pipeline
    (per-factor residual tables) and must agree with the reduction of the
    integral difference; construction asserts that agreement.

    ``residual_delta`` is that image, a ``ResidualTilde``, and ``top`` its
    full-monomial ``ResidualElement``; ``base_zero`` is a bool at s = 1
    and None otherwise.  ``transfers`` is a tuple of ``TransferCheck``,
    and ``unsupported`` the transfer targets, as (from, to) pairs, whose
    counts are unsupported and so are left out of ``transfers``.
    """

    __slots__ = ()

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
    """Unordered unit-shift pairs at the given level, sorted, as a fresh
    list."""
    pairs = []
    for cfg in enumerate_merge_configs(n, s):
        for other in unit_shifts(cfg, n):
            if cfg < other:
                pairs.append((cfg, other))
    return sorted(pairs)


@functools.cache
def transfer_targets(d: int, s: int):
    """The transfer checks of level (d, s) and its unsupported pairs.

    Each supported unit-shift pair with s pairs at degree d, in
    ``unit_shift_pairs`` order, is the target of one ``TransferCheck``
    whose rhs is the <2>-parity of its delta's top coefficient: the
    right side of the transfer congruence for every source with s + 1
    pairs.  The first item holds those checks for a source whose
    <1>-parity is 0, then for parity 1; the second, the pairs whose
    counts raise ``UnsupportedShapeError``.

    Cached per level (d, s)."""
    targets = []
    unsupported = []
    for pair in unit_shift_pairs(3 * d - 1, s):
        try:
            # top_coefficient is linear: read the <2>-coordinate of the
            # target's delta from the two counts, without the delta
            n2_from, n2_to = (top_coefficient(floor_count(d, cfg)).c2 for cfg in pair)
        except UnsupportedShapeError:
            unsupported.append(pair)
            continue
        targets.append((*pair, (n2_from - n2_to) % 2))
    by_parity = tuple(
        tuple(TransferCheck(cfg_from, cfg_to, lhs, rhs) for cfg_from, cfg_to, rhs in targets)
        for lhs in (0, 1)
    )
    return by_parity, tuple(unsupported)


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

    top = top_coefficient(residual_delta)
    if top != residual_reduce(top_coefficient(delta)):
        raise AssertionError(
            "residual top coefficient disagrees with the reduced coefficient"
        )

    base_zero = (top.a == 0) if s == 1 else None

    transfers = unsupported = ()
    if s >= 2:
        by_parity, unsupported = transfer_targets(d, s - 1)
        transfers = by_parity[top.a]

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
