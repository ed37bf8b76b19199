"""Verification suites backing the ``verify`` command.

Each suite bundles related checks into individually named verdicts:

- ``identities``: closed-form product identities for weights 1..60,
  multiplied in the plain group ring of square classes and compared
  after one hyperbolic reduction (the type-A product also against the
  factor the counts multiply), plus the finite-field ring laws and the
  2-torsion of the Pfister element.
- ``counts``: the rank oracle against the classical recursion, the
  degree-3 anchor value, signature invariance across merge positions
  at the tabulated Welschinger invariant, and the worked local-factor
  anchor values.
- ``dissolution``: agreement in the Grothendieck-Witt quotient of
  parameter specialisation with the count at the dissolved configuration.
- ``wallcross``: full vanishing reports for every level (d, s) with a
  unit shift, plus connectivity of the merge-configuration graph.
- ``residual``: the mod-2 factor table along two independent pipelines,
  then the base case and the transfer congruence of those levels.
- ``springer``: anisotropy certificates over the Laurent tower.
- ``all``: everything above, in that order.

Checks never abort a sweep: a crash inside one check is reported as a
failing verdict, and an unsupported configuration is never a pass (see
``_supported``).  Results carry wall-clock times for interactive use
but serialise without them so repeated runs are byte-identical.  The
scripts under ``scripts/`` run these checks over wider ranges, built by
the same public level builders and run by ``run_checks``.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from time import perf_counter

from . import local_factors as lf
from .diagrams import (
    MAX_DEGREE,
    UnsupportedShapeError,
    dissolved_config,
    enumerate_merge_configs,
    floor_count,
    graph_connected,
    kontsevich_nd,
    unit_shift_graph,
)
from .fields import FqClass, RealField, finite_field, specialize_field
from .group_ring import (
    GroupRingElement,
    carrier_for,
    elevator_square_closed_raw,
    gamma_hat_raw,
    hyperbolic_reduce,
    m_a1_raw,
    to_univ,
    type_a_closed_raw,
)
from .springer import (
    DiagonalForm,
    Verdict,
    is_anisotropic,
    negate,
    pfister_concrete,
    springer_split,
)
from .univ import (
    UNIV_H,
    UNIV_MINUS_ONE,
    UNIV_ONE,
    UNIV_TWO,
    TildeElement,
    UnivElement,
    first_term_name,
    gw_normal_form,
    pfister_element,
    residual_reduce,
)
from .wallcross import (
    SCHEMA_VERSION,
    residual_report,
    transfer_targets,
    unit_shift_pairs,
    wallcross_report,
)

# The degrees at which the wallcross and residual suites gate every level
# that has a unit shift.
SHIFT_DEGREES = (2, 3)
GW_LAW_ORDERS = (5, 7, 11, 13, 17)
MAX_IDENTITY_WEIGHT = 60
MAX_RESIDUAL_WEIGHT = 40
MAX_GRAPH_POINTS = 12

# One carrier for every identity check: the symbols of weight m <= 60 use
# only odd primes up to 60, and the formal class d is its top bit.
_CARRIER = carrier_for(MAX_IDENTITY_WEIGHT, ("d",))

# Welschinger invariants W_{d,s} of the projective plane: rational curves
# of degree d through 3d - 1 - 2s real points and s pairs of complex
# conjugate points, counted with Welschinger signs (Itenberg-Kharlamov-
# Shustin; Arroyo-Brugallé-López de Medrano).  WELSCHINGER[d][s] is the
# real signature of the count with every pair parameter negative.
WELSCHINGER = {
    1: (1, 1),
    2: (1, 1, 1),
    3: (8, 6, 4, 2, 0),
    4: (240, 144, 80, 40, 16, 0),
}


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


class CheckResult(namedtuple("CheckResult", "check_id passed detail elapsed", defaults=("", 0.0))):
    """One named verdict, with its detail text and its wall-clock time in
    seconds."""

    __slots__ = ()

    def to_json(self) -> dict:
        # Elapsed time is deliberately left out: suite output must be
        # byte-identical across runs.
        return {"id": self.check_id, "ok": self.passed, "detail": self.detail}

    def line(self) -> str:
        """One table row: the verdict, the id and the detail."""
        detail = f" -- {self.detail}" if self.detail else ""
        return f"  {'ok  ' if self.passed else 'FAIL'} {self.check_id}{detail}"


class SuiteResult(namedtuple("SuiteResult", "suite checks")):
    """The ``CheckResult`` tuple of one suite."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _supported(fn, items, noun, name=str):
    """Map ``fn`` over the items that raise no ``UnsupportedShapeError``.

    Returns those results and a note for the check's detail that tallies
    and names the other items, never counted as passes ("" if none).  If
    no item is supported, the note is raised, so the check fails; with
    no items at all, it reads "no <noun>".
    """
    results = {}
    unsupported = []
    for item in items:
        try:
            results[item] = fn(item)
        except UnsupportedShapeError:
            unsupported.append(name(item))
    note = f"{len(unsupported)} unsupported: {', '.join(unsupported)}" if unsupported else ""
    if not results:
        raise UnsupportedShapeError(note or f"no {noun}")
    return results, note and f"; {note}"


def _shift_name(pair) -> str:
    return f"{pair[0]} -> {pair[1]}"


# ---------------------------------------------------------------------------
# Identity checks
# ---------------------------------------------------------------------------


def _same(lhs_name: str, lhs, rhs_name: str, rhs):
    """The verdict lhs == rhs, with a detail naming both values if not."""
    if lhs == rhs:
        return True, ""
    return False, f"{lhs_name} {lhs!r} differs from {rhs_name} {rhs!r}"


def _check_type_a_product(m: int):
    """In the hyperbolic quotient, the raw product gamma_hat * m_a1 at the
    parameter class d equals its closed form in the carrier and
    ``type_a_factor(m, 1, 1)``, the factor the counts multiply, embedded
    with x_1 as <d> and h as <1> + <-1>."""
    raw = hyperbolic_reduce(gamma_hat_raw(m, _CARRIER, "d") * m_a1_raw(m, _CARRIER))
    closed = hyperbolic_reduce(type_a_closed_raw(m, _CARRIER, "d"))
    if raw != closed:
        return _same("raw product", raw, "its closed form", closed)
    two, d = _CARRIER.bit("2"), _CARRIER.bit("d")
    factor = lf.type_a_factor(m, 1, 1)
    image = GroupRingElement(_CARRIER)
    for key, v in factor.coeffs.items():
        at = d * key
        image += GroupRingElement(_CARRIER, {at: v.c1 + v.ch, at ^ 1: v.ch, at ^ two: v.c2})
    if hyperbolic_reduce(image) != raw:
        return False, f"type_a_factor {factor!r} differs from the raw product {raw!r}"
    return True, ""


def _check_square_field(m: int):
    gamma = hyperbolic_reduce(gamma_hat_raw(m, _CARRIER, None))
    return _same("gamma_hat", gamma, "m_a1", hyperbolic_reduce(m_a1_raw(m, _CARRIER)))


def _check_elevator_square(m: int):
    square = hyperbolic_reduce(m_a1_raw(m, _CARRIER) * m_a1_raw(m, _CARRIER))
    closed = hyperbolic_reduce(elevator_square_closed_raw(m, _CARRIER))
    if square != closed:
        return _same("raw square", square, "its closed form", closed)
    return _same("raw square", to_univ(square), "elevator_square", lf.elevator_square(m))


def _check_universal_square_product(m: int):
    product = hyperbolic_reduce(gamma_hat_raw(m, _CARRIER, None) * m_a1_raw(m, _CARRIER))
    return _same("raw product", to_univ(product), "elevator_square", lf.elevator_square(m))


def _check_gw_laws(q: int):
    model = finite_field(q)
    h = specialize_field(UNIV_H, model)
    one = FqClass(1, 0)
    two = specialize_field(UNIV_TWO, model)
    zero = FqClass(0, 0)
    if h * h != h + h:
        return False, "h*h != 2h"
    for bit in (0, 1):
        a = FqClass(1, bit)
        if h * a != h:
            return False, f"h<a> != h for square bit {bit}"
        if h * (a - one) != zero:
            return False, f"h(<d>-<1>) != 0 for square bit {bit}"
        torsion = (a - two * a) + (a - two * a)
        if torsion != zero:
            return False, f"2(<a>-<2a>) != 0 for square bit {bit}"
    return True, ""


def _check_pfister_torsion(q: int, s: int):
    model = finite_field(q)
    element = pfister_element(s)
    doubled = element + element
    # Doubling makes every coordinate even, so the image has discriminant 0
    # and a rank that no assignment moves: the all-square one decides.
    if not model.evaluate(doubled.coeffs, 0).is_zero():
        assign = dict.fromkeys(range(1, s + 1), 0)
        return False, f"nonzero at {model.describe()} {model.describe_assign(assign)}".rstrip()
    return True, ""


# ---------------------------------------------------------------------------
# Count checks
# ---------------------------------------------------------------------------


def _check_rank_oracle(d: int, s: int):
    expected = kontsevich_nd(d)
    ranks, unsupported = _supported(
        lambda cfg: floor_count(d, cfg).rank, enumerate_merge_configs(3 * d - 1, s), "configurations"
    )
    for cfg, r in ranks.items():
        if r != expected:
            return False, f"cfg {cfg}: rank {r} != {expected}{unsupported}"
    return True, f"{len(ranks)} configurations at rank {expected}{unsupported}"


def _check_count_anchor():
    c = floor_count(3, ())
    expected = TildeElement.constant(UnivElement(8, 2, 0), 0)
    sig = specialize_field(c, RealField(), {}).sig
    ok = c == expected and c.rank == 12 and sig == 8
    return ok, f"value {c}, signature {sig}"


def _all_negative_signature(d: int, cfg: tuple[int, ...]) -> int:
    # every variable negative: all flip bits set
    return RealField().evaluate(floor_count(d, cfg).coeffs, (1 << len(cfg)) - 1).sig


def _check_signature_invariance(d: int, s: int):
    sigs, unsupported = _supported(
        lambda cfg: _all_negative_signature(d, cfg), enumerate_merge_configs(3 * d - 1, s), "configurations"
    )
    values = sorted(set(sigs.values()))
    if len(values) != 1:
        return False, f"signatures differ across configurations: {values}{unsupported}"
    expected = WELSCHINGER[d][s]
    if values[0] != expected:
        return False, f"expected Welschinger invariant {expected}, got signature {values[0]}{unsupported}"
    return True, f"common signature {values[0]}{unsupported}"


def _check_anchor_type_a_m3():
    got = lf.type_a_factor(3, 1, 1)
    expected = TildeElement(
        1,
        {
            frozenset(): UNIV_ONE + UNIV_TWO + 3 * UNIV_H,
            frozenset({1}): UNIV_H - UNIV_TWO,
        },
    )
    return got == expected, f"value {got}"


def _check_anchor_twin_t1():
    desc = lf.TwinTreeDescriptor(t=1, m_circ=2, labels=(1,), bounded_edges=())
    got = lf.twin_tree_factor(desc, 1)
    return got == TildeElement.constant(UNIV_ONE, 1), f"value {got}"


def _check_anchor_twin_t2():
    desc = lf.TwinTreeDescriptor(t=2, m_circ=1, labels=(1, 2), bounded_edges=((1, 1),))
    got = lf.twin_tree_factor(desc, 2)
    expected = TildeElement(
        2, {frozenset({1}): UNIV_TWO, frozenset({2}): UNIV_TWO}
    )
    return got == expected, f"value {got}"


def _check_anchor_twin_t3():
    desc = lf.TwinTreeDescriptor(
        t=7, m_circ=3, labels=tuple(range(1, 8)), bounded_edges=((2, 1),)
    )
    got = lf.twin_tree_factor(desc, 7)
    edge = TildeElement(
        7,
        {
            frozenset(): 2 * UNIV_ONE + 6 * UNIV_H,
            frozenset({1}): 2 * UNIV_MINUS_ONE,
        },
    )
    parity_sum = TildeElement(
        7,
        {
            frozenset(subset): UNIV_ONE
            for size in (1, 3, 5, 7)
            for subset in itertools.combinations(range(1, 8), size)
        },
    )
    return _same("value", got, "edge * parity_sum", edge * parity_sum)


def _check_anchor_crossing_product():
    twin = lf.twin_tree_factor(
        lf.TwinTreeDescriptor(t=2, m_circ=1, labels=(1, 2), bounded_edges=((1, 1),)),
        4,
    )
    got = twin * lf.type_r_factor(4, 4)
    expected = TildeElement(
        4,
        {
            frozenset({1}): UNIV_ONE,
            frozenset({2}): UNIV_ONE,
            frozenset({1, 4}): UNIV_ONE,
            frozenset({2, 4}): UNIV_ONE,
        },
    )
    return got == expected, f"value {got}"


# ---------------------------------------------------------------------------
# Dissolution checks
# ---------------------------------------------------------------------------


def _check_dissolution(d: int, cfg: tuple[int, ...], j: int):
    lhs = floor_count(d, cfg).specialize_one(j)
    diff = gw_normal_form(lhs - floor_count(d, dissolved_config(cfg, j)))
    return diff.is_zero(), "" if diff.is_zero() else f"normal forms differ at {first_term_name(diff)}"


# ---------------------------------------------------------------------------
# Wall-crossing checks
# ---------------------------------------------------------------------------


def _check_wallcross_level(d: int, s: int):
    failures, unsupported = _supported(
        lambda pair: wallcross_report(d, *pair).failed_checks(),
        unit_shift_pairs(3 * d - 1, s),
        "unit shifts",
        _shift_name,
    )
    failing = [(pair, failed) for pair, failed in failures.items() if failed]
    if failing:
        pair, failed = failing[0]
        return False, (
            f"{len(failing)} of {len(failures)} unit shifts failed; "
            f"first {_shift_name(pair)}: failed {failed}{unsupported}"
        )
    return True, f"{len(failures)} unit shifts{unsupported}"


def _check_graph_connected(n: int, s: int):
    configs = enumerate_merge_configs(n, s)
    graph = unit_shift_graph(configs, n)
    return graph_connected(graph), f"{len(configs)} configurations"


# ---------------------------------------------------------------------------
# Residual checks
# ---------------------------------------------------------------------------


def _check_residual_factors(m: int):
    keys = [
        ("square", m),
        ("A", m, 1),
        ("R", 1),
        ("tree", 2, 0, (1, 2), ((m, 1),)),  # one bounded twin edge of weight m
    ]
    # over two variables, so the table also meets a label no factor carries
    return _residual_keys_agree((key, 2) for key in keys)


def _check_residual_twin_trees():
    keys = [
        ("tree", 1, 2, (1,), ()),
        ("tree", 2, 1, (1, 2), ((1, 1),)),
        ("tree", 2, 2, (1, 2), ((2, 2),)),
        ("tree", 3, 1, (1, 2, 3), ((1, 1), (3, 2))),
        ("tree", 3, 2, (1, 2, 3), ((1, 3),)),
    ]
    return _residual_keys_agree((key, max(key[3])) for key in keys)


def _residual_keys_agree(pairs):
    """Whether the mod-2 factor table equals the residue of the exact one
    on every (factor key, nvars) pair; names the first key that differs."""
    for key, nvars in pairs:
        if lf.residual_factor(key, nvars) != residual_reduce(lf.factor_value(key, nvars)):
            return False, f"pipelines disagree on {key}"
    return True, ""


def _check_residual(d: int, cfg_from: tuple[int, ...], cfg_to: tuple[int, ...]):
    """The one-pair base case at s = 1, the transfer congruence above it."""
    report = residual_report(d, cfg_from, cfg_to)
    if report.s == 1:
        return report.base_zero, f"top coefficient {report.top!r}"
    ok = bool(report.transfers) and report.passed
    detail = f"{len(report.transfers)} dissolved targets"
    if report.unsupported:
        names = ", ".join(map(_shift_name, report.unsupported))
        detail += f"; {len(report.unsupported)} unsupported: {names}"
    return ok, detail


# ---------------------------------------------------------------------------
# Springer checks
# ---------------------------------------------------------------------------


def _check_pfister_aniso(s: int):
    form = pfister_concrete(s)
    if is_anisotropic(form) is not Verdict.ANISOTROPIC:
        return False, "form not certified anisotropic"
    if s >= 1:
        unit_part, uniformizer_part = springer_split(form, s)
        previous = pfister_concrete(s - 1)
        residues_ok = (
            unit_part.restrict_variables(s - 1) == previous
            and uniformizer_part.restrict_variables(s - 1) == negate(previous)
        )
        if not residues_ok:
            return False, "residue forms are not +-(previous level)"
    return True, f"rank {form.rank}"


def _check_hyperbolic_plane():
    verdict = is_anisotropic(DiagonalForm(0, ((1, 0), (-1, 0))))
    return verdict is Verdict.ISOTROPIC, f"verdict {verdict.value}"


def _check_rational_binary():
    verdict = is_anisotropic(DiagonalForm(0, ((1, 0), (-2, 0))))
    return verdict is Verdict.ANISOTROPIC, f"verdict {verdict.value}"


# ---------------------------------------------------------------------------
# Suite assembly
# ---------------------------------------------------------------------------


def _identity_specs():
    specs = []
    for family, fn in (
        ("type-a-product", _check_type_a_product),
        ("square-field", _check_square_field),
        ("elevator-square", _check_elevator_square),
        ("universal-square-product", _check_universal_square_product),
    ):
        for m in range(1, MAX_IDENTITY_WEIGHT + 1):
            specs.append((f"identity:{family}:m={m}", fn, (m,)))
    for q in GW_LAW_ORDERS:
        specs.append((f"gw-laws:fq{q}", _check_gw_laws, (q,)))
    for q in GW_LAW_ORDERS:
        for s in range(0, 4):
            specs.append((f"pfister-torsion:fq{q}:s={s}", _check_pfister_torsion, (q, s)))
    return specs


def shift_levels(d: int) -> range:
    """The pair counts s with a unit shift at degree d: 2s < 3d - 1, so
    that a configuration has a free point to move a pair to."""
    return range(1, (3 * d - 2) // 2 + 1)


def _gated_levels():
    return [(d, s) for d in SHIFT_DEGREES for s in shift_levels(d)]


def _cfg_name(cfg) -> str:
    return ",".join(map(str, cfg))


def rank_specs(max_degree: int, max_pairs: int):
    """The rank oracle at degrees 1..max_degree and every pair count s,
    at most max_pairs from degree 4 on."""
    specs = []
    for d in range(1, max_degree + 1):
        top = (3 * d - 1) // 2 if d < 4 else min((3 * d - 1) // 2, max_pairs)
        specs += [(f"rank-oracle:d={d}:s={s}", _check_rank_oracle, (d, s)) for s in range(top + 1)]
    return specs


def shift_level_specs(d: int, s: int):
    """The wall-crossing check of level (d, s), then the residual check
    of each of its unit shifts: the base case at s = 1, the transfer
    congruence above it.  A shift whose counts are unsupported has no
    residual check; the level check names and tallies it.  Telling the
    two apart counts the level; if a count faults there, every shift is
    listed, so that its check meets the fault and fails with it."""
    specs = [(f"wallcross:d={d}:s={s}", _check_wallcross_level, (d, s))]
    try:
        shifts = [pair for *pair, _rhs in transfer_targets(d, s)[0]]
    except Exception:
        shifts = unit_shift_pairs(3 * d - 1, s)
    for cfg_from, cfg_to in shifts:
        if s == 1:
            check_id = f"residual-base:d={d}:{cfg_from[0]}-{cfg_to[0]}"
        else:
            check_id = f"residual-transfer:d={d}:{_cfg_name(cfg_from)}>{_cfg_name(cfg_to)}"
        specs.append((check_id, _check_residual, (d, cfg_from, cfg_to)))
    return specs


def pfister_specs(levels: int):
    """The Pfister anisotropy check at tower levels s = 0..levels."""
    return [(f"springer:pfister-aniso:s={s}", _check_pfister_aniso, (s,)) for s in range(levels + 1)]


def _count_specs():
    specs = rank_specs(4, 2)
    specs.append(("count-anchor:d=3:s=0", _check_count_anchor, ()))
    for s in range(0, 5):
        specs.append((f"signature-invariance:d=3:s={s}", _check_signature_invariance, (3, s)))
    specs.extend(
        [
            ("anchor:type-a-m3", _check_anchor_type_a_m3, ()),
            ("anchor:twin-t1", _check_anchor_twin_t1, ()),
            ("anchor:twin-t2", _check_anchor_twin_t2, ()),
            ("anchor:twin-t3", _check_anchor_twin_t3, ()),
            ("anchor:crossing-product", _check_anchor_crossing_product, ()),
        ]
    )
    return specs


def _dissolution_specs():
    specs = []
    for d in range(1, 4):
        n = 3 * d - 1
        for s in range(1, n // 2 + 1):
            for cfg in enumerate_merge_configs(n, s):
                for j in range(1, s + 1):
                    specs.append(
                        (f"dissolution:d={d}:cfg={_cfg_name(cfg)}:j={j}", _check_dissolution, (d, cfg, j))
                    )
    return specs


def _wallcross_specs():
    # the level checks alone, built without counting
    specs = [(f"wallcross:d={d}:s={s}", _check_wallcross_level, (d, s)) for d, s in _gated_levels()]
    for n in range(2, MAX_GRAPH_POINTS + 1):
        for s in range(0, n // 2 + 1):
            specs.append((f"merge-graph:n={n}:s={s}", _check_graph_connected, (n, s)))
    return specs


def _residual_specs():
    specs = []
    for m in range(1, MAX_RESIDUAL_WEIGHT + 1):
        specs.append((f"residual-factors:m={m}", _check_residual_factors, (m,)))
    specs.append(("residual-twin-trees", _check_residual_twin_trees, ()))
    # the base checks of every gated level, then the transfers above them
    for d, s in sorted(_gated_levels(), key=lambda level: level[1] > 1):
        specs.extend(shift_level_specs(d, s)[1:])
    return specs


def _springer_specs():
    specs = pfister_specs(8)[1:]
    specs.append(("springer:hyperbolic-plane", _check_hyperbolic_plane, ()))
    specs.append(("springer:rational-binary", _check_rational_binary, ()))
    return specs


def _all_specs():
    return (
        _identity_specs()
        + _count_specs()
        + _dissolution_specs()
        + _wallcross_specs()
        + _residual_specs()
        + _springer_specs()
    )


_SUITE_BUILDERS = {
    "identities": _identity_specs,
    "counts": _count_specs,
    "dissolution": _dissolution_specs,
    "wallcross": _wallcross_specs,
    "residual": _residual_specs,
    "springer": _springer_specs,
    "all": _all_specs,
}
SUITE_NAMES = tuple(_SUITE_BUILDERS)


def _run_check(spec) -> CheckResult:
    check_id, fn, args = spec
    start = perf_counter()
    try:
        ok, detail = fn(*args)
    except UnsupportedShapeError as exc:
        ok, detail = False, str(exc)
    except Exception as exc:
        ok, detail = False, f"exception: {exc}"
    return CheckResult(check_id, ok, detail, perf_counter() - start)


def run_checks(specs) -> list[CheckResult]:
    """Run the specs in order, printing each row as its check finishes."""
    results = []
    for spec in specs:
        results.append(_run_check(spec))
        print(results[-1].line())
    return results


def _id_degree(check_id: str) -> int:
    """The degree a check id names in a ``d=`` part, 0 if it names none."""
    found = re.search(r":d=(\d+)", check_id)
    return int(found.group(1)) if found else 0


def run_suite(name: str, budget: int = MAX_DEGREE) -> SuiteResult:
    """Run one verification suite; results keep their listed order.

    A check whose id names a degree ``d=`` above the budget is left out,
    and every other check stays in its place."""
    if name not in _SUITE_BUILDERS:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if budget < 1:
        raise ValueError(f"budget must be a positive degree bound, got {budget}")
    specs = [spec for spec in _SUITE_BUILDERS[name]() if _id_degree(spec[0]) <= budget]
    return SuiteResult(name, tuple(_run_check(spec) for spec in specs))
