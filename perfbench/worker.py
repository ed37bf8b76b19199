#!/usr/bin/env python3
"""One cold pass of a gwfloor benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload count-d4 --seed 7 [--trace] [--no-check] [--limit K]
    python3 perfbench/worker.py --workload count-d4 --setup-only

Every pass runs in its own process because ``enumerate_diagrams``,
``enumerate_merged_diagrams``, ``floor_count`` and ``floor_count_residual``
are wrapped in ``functools.cache``: a warm repeat would time dictionary
lookups, while a command-line user pays all four cold on every call.

The pass prints one JSON document on stdout: the import time, the wall
time of the workload's calls, per-item latencies, peak RSS, the times of
rounds of a fixed reference kernel run before, between and after the
calls (``HostSpeed``), the items whose output check failed (with the
check's name), and a digest of the canonical JSON of every result.
``--no-check`` skips the output checks and keeps the digest, which must
then equal that of a checked pass.  With ``--trace`` it calls the same
public functions in stage order under spans and adds the spans and the
per-layer counters.  Spans wrap only calls made from this file; nothing
inside the package is patched or wrapped.

The seed only permutes the order of items; the package receives the
same inputs whatever the seed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import random
import resource
import sys
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"

DEGREE = 4
POSITIONS = 3 * DEGREE - 1
COUNT_LEVELS = range(0, 4)
SHIFT_LEVELS = range(1, 4)
# Top level of the Pfister tower.  The paper claims anisotropy through
# s = 8; the tower climbs past it so that a pass is long enough to time.
PFISTER_TOP = 13
# All-negative real signature of every degree-4 count, by pair count.
SIGNATURE_ANCHORS = {0: 240, 1: 144, 2: 80, 3: 40}
# Twice the Pfister element must vanish over F_5 with every parameter a
# square, and with every parameter a non-square.
TORSION_ORDER = 5
TORSION_BITS = (0, 1)
SUITES = ("identities", "counts", "dissolution", "wallcross", "residual", "springer")
# The checks of a wallcross report, then of its residual report.
WALLCROSS_CHECKS = (
    "rank_zero",
    "broccoli",
    "parity",
    "field_zero",
    "witnesses_zero",
    "reconstruction",
    "residual_base",
    "residual_transfer",
)


class _Coeff:
    """Three integer coordinates, multiplied like a Grothendieck-Witt class."""

    __slots__ = ("a", "b", "c")

    def __init__(self, a, b, c):
        self.a, self.b, self.c = a, b, c

    def __mul__(self, o):
        return _Coeff(
            self.a * o.a + self.c * o.c,
            self.a * o.b + self.b * o.a + 2 * self.b * o.b + self.b * o.c + self.c * o.b,
            self.a * o.c + self.c * o.a,
        )

    def __add__(self, o):
        return _Coeff(self.a + o.a, self.b + o.b, self.c + o.c)


_REFERENCE_TERMS = {
    frozenset(j for j in range(6) if i >> j & 1): _Coeff(i, i % 3, i % 5) for i in range(2**6)
}
# Rounds of the reference kernel just before and just after a pass, and
# the pass time after which one more round runs between two items.
REFERENCE_END_ROUNDS = 8
REFERENCE_EVERY_S = 0.25


def reference_round_s() -> float:
    """Time one round of a fixed product that calls nothing in gwfloor.

    It has the instruction mix of the package's kernels (small objects
    made by arithmetic, dictionaries keyed by frozensets), so it slows
    down with the host the way a pass does, and no change to the package
    moves it.  The cyclic collector is off while it runs (the kernel
    makes no cycles), so the objects a pass leaves alive do not lengthen
    it.
    """
    zero = _Coeff(0, 0, 0)
    gc.disable()
    try:
        start = perf_counter()
        out = {}
        for ka, va in _REFERENCE_TERMS.items():
            for kb, vb in _REFERENCE_TERMS.items():
                key = ka ^ kb
                out[key] = out.get(key, zero) + va * vb
        return perf_counter() - start
    finally:
        gc.enable()


class HostSpeed:
    """Reference rounds timed across one pass, for run.py to divide the
    pass's times by: a few before the calls and after them, and one
    between two items whenever REFERENCE_EVERY_S has gone by since the
    last, so that a long pass is sampled along its length.  The rounds
    fall between item timings, never inside one."""

    def __init__(self) -> None:
        self.rounds: list[float] = []
        self.sample(REFERENCE_END_ROUNDS)

    def sample(self, rounds: int = 1) -> None:
        self.rounds.extend(reference_round_s() for _ in range(rounds))
        self._last = perf_counter()

    def between_items(self) -> None:
        if perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample()


class Tracer:
    """Spans kept in memory: name, start, end, parent index and item id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, item=None):
        record = {
            "name": name,
            "item": item,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._open.pop()


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _timed(items, call, speed):
    """Run ``call`` on each item in order; return outputs, latencies and
    the wall time of the calls, which leaves out the reference rounds."""
    outputs, latencies = {}, {}
    for item in items:
        t0 = perf_counter()
        try:
            outputs[item] = call(item)
        except Exception as exc:  # a raising item is a failed item, not a crash
            outputs[item] = exc
        latencies[item] = perf_counter() - t0
        speed.between_items()
    return outputs, latencies, sum(latencies.values())


# ---------------------------------------------------------------------------
# count-d4: the ROADMAP's target sweep, floor_count(4, cfg) for all 103
# merge configurations with s <= 3.  About three quarters of the time is
# factor products and the rest canonicalising 18,859 merged diagrams,
# most of which repeat an earlier factor multiset, so both memoisation
# and kernel or canonicalisation changes show here.
# ---------------------------------------------------------------------------


def count_items():
    from gwfloor import enumerate_merge_configs

    return [cfg for s in COUNT_LEVELS for cfg in enumerate_merge_configs(POSITIONS, s)]


def count_pass(items, tracer, speed):
    from gwfloor import enumerate_diagrams, enumerate_merged_diagrams, floor_count

    if tracer is None:
        return _timed(items, lambda cfg: floor_count(DEGREE, cfg), speed)
    start = perf_counter()
    with tracer.span("pass"):
        with tracer.span("diagrams.enumerate"):
            enumerate_diagrams(DEGREE)
        _stage(tracer, "diagrams.canonicalise", items, lambda c: enumerate_merged_diagrams(DEGREE, c))
        outputs = _stage(tracer, "univ.multiply", items, lambda c: floor_count(DEGREE, c))
    return outputs, {}, perf_counter() - start


def count_check(cfg, count) -> list[str]:
    from gwfloor import RealField, kontsevich_nd, specialize_field

    failed = []
    if count.rank != kontsevich_nd(DEGREE):
        failed.append("rank")
    signs = {label: -1 for label in range(1, len(cfg) + 1)}
    if specialize_field(count, RealField(), signs).sig != SIGNATURE_ANCHORS[len(cfg)]:
        failed.append("signature")
    return failed


def count_result(cfg, count) -> dict:
    return {"cfg": list(cfg), "count": count.to_json()}


# ---------------------------------------------------------------------------
# wallcross-d4: wallcross_report and residual_report for all 170 unit
# shifts at d = 4, s = 1..3.  It computes the counts of count-d4 and adds
# the independent mod-2 pipeline (floor_count_residual) and the reports,
# so a change to the container shared by both rings shows here.  All
# three levels stay, including the shifts that fail witnesses_zero.
# ---------------------------------------------------------------------------


def wallcross_items():
    from gwfloor.wallcross import unit_shift_pairs

    return [pair for s in SHIFT_LEVELS for pair in unit_shift_pairs(POSITIONS, s)]


def wallcross_pass(items, tracer, speed):
    from gwfloor import (
        delta_count,
        enumerate_diagrams,
        enumerate_merged_diagrams,
        extract_universal_coefficient,
        floor_count,
        floor_count_residual,
        residual_report,
        specialize_field,
        wallcross_report,
    )
    from gwfloor.wallcross import default_field_sweep

    def both(pair):
        return wallcross_report(DEGREE, *pair), residual_report(DEGREE, *pair)

    if tracer is None:
        return _timed(items, both, speed)
    configs = _shift_configs(items)
    start = perf_counter()
    with tracer.span("pass"):
        with tracer.span("diagrams.enumerate"):
            enumerate_diagrams(DEGREE)
        _stage(tracer, "diagrams.canonicalise", configs, lambda c: enumerate_merged_diagrams(DEGREE, c))
        _stage(tracer, "univ.multiply", configs, lambda c: floor_count(DEGREE, c))
        _stage(tracer, "univ.residual_multiply", configs, lambda c: floor_count_residual(DEGREE, c))
    wall = perf_counter() - start
    # The cascade and the field sweep re-run work that wallcross_report
    # also does, so they are timed outside the pass and its wall time.
    deltas = {pair: delta_count(DEGREE, *pair) for pair in items}
    with tracer.span("analysis"):
        _stage(tracer, "univ.cascade", items, lambda p: extract_universal_coefficient(deltas[p]))
        _stage(tracer, "fields.sweep", items, lambda p: [
            specialize_field(deltas[p], model, assign)
            for model, assign in default_field_sweep(len(p[0]))
        ])
    start = perf_counter()
    with tracer.span("pass"):
        reports = _stage(tracer, "wallcross.report", items, lambda p: wallcross_report(DEGREE, *p))
        residuals = _stage(tracer, "wallcross.residual_report", items, lambda p: residual_report(DEGREE, *p))
    wall += perf_counter() - start
    outputs = {
        pair: _first_error(reports[pair], residuals[pair]) or (reports[pair], residuals[pair])
        for pair in items
    }
    return outputs, {}, wall


def _shift_configs(items):
    """Configurations the shifts and their one-pair-fewer targets touch, in
    first-use order, so the stage order follows the item order."""
    from gwfloor.wallcross import unit_shift_pairs

    seen = {}
    for cfg_from, cfg_to in items:
        seen.setdefault(cfg_from, None)
        seen.setdefault(cfg_to, None)
        if len(cfg_from) >= 2:
            for pair in unit_shift_pairs(POSITIONS, len(cfg_from) - 1):
                seen.setdefault(pair[0], None)
                seen.setdefault(pair[1], None)
    return list(seen)


def _first_error(*values):
    return next((v for v in values if isinstance(v, Exception)), None)


def wallcross_check(pair, output) -> list[str]:
    report, residual = output
    verdicts = {
        "rank_zero": report.rank_zero,
        "broccoli": report.broccoli,
        "parity": report.parity,
        "field_zero": all(c.ok for c in report.field_checks),
        "witnesses_zero": report.witnesses_zero,
        "reconstruction": report.reconstruction,
        "residual_base": residual.base_zero is not False,
        "residual_transfer": all(t.both_zero for t in residual.transfers),
    }
    return [name for name in WALLCROSS_CHECKS if not verdicts[name]]


def wallcross_result(pair, output) -> dict:
    report, residual = output
    return {"report": report.to_json(), "residual": residual.to_json()}


# ---------------------------------------------------------------------------
# pfister-tower: for each level s = 0..PFISTER_TOP, pfister_element(s),
# then is_anisotropic(pfister_concrete(s)), then springer_split.  It
# bypasses diagrams and every cache: dense products of up to 2^s keys
# with no repeated inputs, so a memoisation gain should leave it
# unchanged while a kernel change shows whether wide products gain too.
# It is the only workload where springer does most of the work.
# ---------------------------------------------------------------------------


def pfister_items():
    return list(range(0, PFISTER_TOP + 1))


def pfister_pass(items, tracer, speed):
    from gwfloor import is_anisotropic, pfister_concrete, pfister_element, springer_split

    def certify(s):
        form = pfister_concrete(s)
        verdict = is_anisotropic(form)
        return form, verdict, springer_split(form, s) if s >= 1 else None

    if tracer is None:
        return _timed(items, lambda s: (pfister_element(s), *certify(s)), speed)
    start = perf_counter()
    with tracer.span("pass"):
        elements = _stage(tracer, "univ.pfister_element", items, pfister_element)
        certificates = _stage(tracer, "springer.certify", items, certify)
    wall = perf_counter() - start
    outputs = {
        s: _first_error(elements[s], certificates[s]) or (elements[s], *certificates[s])
        for s in items
    }
    return outputs, {}, wall


def pfister_check(s, output) -> list[str]:
    from gwfloor import FiniteField, Verdict, pfister_concrete, specialize_field
    from gwfloor.springer import negate

    element, form, verdict, split = output
    failed = []
    if verdict is not Verdict.ANISOTROPIC:
        failed.append("verdict")
    if form.rank != 2 ** (s + 1):
        failed.append("rank")
    if split is not None:
        previous = pfister_concrete(s - 1)
        unit_part, uniformizer_part = split
        if not (
            unit_part.restrict_variables(s - 1) == previous
            and uniformizer_part.restrict_variables(s - 1) == negate(previous)
        ):
            failed.append("residues")
    doubled = element + element
    for bit in TORSION_BITS:
        assign = {label: bit for label in range(1, s + 1)}
        if not specialize_field(doubled, FiniteField(TORSION_ORDER), assign).is_zero():
            failed.append("torsion")
    return sorted(set(failed))


def pfister_result(s, output) -> dict:
    element, form, verdict, _ = output
    return {"s": s, "element": element.to_json(), "form": form.to_json(), "verdict": verdict.value}


# ---------------------------------------------------------------------------
# verify-all: run_suite("all", budget=4), the 516 checks users run as
# the gate.  It is the only workload that exercises checks and, through
# the identity suite, group_ring; about 90% of it is the d = 4, s <= 2
# rank oracle, so it confirms that a count gain reaches the suite.
# Its items are the suite's checks; the seed permutes nothing here.
# ---------------------------------------------------------------------------


def verify_items():
    return ["all"]


def verify_pass(items, tracer, speed):
    from gwfloor.checks import run_suite

    if tracer is None:
        outputs, latencies, wall = _timed(items, lambda name: run_suite(name, budget=DEGREE), speed)
        return _checks_of(outputs["all"]), latencies, wall
    suites = {}
    start = perf_counter()
    with tracer.span("pass"):
        for name in SUITES:
            with tracer.span(f"checks.{name}"):
                suites[name] = run_suite(name, budget=DEGREE)
    wall = perf_counter() - start
    return _checks_of(*[suites[name] for name in SUITES]), {}, wall


def _checks_of(*suites):
    for suite in suites:
        if isinstance(suite, Exception):
            return {"run_suite": suite}
    return {c.check_id: c for suite in suites for c in suite.checks}


def verify_check(check_id, check) -> list[str]:
    return [] if check.passed else ["passed"]


def verify_result(check_id, check) -> dict:
    return check.to_json()


def _stage(tracer, name, items, call):
    """One span for the stage, one child span per item."""
    outputs = {}
    with tracer.span(name):
        for item in items:
            with tracer.span(name, item):
                try:
                    outputs[item] = call(item)
                except Exception as exc:
                    outputs[item] = exc
    return outputs


WORKLOADS = {
    "count-d4": (count_items, count_pass, count_check, count_result),
    "wallcross-d4": (wallcross_items, wallcross_pass, wallcross_check, wallcross_result),
    "pfister-tower": (pfister_items, pfister_pass, pfister_check, pfister_result),
    "verify-all": (verify_items, verify_pass, verify_check, verify_result),
}


# ---------------------------------------------------------------------------
# Per-layer counters, computed outside every span.
# ---------------------------------------------------------------------------


def diagram_counters(configs) -> dict:
    from gwfloor import enumerate_diagrams, enumerate_merged_diagrams, floor_count

    merged = factors = terms = unsupported = 0
    multisets = set()
    for cfg in configs:
        try:
            diagrams = enumerate_merged_diagrams(DEGREE, cfg)
            count = floor_count(DEGREE, cfg)
        except ValueError:
            unsupported += 1
            continue
        merged += len(diagrams)
        terms += len(count.coeffs)
        for m in diagrams:
            fs = m.factors()
            factors += len(fs)
            multisets.add((m.s, frozenset(Counter(fs).items())))
    marked = len(enumerate_diagrams(DEGREE))
    return {
        "local_factors.distinct_multisets": len(multisets),
        "diagrams.marked": marked,
        "diagrams.merged": merged,
        "diagrams.kept_ratio": merged / (marked * len(configs)),
        "diagrams.unsupported": unsupported,
        "local_factors.factors": factors,
        "local_factors.repeat_share": 1 - len(multisets) / merged if merged else 0.0,
        "univ.terms": terms,
    }


def counters(workload, items, outputs, failures) -> dict:
    out = {}
    if workload == "count-d4":
        out.update(diagram_counters(items))
    elif workload == "wallcross-d4":
        from gwfloor.wallcross import default_field_sweep

        out.update(diagram_counters(_shift_configs(sorted(items))))
        out["fields.evaluations"] = sum(len(default_field_sweep(len(p[0]))) for p in items)
        tally = Counter(name for names in failures.values() for name in names)
        for name in (*WALLCROSS_CHECKS, "raised"):
            out[f"wallcross.failed.{name}"] = tally[name]
    elif workload == "pfister-tower":
        out["univ.pfister_terms"] = sum(len(outputs[s][0].coeffs) for s in items)
        out["springer.entries"] = sum(outputs[s][1].rank for s in items)
    return out


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


def digest(results: list) -> str:
    text = json.dumps(results, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def import_layers(workload: str) -> float:
    """Import the package and the modules the workload calls; return the
    time it took.  The package imports every layer except checks."""
    t0 = perf_counter()
    import gwfloor  # noqa: F401

    if workload == "verify-all":
        import gwfloor.checks  # noqa: F401
    return perf_counter() - t0


def run(workload: str, seed: int, trace: bool, check: bool, limit: int | None) -> dict:
    setup = import_layers(workload)

    items_of, pass_of, check_of, result_of = WORKLOADS[workload]
    items = items_of()[:limit]
    random.Random(seed).shuffle(items)
    tracer = Tracer() if trace else None
    speed = HostSpeed()
    outputs, latencies, wall = pass_of(items, tracer, speed)
    speed.sample(REFERENCE_END_ROUNDS)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    failures, results = {}, []
    for item in sorted(outputs):
        output = outputs[item]
        if isinstance(output, Exception):
            failures[item] = ["raised"]
            results.append({"item": _key(item), **_error(output)})
            continue
        failed = check_of(item, output) if check else []
        if failed:
            failures[item] = failed
        results.append({"item": _key(item), "result": result_of(item, output)})

    doc = {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "checked": check,
        "setup_s": setup,
        "wall_s": wall,
        "reference_s": speed.rounds,
        "peak_rss_mb": peak_rss_kb / 1024,
        "order": [_label(item) for item in items],
        "latencies_s": [latencies[item] for item in items if item in latencies],
        "attempted": len(outputs),
        "failures": {_label(item): names for item, names in sorted(failures.items())},
        "digest": digest(results),
    }
    if trace:
        doc["counters"] = counters(workload, items, outputs, failures)
        doc["spans"] = tracer.spans
    return doc


def _key(item):
    return list(item) if isinstance(item, tuple) else item


def _label(item) -> str:
    if isinstance(item, tuple) and item and isinstance(item[0], tuple):
        return ">".join(",".join(map(str, cfg)) for cfg in item)
    if isinstance(item, tuple):
        return ",".join(map(str, item)) or "-"
    return str(item)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--no-check", action="store_true", help="skip the output checks; keep the digest")
    ap.add_argument("--limit", type=int, default=None, help="run only the first K items")
    ap.add_argument("--setup-only", action="store_true", help="time the import and exit")
    args = ap.parse_args()
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        json.dump({"setup_s": import_layers(args.workload)}, sys.stdout)
        return 0
    doc = run(args.workload, args.seed, args.trace, not args.no_check, args.limit)
    json.dump(doc, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
