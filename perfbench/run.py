#!/usr/bin/env python3
"""gwfloor benchmark: cold-process passes over four fixed workloads.

    python3 perfbench/run.py --workload count-d4 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each pass of a workload runs in a fresh interpreter (``worker.py``), one
client issuing its items in sequence: a closed loop with no threads.
Passes repeat until ``--seconds`` is used up, then a batch of import-only
processes times set-up again; every figure is a median over the passes.

The host is shared, and its speed drifts by a quarter over minutes while
CPU time tracks wall time.  Each pass therefore also times rounds of a
fixed reference kernel before, between and after its calls
(``worker.HostSpeed``), and every time the pass reports is multiplied by
``REFERENCE_NOMINAL_S`` over the mean round time: the times are given in
seconds at the host speed where one round takes ``REFERENCE_NOMINAL_S``.
A change to the package moves the scaled time as it moves the raw time;
host drift moves both the pass and the kernel and cancels.  The raw
median wall time is printed beside the scaled figures; ``setup_s`` and
the memory figure are not scaled.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics, including the tracing overhead.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines before it print every metric by name and
unit, the item count, the failed share with the failing checks, the
output digest and the run record.  The spans of the traced passes and
the run record are written to ``perfbench/out/``.

``failed`` counts items whose output check failed or raised; it does
not stop the run.  The first pass and every traced pass run the output
checks; the other passes skip them and must give the same digest.
``correct`` is false when passes of one run disagree on the digest, the
failing items or the counters.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from worker import SUITES, WALLCROSS_CHECKS
from worker import WORKLOADS as WORKLOAD_PASSES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

WORKLOADS = tuple(WORKLOAD_PASSES)
MIN_PASSES = 3
# The levels of pfister-tower are too few and too uneven in size for item
# percentiles, and verify-all is a single call, so on these two the item
# is the whole pass: one tower climb, or one `gwfloor verify --suite all`.
WHOLE_PASS_ITEMS = {"pfister-tower", "verify-all"}
SETUP_PROBES = 15
# Time of worker.reference_round_s() at the host speed the reported times
# are scaled to: about its median over cold passes on a 2-core x86-64
# host with Python 3.11.7.
REFERENCE_NOMINAL_S = 0.011
PASS_TIMEOUT_S = 150

# The tail is p95, not p90: on wallcross-d4 p90 falls between items that
# compute one fresh count and items that compute two, so it moves with
# the item order, while p95 lies inside the slower group.  The item
# latencies of a run's passes are pooled, which leaves more than ten
# samples beyond p95 on count-d4 and wallcross-d4.
END_TO_END_UNITS = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
STAGES = (
    "diagrams.enumerate",
    "diagrams.canonicalise",
    "univ.multiply",
    "univ.residual_multiply",
    "univ.cascade",
    "fields.sweep",
    "wallcross.report",
    "wallcross.residual_report",
    "univ.pfister_element",
    "springer.certify",
    *(f"checks.{suite}" for suite in SUITES),
)
COUNTERS = (
    "diagrams.marked",
    "diagrams.merged",
    "diagrams.kept_ratio",
    "diagrams.unsupported",
    "local_factors.factors",
    "local_factors.distinct_multisets",
    "local_factors.repeat_share",
    "univ.terms",
    "fields.evaluations",
    *(f"wallcross.failed.{check}" for check in (*WALLCROSS_CHECKS, "raised")),
    "univ.pfister_terms",
    "springer.entries",
)
RATIO_COUNTERS = {"diagrams.kept_ratio", "local_factors.repeat_share"}
PER_LAYER_UNITS = {
    **{f"{stage}_s": "s" for stage in STAGES},
    **{name: "ratio" if name in RATIO_COUNTERS else "count" for name in COUNTERS},
    "univ.cascade_share": "ratio",
    "fields.sweep_share": "ratio",
    "trace.overhead_s": "s",
}


def worker(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Cold passes until the time is used up; alternates untraced and
    traced passes when tracing, so both medians come from one run.

    Each pass gets its own item order, drawn from the run's seed, so that
    the item percentiles average over orders instead of resting on one.
    """
    orders = random.Random(seed)
    passes: list[dict] = []
    start = perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        args = ["--workload", workload, "--seed", str(orders.randrange(2**32))]
        if traced:
            args.append("--trace")
        elif passes:
            args.append("--no-check")
        passes.append(worker(*args))
        elapsed = perf_counter() - start
        enough = len(passes) >= (2 if trace else MIN_PASSES)
        if enough and elapsed + elapsed / len(passes) > seconds:
            return passes


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) by the inclusive method."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def scale(p: dict) -> float:
    """Factor that brings a pass's times to the nominal host speed."""
    return REFERENCE_NOMINAL_S / statistics.mean(p["reference_s"])


def end_to_end(workload: str, untraced: list[dict], setups: list[float]) -> tuple[dict, int]:
    if workload in WHOLE_PASS_ITEMS:
        latencies = [p["wall_s"] * scale(p) for p in untraced]
    else:
        latencies = [x * scale(p) for p in untraced for x in p["latencies_s"]]
    values = {
        "wall_s": statistics.median(p["wall_s"] * scale(p) for p in untraced),
        "item_p50_ms": 1000 * statistics.median(latencies),
        "item_p95_ms": 1000 * percentile(latencies, 95),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    return values, len(latencies)


def self_times(spans: list[dict]) -> list[dict]:
    """Each span with its duration and self time (duration minus the time
    its child spans cover)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    return [
        {**span, "duration": span["end"] - span["start"],
         "self": span["end"] - span["start"] - child_time[i]}
        for i, span in enumerate(spans)
    ]


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    def stage_time(p, stage):
        return scale(p) * sum(s["end"] - s["start"] for s in p["spans"]
                              if s["name"] == stage and s["item"] is None)

    values = {f"{stage}_s": statistics.median(stage_time(p, stage) for p in traced)
              for stage in STAGES}
    counters = traced[0]["counters"]
    values.update({name: counters.get(name, 0) for name in COUNTERS})
    report = values["wallcross.report_s"]
    values["univ.cascade_share"] = values["univ.cascade_s"] / report if report else 0.0
    values["fields.sweep_share"] = values["fields.sweep_s"] / report if report else 0.0
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] * scale(p) for p in traced)
                                  - statistics.median(p["wall_s"] * scale(p) for p in untraced))
    return values


def consistent(passes: list[dict]) -> bool:
    first = passes[0]
    traced = [p for p in passes if p["traced"]]
    return (all(p["digest"] == first["digest"] for p in passes)
            and all(p["failures"] == first["failures"] for p in passes if p["checked"])
            and all(p["counters"] == traced[0]["counters"] for p in traced))


def run_record(workload: str, seed: int, items: int, overhead: float | None) -> dict:
    return {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "workload": workload,
        "seed": seed,
        "items": items,
        "tracing_overhead_s": overhead,
    }


def commit() -> str:
    try:
        # The ceiling stops git from reporting an enclosing repository.
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    worker("--workload", workload, "--setup-only")  # compiles bytecode; untimed
    passes = run_passes(workload, seed, seconds, trace)
    probes = [worker("--workload", workload, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    first = passes[0]
    attempted, failed = first["attempted"], len(first["failures"])

    if trace:
        values = per_layer(untraced, traced)
        units = PER_LAYER_UNITS
        samples = f"{len(traced)} traced and {len(untraced)} untraced passes"
        overhead = values["trace.overhead_s"]
    else:
        values, n_latencies = end_to_end(workload, untraced, [p["setup_s"] for p in passes] + probes)
        units = END_TO_END_UNITS
        samples = f"{len(untraced)} passes, {n_latencies} item latencies"
        overhead = None
    record = run_record(workload, seed, attempted, overhead)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {"correct": consistent(passes), "attempted": attempted,
              "failed": failed, "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out_file.write_text(json.dumps({
        "record": record,
        "result": result,
        "setup_probes_s": probes,
        "passes": [{**p, "spans": self_times(p["spans"])} if p["traced"] else p
                   for p in passes],
    }, indent=1))

    print(f"== {workload}  seed {seed}  trace {int(trace)}  ({samples})")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:14.6g} {metric['unit']}")
    host_speed = statistics.median(1 / scale(p) for p in passes)
    raw_wall = statistics.median(p["wall_s"] for p in untraced)
    print(f"  times above are scaled to the nominal host speed; raw median wall_s "
          f"{raw_wall:.6g} s; reference kernel took {host_speed:.4g} x nominal")
    print(f"  items {attempted}; failed_share {failed}/{attempted} = {failed / attempted:.4f}")
    tally = Counter(check for names in first["failures"].values() for check in names)
    for check, n in sorted(tally.items()):
        print(f"  failing check {check}: {n} items")
    print(f"  digest sha256:{first['digest']}")
    print(f"  record {json.dumps(record)}")
    print(f"  spans and passes written to {out_file.relative_to(ROOT)}")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "gwfloor" / "__init__.py").is_file():
        print(f"error: no gwfloor sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
