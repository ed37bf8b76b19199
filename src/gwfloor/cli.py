"""Command-line interface: enumeration dumps, counts, sweeps, suites.

All commands print a single JSON document to standard output (stable key
order, no timestamps, byte-identical across reruns); ``--table`` adds a
human-readable rendering, ``--out FILE`` redirects the JSON to a file.
Exit codes: 0 on success, 1 when a verification check fails or the
reader of standard output closes it early, 2 on usage errors (an
``--out`` file that cannot be written among them).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .checks import SUITE_NAMES, run_suite
from .diagrams import MAX_DEGREE, enumerate_merged_diagrams, floor_count
from .fields import field_model, specialize_field
from .springer import MAX_TOWER_VARS, is_anisotropic, pfister_concrete
from .univ import pfister_element
from .wallcross import SCHEMA_VERSION, wallcross_report


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Argument parsing helpers
# ---------------------------------------------------------------------------


def _parse_positions(text: str) -> tuple[int, ...]:
    try:
        return tuple(map(int, text.split(","))) if text else ()
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gwfloor",
        description="Enriched floor-diagram counts and their invariance checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--table", action="store_true", help="also print a text table")
        p.add_argument("--out", metavar="FILE", help="write the JSON document to FILE")

    p_enum = sub.add_parser("enumerate", help="dump marked floor diagrams")
    p_enum.add_argument("--degree", type=int, required=True)
    add_common(p_enum)

    p_count = sub.add_parser("count", help="compute one enriched count")
    p_count.add_argument("--degree", type=int, required=True)
    p_count.add_argument("--merge", default="", help="comma-separated merge positions")
    p_count.add_argument(
        "--field",
        default="symbolic",
        help="symbolic (default), real, closed, or fq:Q for an odd prime power Q",
    )
    p_count.add_argument("--signs", default=None, help="real model: one '+'/'-' per pair")
    p_count.add_argument(
        "--assign", default=None, help="finite-field model: 'sq'/'ns' per pair, '/'-separated"
    )
    add_common(p_count)

    p_wall = sub.add_parser("wallcross", help="full report for one wall crossing")
    p_wall.add_argument("--degree", type=int, required=True)
    p_wall.add_argument("--merge-from", required=True, help="source merge positions")
    p_wall.add_argument("--merge-to", required=True, help="target merge positions")
    add_common(p_wall)

    p_pf = sub.add_parser("pfister", help="Pfister element and its anisotropy verdict")
    p_pf.add_argument("--vars", type=int, required=True)
    add_common(p_pf)

    p_ver = sub.add_parser("verify", help="run a verification suite")
    p_ver.add_argument("--suite", required=True, help="|".join(SUITE_NAMES))
    p_ver.add_argument(
        "--budget",
        type=int,
        default=MAX_DEGREE,
        help=f"leave out the checks of degrees above this one (default {MAX_DEGREE})",
    )
    add_common(p_ver)
    return parser


# ---------------------------------------------------------------------------
# Command implementations: each returns (document, table lines, exit code)
# ---------------------------------------------------------------------------


def _cmd_enumerate(args):
    merged = enumerate_merged_diagrams(args.degree, ())
    total = floor_count(args.degree, ())
    doc = {
        "schema": SCHEMA_VERSION,
        "d": args.degree,
        "count": len(merged),
        "rank": total.rank,
        "diagrams": [m.to_json() for m in merged],
    }
    lines = [f"degree {args.degree}: {len(merged)} marked diagrams, total rank {total.rank}"]
    for m in merged:
        elevators = " ".join(f"{lo}-{hi}:{w}" for lo, hi, w in m.diagram.elevators)
        lines.append(
            f"  elevators [{elevators or '-'}] ends {list(m.diagram.end_counts)} "
            f"multiplicity {m.multiplicity()!r}"
        )
    return doc, lines, 0


def _cmd_count(args):
    cfg = _parse_positions(args.merge)
    s = len(cfg)
    if args.signs is not None and args.field != "real":
        raise UsageError(f"--signs needs --field real, got --field {args.field}")
    if args.assign is not None and not args.field.startswith("fq:"):
        raise UsageError(f"--assign needs --field fq:Q, got --field {args.field}")
    # Every option is read before the count, so a bad one costs no count.
    if args.field != "symbolic":
        # argparse swallows the exact value "--" (its option terminator),
        # leaving an empty list; that spelling can only mean two minuses
        signs = "--" if args.signs == [] else args.signs
        model = field_model(args.field)
        assign = model.parse_assign(args.assign if signs is None else signs, s)
    value = floor_count(args.degree, cfg)

    doc = {
        "schema": SCHEMA_VERSION,
        "d": args.degree,
        "s": s,
        "merge": list(cfg),
        "field": args.field,
        "rank": value.rank,
    }
    lines = [f"degree {args.degree}, merges {list(cfg)}"]

    if args.field == "symbolic":
        doc["value"] = value.to_json()
        lines.append(f"  value {value!r}")
        return doc, lines, 0
    image = specialize_field(value, model, assign)
    if args.field == "real":
        doc["signs"] = model.describe_assign(assign)
        doc["signature"] = image.sig
        lines.append(f"  signs {doc['signs'] or '-'} rank {image.rank} signature {image.sig}")
    elif args.field == "closed":
        doc["rank"] = image.rank
        lines.append(f"  rank {image.rank}")
    else:
        doc["assign"] = model.describe_assign(assign)
        doc["disc"] = image.disc
        lines.append(
            f"  q={model.q} assign {doc['assign'] or '-'} rank {image.rank} disc bit {image.disc}"
        )
    return doc, lines, 0


def _cmd_wallcross(args):
    cfg_from = _parse_positions(args.merge_from)
    cfg_to = _parse_positions(args.merge_to)
    report = wallcross_report(args.degree, cfg_from, cfg_to)
    lines = [
        f"degree {args.degree}: {list(cfg_from)} -> {list(cfg_to)}",
        f"  coefficient (n1, n2, m) = ({report.n1}, {report.n2}, {report.m})",
    ]
    for key, ok in report.verdicts().items():
        lines.append(f"  {key:<16} {'ok' if ok else 'FAIL'}")
    fields = report.field_checks
    lines.append(f"  field_zero       {sum(c.ok for c in fields)}/{len(fields)} ok")
    return report.to_json(), lines, 0 if report.passed else 1


def _cmd_pfister(args):
    s = args.vars
    if s < 0:
        raise UsageError(f"--vars must be nonnegative, got {s}")
    if s > MAX_TOWER_VARS:
        raise UsageError(f"--vars must be at most {MAX_TOWER_VARS}, got {s}")
    element = pfister_element(s)
    form = pfister_concrete(s)
    verdict = is_anisotropic(form).value
    doc = {
        "schema": SCHEMA_VERSION,
        "s": s,
        "element": element.to_json(),
        "form": form.to_json(),
        "verdict": verdict,
    }
    lines = [
        f"{s}-variable Pfister element: {element!r}",
        f"  concrete diagonal form of rank {2 ** (s + 1)}: verdict {verdict}",
    ]
    return doc, lines, 0


def _cmd_verify(args):
    result = run_suite(args.suite, budget=args.budget)
    doc = result.to_json()
    lines = [f"suite {result.suite}: {len(result.checks)} checks"]
    lines += [c.line() for c in result.checks]
    lines.append(f"overall: {'PASS' if result.passed else 'FAIL'}")
    return doc, lines, 0 if result.passed else 1


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "count": _cmd_count,
    "wallcross": _cmd_wallcross,
    "pfister": _cmd_pfister,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on a malformed command line and 0 after --help
        return exc.code
    try:
        doc, lines, code = _COMMANDS[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(doc, sort_keys=True, indent=2)
    if args.out:
        try:
            with open(args.out, "w") as handle:
                handle.write(text + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    try:
        if not args.out:
            print(text)
        if args.table:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed early (e.g. `| head`).  Point stdout at devnull
        # so the interpreter's final flush raises nothing, and exit 1.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    raise SystemExit(main())
