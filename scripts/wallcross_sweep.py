#!/usr/bin/env python3
"""Run the wall-crossing and residual checks over every unit shift.

Runs the checks of ``gwfloor verify`` for each degree in --degrees (by
default the degrees that verify gates, ``checks.SHIFT_DEGREES``) and each
pair count s that has a unit shift: the wall-crossing level check,
then the residual check of each shift, printing one line per check.  A
failing level names its first failing shift and that shift's failing
checks; an unsupported shift is named on its level's line and never
counted as a pass.  A degree outside 2 up to the largest supported
degree, or one listed twice, exits 2; a failing check, 1.
"""

import argparse
import sys

from gwfloor.checks import SHIFT_DEGREES, run_checks, shift_level_specs, shift_levels
from gwfloor.diagrams import MAX_DEGREE


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    default = ",".join(map(str, SHIFT_DEGREES))
    ap.add_argument("--degrees", default=default, help=f"comma-separated degrees (default {default})")
    args = ap.parse_args(argv)
    try:
        degrees = [int(t) for t in args.degrees.split(",")]
    except ValueError:
        degrees = []
    if not degrees or not all(2 <= d <= MAX_DEGREE for d in degrees):
        print(
            f"error: --degrees must list degrees in 2..{MAX_DEGREE}, got {args.degrees!r}",
            file=sys.stderr,
        )
        return 2
    repeated = sorted({d for d in degrees if degrees.count(d) > 1})
    if repeated:
        print(
            f"error: --degrees must list degrees in 2..{MAX_DEGREE} once each, "
            f"got {', '.join(map(str, repeated))} more than once in {args.degrees!r}",
            file=sys.stderr,
        )
        return 2

    results = run_checks(
        spec for d in degrees for s in shift_levels(d) for spec in shift_level_specs(d, s)
    )
    failed = sum(not r.passed for r in results)
    print(f"{len(results)} checks, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
