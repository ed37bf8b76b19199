#!/usr/bin/env python3
"""Check the rank of every enriched count against the classical recursion.

Runs the rank-oracle check of ``gwfloor verify`` for each degree up to
--max-degree and every pair count s with 2s <= 3d - 1, printing one line
per check.  An unsupported configuration is named on its line and never
counted as a match.  A degree outside the supported range exits 2; a
failing check, 1.
"""

import argparse
import sys

from gwfloor.checks import rank_specs, run_checks
from gwfloor.diagrams import MAX_DEGREE


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-degree", type=int, default=3)
    args = ap.parse_args(argv)
    if not 1 <= args.max_degree <= MAX_DEGREE:
        print(
            f"error: --max-degree must be in 1..{MAX_DEGREE}, got {args.max_degree}",
            file=sys.stderr,
        )
        return 2

    results = run_checks(rank_specs(args.max_degree))
    failed = sum(not r.passed for r in results)
    print(f"{len(results)} checks, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
