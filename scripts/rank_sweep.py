#!/usr/bin/env python3
"""Check the rank of every enriched count against the classical recursion.

Runs the rank-oracle check of ``gwfloor verify`` for each degree up to
--max-degree and each pair count s (at most --max-pairs from degree 4
on), printing one line per check.  An unsupported configuration is named
on its line and never counted as a match.  A degree outside the
supported range or a negative --max-pairs exits 2; a failing check, 1.
"""

import argparse
import sys

from gwfloor.checks import rank_specs, run_checks
from gwfloor.diagrams import _MAX_DEGREE


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-degree", type=int, default=3)
    ap.add_argument("--max-pairs", type=int, default=2, help="pair-count cap from degree 4 on")
    args = ap.parse_args(argv)
    if not 1 <= args.max_degree <= _MAX_DEGREE:
        print(
            f"error: --max-degree must be in 1..{_MAX_DEGREE}, got {args.max_degree}",
            file=sys.stderr,
        )
        return 2
    if args.max_pairs < 0:
        print(f"error: --max-pairs must be nonnegative, got {args.max_pairs}", file=sys.stderr)
        return 2

    results = run_checks(rank_specs(args.max_degree, args.max_pairs))
    failed = sum(not r.passed for r in results)
    print(f"{len(results)} checks, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
