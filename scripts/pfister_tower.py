#!/usr/bin/env python3
"""Climb the Laurent tower and certify Pfister-form anisotropy per level.

Runs the Pfister check of ``gwfloor verify`` for each level s up to
--levels, printing one line per level with the rank of the concrete
diagonal form.  A level passes when the form is certified anisotropic
and, from s = 1 on, both residue forms at the top variable are signed
copies of the previous level.  A --levels below 0 or above the
supported tower height (gwfloor.springer.MAX_TOWER_VARS) exits 2.
"""

import argparse
import sys

from gwfloor.checks import pfister_specs, run_checks
from gwfloor.springer import MAX_TOWER_VARS


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=8)
    args = ap.parse_args(argv)
    if args.levels < 0:
        print(f"error: --levels must be nonnegative, got {args.levels}", file=sys.stderr)
        return 2
    if args.levels > MAX_TOWER_VARS:
        print(
            f"error: --levels must be at most {MAX_TOWER_VARS}, got {args.levels}",
            file=sys.stderr,
        )
        return 2

    ok = all(r.passed for r in run_checks(pfister_specs(args.levels)))
    print("tower verified" if ok else "tower check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
