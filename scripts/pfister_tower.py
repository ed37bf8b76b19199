#!/usr/bin/env python3
"""Climb the Laurent tower and certify Pfister-form anisotropy per level.

Prints, for each level s up to --levels, the rank of the concrete
diagonal expansion, its anisotropy verdict (one pass over the groups of
entries that share a monomial, which is where Springer's residue
recursion ends), and a check that both residue forms at the top
variable are signed copies of the previous level.  A negative --levels
is a usage error (exit 2).
"""

import argparse
import sys

from gwfloor.springer import (
    is_anisotropic,
    negate,
    pfister_concrete,
    springer_split,
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--levels", type=int, default=8)
    args = ap.parse_args(argv)
    if args.levels < 0:
        print(f"error: --levels must be nonnegative, got {args.levels}", file=sys.stderr)
        return 2

    ok = True
    for s in range(0, args.levels + 1):
        form = pfister_concrete(s)
        verdict = is_anisotropic(form)
        line = f"s={s}: rank {form.rank:4d}  verdict {verdict.value}"
        if s >= 1:
            unit, uniformizer = springer_split(form, s)
            prev = pfister_concrete(s - 1)
            residues_ok = (
                unit.restrict_variables(s - 1) == prev
                and uniformizer.restrict_variables(s - 1) == negate(prev)
            )
            line += f"  residues=+-previous: {residues_ok}"
            ok = ok and residues_ok
        ok = ok and verdict.value == "aniso"
        print(line)
    print("tower verified" if ok else "tower check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
