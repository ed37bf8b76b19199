#!/usr/bin/env python3
"""Sweep enriched counts over all merge configurations and report ranks.

For each degree up to --max-degree (default 3) the script enumerates
every merge configuration (capped at --max-pairs pairs for degree 4,
default 2), computes the enriched count, and prints its rank next to the
recursion value, flagging any mismatch.  A configuration whose diagrams
have a shape the local-factor model does not cover raises
"unsupported twin interaction"; it is listed by name and counted apart,
never as a match.  Exit status is nonzero only if a rank mismatches.
"""

import argparse
import sys
import time

from gwfloor.diagrams import enumerate_merge_configs, floor_count, kontsevich_nd

UNSUPPORTED = "unsupported twin interaction"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-degree", type=int, default=3)
    ap.add_argument(
        "--max-pairs",
        type=int,
        default=2,
        help="pair-count cap applied at degree 4 (default 2)",
    )
    args = ap.parse_args()

    bad = supported = 0
    unsupported = []
    for d in range(1, args.max_degree + 1):
        n = 3 * d - 1
        expect = kontsevich_nd(d)
        cap = args.max_pairs if d >= 4 else n // 2
        print(f"degree {d}: recursion value {expect}")
        for s in range(0, min(cap, n // 2) + 1):
            cfgs = enumerate_merge_configs(n, s)
            t0 = time.perf_counter()
            ranks = {}
            for cfg in cfgs:
                try:
                    ranks[cfg] = floor_count(d, cfg).rank
                except ValueError as exc:
                    if UNSUPPORTED not in str(exc):
                        raise
                    unsupported.append((d, cfg))
                    print(f"    unsupported: degree {d} {cfg}: {exc}")
            dt = time.perf_counter() - t0
            mismatches = {c: r for c, r in ranks.items() if r != expect}
            bad += len(mismatches)
            supported += len(ranks)
            status = "ok" if not mismatches else f"MISMATCH {mismatches}"
            print(
                f"  s={s}: {len(cfgs)} configurations, {len(ranks)} supported,"
                f" {dt:.2f}s, {status}"
            )
    names = ", ".join(f"degree {d} {cfg}" for d, cfg in unsupported) or "none"
    print(
        f"{supported} supported configurations, {supported - bad} ranks match;"
        f" {len(unsupported)} unsupported: {names}"
    )
    if bad:
        print(f"{bad} rank mismatches", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
