#!/usr/bin/env python3
"""Closed-form dimensions against box-count slopes across the parameter range."""

import argparse
import csv
import sys

from okamoto.cli import _seed
from okamoto.dimensions import dim_report
from okamoto.estimators import box_count_series, level_set_scan


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--points", type=int, default=9)
    ap.add_argument("--min-depth", type=int, default=6)
    ap.add_argument("--max-depth", type=int, default=13)
    ap.add_argument("--scan-depth", type=int, default=12)
    ap.add_argument("--scan-samples", type=int, default=100)
    ap.add_argument("--seed", type=_seed, required=True)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    rows = []
    for k in range(args.points):
        a = 0.55 + 0.4 * k / max(1, args.points - 1)
        rep = dim_report(a)
        series = box_count_series(a, range(args.min_depth, args.max_depth + 1), "column")
        scan = level_set_scan(a, args.scan_samples, args.scan_depth, seed=args.seed + k)
        rows.append(
            [
                f"{a:.4f}",
                f"{rep.s0:.6f}",
                f"{series.fitted_slope:.6f}",
                f"{series.fitted_slope - rep.s0:+.6f}",
                f"{scan.quantiles['q50']:.6f}",
                f"{rep.level_set_bound:.6f}",
            ]
        )

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["a", "s0", "box_slope", "slope_gap", "levelset_median", "s0_minus_1"])
    writer.writerows(rows)
    if args.out:
        out.close()
        print(f"{len(rows)} parameters -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
