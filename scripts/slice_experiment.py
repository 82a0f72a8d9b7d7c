#!/usr/bin/env python3
"""Level-set dimension estimates at levels drawn from a homogeneous subsystem.

Deepening the cover tightens the estimates toward s0 - 1 from above; the
fraction clearing s0 - 1 - eps is the empirical echo of the almost-sure
lower bound on the subsystem's support.
"""

import argparse
import sys

from okamoto.cli import _seed
from okamoto.subsystem import slice_lower_bound_report


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--a", type=float, default=0.75)
    ap.add_argument("--m", type=int, default=8)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--depths", type=str, default="10,12,14")
    ap.add_argument("--seed", type=_seed, required=True)
    args = ap.parse_args()

    print(f"a={args.a} m={args.m} samples={args.samples} seed={args.seed}")
    print("depth  median   q10      frac>=s0-1-0.05  frac>=s0-1-0.10  excluded")
    for depth in (int(d) for d in args.depths.split(",")):
        rep = slice_lower_bound_report(args.a, args.m, args.samples, depth, seed=args.seed)
        print(
            f"{depth:5d}  {rep.median_estimate:.4f}  {rep.quantiles['q10']:.4f}"
            f"  {rep.frac_above[0.05]:15.2f}  {rep.frac_above[0.1]:15.2f}  {rep.excluded:8d}"
        )
    print(f"target s0-1 = {rep.s0_minus_1:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
