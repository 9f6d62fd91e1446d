"""Sweep the vertical curvature alpha across level sets of an invariant pair.

Prints one summary row per level and optionally dumps every sample to CSV.
The interesting contrast: for the multiplicity-(1, .) quartic the spread
column is zero to machine precision on every level, while the
multiplicity-(2, 1) quartic spreads over several units already on F = 0.
"""

import argparse
import sys

import numpy as np

from isopar.clifford import J_BLOCK, J_LEFT, J_RIGHT, build_complex_structure
from isopar.hopf import HopfContext, alpha_scan, write_alpha_csv
from isopar.polyfam import make_fkm, make_ot


def build_pair(args):
    if args.family == "fkm":
        fam = make_fkm(args.m, args.r)
    else:
        fam = make_ot(args.r)
    J = build_complex_structure(args.J, fam.ambient_dim)
    return HopfContext(fam, J)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--family", choices=["fkm", "ot"], default="fkm")
    parser.add_argument("--m", type=int, default=2)
    parser.add_argument("--r", type=int, default=4)
    parser.add_argument("--J", default=J_BLOCK, choices=[J_BLOCK, J_RIGHT, J_LEFT])
    parser.add_argument("--levels", type=int, default=9,
                        help="number of levels across (-bound, bound)")
    parser.add_argument("--bound", type=float, default=0.8)
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", help="write all samples to this file")
    args = parser.parse_args(argv)

    ctx = build_pair(args)
    print(f"# family dim {ctx.P.ambient_dim}, action {args.J}, "
          f"{args.samples} samples per level")
    print(f"{'level':>8} {'mean':>12} {'std':>12} {'spread':>12} {'l range':>8}")

    rows = []
    for level in np.linspace(-args.bound, args.bound, args.levels):
        records, summary = alpha_scan(ctx, float(level), args.samples, args.seed)
        rows.extend(records)
        ls = sorted({rec.l for rec in records})
        print(f"{level:8.3f} {summary['mean']:12.6f} {summary['std']:12.3e} "
              f"{summary['max'] - summary['min']:12.3e} "
              f"{ls[0]}..{ls[-1]:>4}")

    if args.csv:
        write_alpha_csv(args.csv, rows)
        print(f"# wrote {len(rows)} samples to {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
