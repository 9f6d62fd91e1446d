"""Tabulate the level power sums Q_k and ambient Hessian power sums rhobar_k.

Writes one CSV per requested signature and prints the worst relative
residual of each first-order recurrence in t, one column for Q_k and one for
rhobar_k, with the t-derivative taken by complex step.
"""

import argparse
import sys

import numpy as np

from isopar.cli import write_csv
from isopar.polyfam import make_cartan, make_fkm, make_ot
from isopar.spherelevel import (
    qk_recurrence_check,
    recurrence_table,
    rhobar_recurrence_check,
)

BUILTINS = {
    "cartan-m1": lambda: make_cartan(1),
    "cartan-m2": lambda: make_cartan(2),
    "fkm-1-3": lambda: make_fkm(1, 3),
    "fkm-2-4": lambda: make_fkm(2, 4),
    "ot-1": lambda: make_ot(1),
}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--families", nargs="+", default=sorted(BUILTINS),
                        choices=sorted(BUILTINS))
    parser.add_argument("--points", type=int, default=33,
                        help="grid size for the CSV tables")
    parser.add_argument("--bound", type=float, default=0.85)
    parser.add_argument("--k-max", type=int, default=6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--prefix", default="recurrence",
                        help="CSV files are written as PREFIX-<family>.csv")
    parser.add_argument("--no-csv", action="store_true")
    args = parser.parse_args(argv)

    grid = np.linspace(-args.bound, args.bound, args.points)
    check_grid = grid[np.abs(grid) < 0.9]
    print(f"{'family':>10} {'(g,m1,m2)':>10} {'Qk':>10} {'rhobar':>10}")
    for name in args.families:
        fam = BUILTINS[name]()
        q_res = qk_recurrence_check(fam.g, fam.m1, fam.m2, check_grid, args.k_max)
        rhobar = rhobar_recurrence_check(fam, check_grid, args.k_max, args.seed)
        print(f"{name:>10} ({fam.g},{fam.m1},{fam.m2})    "
              f"{q_res:10.2e} {rhobar['recurrence']:10.2e}")
        if not args.no_csv:
            path = f"{args.prefix}-{name}.csv"
            write_csv(path, *recurrence_table(fam.g, fam.m1, fam.m2, grid, args.k_max))
            print(f"{'':>10} wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
