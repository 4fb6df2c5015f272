#!/usr/bin/env python3
"""How the per-axis CoM spread chi shrinks with particle number for the
three bound systems: the localized solid (chi ~ N^-1 at fixed orbital
width), self-gravitating bosons (chi ~ N^-3 asymptotically, with an exact
(N-1)^-2 finite-N factor), and self-gravitating fermions (chi ~ N^-5/3).

Usage:
    python scripts/scaling_report.py [--decades 2 6] [--csv table.csv]
"""

import argparse
import csv

import numpy as np

from varsolid import (OptimizeOptions, TwoYukawaParams, boson_solve,
                      com_statistics, fermion_solve, make_krypton_units,
                      solve_solid)


def fit_slope(ns, chis):
    return np.polyfit(np.log(ns), np.log(chis), 1)[0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--decades", type=int, nargs=2, default=(2, 6),
                    metavar=("LO", "HI"), help="N runs over 10^LO .. 10^HI")
    ap.add_argument("--csv", help="write the table to this file")
    args = ap.parse_args()

    lo, hi = args.decades
    if hi <= lo:
        ap.error("need LO < HI")
    ns = [10**k for k in range(lo, hi + 1)]
    # the solid's orbital decay rate: the Krypton optimum, 1/sigma
    lambda_solid = solve_solid(TwoYukawaParams(), make_krypton_units(),
                               OptimizeOptions()).lambda_star

    rows = []
    for n in ns:
        rows.append({
            "N": n,
            "chi_solid": com_statistics(lambda_solid, n).chi,
            "chi_boson": boson_solve(n).chi,
            "chi_fermion": fermion_solve(n).chi,
        })

    print(f"{'N':>12} {'solid chi':>14} {'boson chi':>14} {'fermion chi':>14}")
    for r in rows:
        print(f"{r['N']:>12.3g} {r['chi_solid']:>14.6e} "
              f"{r['chi_boson']:>14.6e} {r['chi_fermion']:>14.6e}")

    print()
    for key, want in (("chi_solid", -1.0), ("chi_boson", -3.0),
                      ("chi_fermion", -5.0 / 3.0)):
        slope = fit_slope(ns, [r[key] for r in rows])
        print(f"{key:>12}: log-log slope {slope:+.9f} "
              f"(asymptotic exponent {want:+.6f}, off by {slope - want:+.2e})")
    # the boson offset is real, not numerical: d ln chi / d ln N = -3 - 2/(N-1)
    n0 = ns[0]
    print(f"{'':>12}  boson local slope at N={n0:g}: "
          f"{-3.0 - 2.0 / (n0 - 1):+.9f} exactly")

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            for r in rows:
                writer.writerow({k: f"{v:.17g}" if isinstance(v, float) else v
                                 for k, v in r.items()})
        print(f"\nwrote {args.csv}")


if __name__ == "__main__":
    main()
