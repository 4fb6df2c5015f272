#!/usr/bin/env python3
"""End-to-end Krypton run: optimize the localized solid, then print the
cohesion/elasticity numbers next to experiment and the center-of-mass
statistics of the resulting macroscopic body.

Usage:
    python scripts/run_krypton_report.py [--n-particles 1e21] [--json out.json]
"""

import argparse
import json
import math

from varsolid import (OrbitalParams, TwoYukawaParams, com_statistics,
                      free_spread, make_krypton_units, minimum_certificate,
                      same_site_W, solve_solid)
from varsolid.cli import EXPERIMENT_KRYPTON
from varsolid.optimize import unit_shells


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-particles", type=float, default=1e21,
                    help="particle count for the CoM statistics block")
    ap.add_argument("--time", type=float, default=1.0,
                    help="free-evolution time in seconds for the spread")
    ap.add_argument("--json", help="also dump the numbers to this file")
    args = ap.parse_args()

    units = make_krypton_units()
    pot = TwoYukawaParams()

    print(f"two-Yukawa potential: b={pot.b}, m={pot.m}, n={pot.n} "
          f"(eps={units.epsilon_K} K, sigma={units.sigma_angstrom} A)")
    print(f"Lambda = hbar^2/(mu sigma^2 eps) = {units.coupling:.10e}")
    print()

    sol = solve_solid(pot, units)
    ok = minimum_certificate(sol, pot, units)
    shells = unit_shells().scaled(sol.d_star)
    w = same_site_W(OrbitalParams(sol.lambda_star), pot, shells, units)

    print(f"optimum ({sol.iterations} iterations, "
          f"{sol.n_evaluations} energy evaluations, "
          f"certificate {'passed' if ok else 'FAILED'}):")
    print(f"  lambda* = {sol.lambda_star:.6f} / sigma")
    print(f"  d*      = {sol.d_star:.6f} sigma = {sol.d_star_angstrom:.4f} A"
          f"   [experiment {EXPERIMENT_KRYPTON['d_angstrom']} A]")
    print(f"  U       = {sol.u_min:.6f} eps = {sol.u_min_cal_per_mole:.1f} "
          f"cal/mole   [experiment {EXPERIMENT_KRYPTON['u_cal_per_mole']:.0f}]")
    print(f"  B       = {sol.bulk.value:.4f} eps/sigma^3 = "
          f"{sol.bulk.value_kbar:.2f} kbar   "
          f"[experiment {EXPERIMENT_KRYPTON['bulk_modulus_kbar']}]"
          f"   (Richardson rel diff {sol.bulk.richardson_rel_diff:.1e})")
    print(f"  W       = {w.W:.4e} eps; W/|u_pot| = {w.ratio:.3e} "
          f"(double occupancy is energetically forbidden)")
    print()

    n = args.n_particles
    stats = com_statistics(sol.lambda_star, n)
    spread_m = math.sqrt(stats.chi) * units.sigma_m
    tau_s = units.sigma_m * math.sqrt(units.mass_kg / units.epsilon_J)
    grown = free_spread(stats, args.time / tau_s, units)
    print(f"center of mass, N = {n:.3g}:")
    print(f"  chi = {stats.chi:.6e} sigma^2  "
          f"(rms spread {spread_m:.3e} m per axis)")
    print(f"  omega = {stats.omega:.6e} hbar^2/sigma^2")
    print(f"  sqrt(chi omega) = {stats.product:.15f} hbar "
          f"(= 1/sqrt(3) = {1 / math.sqrt(3):.15f})")
    print(f"  free spread after {args.time:g} s: "
          f"chi(t) = {grown:.6e} sigma^2 "
          f"(growth {grown / stats.chi - 1.0:.3e} relative)")

    if args.json:
        payload = {
            "lambda_star_per_sigma": sol.lambda_star,
            "d_star_sigma": sol.d_star,
            "d_star_angstrom": sol.d_star_angstrom,
            "u_min_epsilon": sol.u_min,
            "u_min_cal_per_mole": sol.u_min_cal_per_mole,
            "bulk_modulus_kbar": sol.bulk.value_kbar,
            "same_site_W_epsilon": w.W,
            "W_over_potential": w.ratio,
            "N": n,
            "chi_sigma2": stats.chi,
            "product_hbar": stats.product,
            "experiment": EXPERIMENT_KRYPTON,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        print(f"\nwrote {args.json}")


if __name__ == "__main__":
    main()
