"""Acceptance gate: every headline quantitative claim of the package, one
test per claim, each asserted at its stated tolerance.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per item.
The targets are the Krypton numbers (sigma = 3.6 A, epsilon = 170 K):
lambda* ~ 91.33/sigma, d* ~ 3.953 A, U ~ -2690 cal/mole, B ~ 33.4 kbar,
W/|u_pot| ~ 1e7, plus the exact CoM statistics, scaling exponents, and
reproducibility guarantees for the rest of the API.
"""

import json
import math
import time

import numpy as np
import pytest

from varsolid import (LatticeKind, OrbitalParams, SuperpositionSpec,
                      TwoYukawaParams, boson_energy, boson_solve,
                      build_cluster, com_statistics,
                      enumerate_shells, fermion_solve, fermion_tf_energy,
                      make_krypton_units, mc_pair_energy, pair_energy,
                      radial_transform_check, same_site_W, solve_solid,
                      superposition_spread, two_yukawa, two_yukawa_fourier)
from varsolid.cli import main as cli_main

POT = TwoYukawaParams()
UNITS = make_krypton_units()
N_GRID = [10**k for k in range(2, 7)]  # 1e2 .. 1e6


@pytest.fixture(scope="module")
def timed_solution():
    """One fresh full solve (optimum + bulk modulus), wall-clock timed."""
    t0 = time.perf_counter()
    sol = solve_solid(POT, UNITS)
    return sol, time.perf_counter() - t0


def loglog_slope(n_values, chi_values):
    slope, _ = np.polyfit(np.log(n_values), np.log(chi_values), 1)
    return slope


def test_c01_optimum_location_and_runtime(timed_solution):
    sol, elapsed = timed_solution
    print(f"[C01] lambda*={sol.lambda_star:.6f}/sigma  "
          f"d*={sol.d_star_angstrom:.6f} A  runtime={elapsed:.2f} s")
    assert abs(sol.lambda_star - 91.33) <= 0.01 * 91.33
    assert abs(sol.d_star_angstrom - 3.953) <= 0.005 * 3.953
    assert elapsed < 300.0


def test_c02_cohesive_energy(timed_solution):
    sol, _ = timed_solution
    print(f"[C02] U={sol.u_min_cal_per_mole:.3f} cal/mole (target -2690, 1%)")
    assert abs(sol.u_min_cal_per_mole - (-2690.0)) <= 0.01 * 2690.0


def test_c03_bulk_modulus(timed_solution):
    sol, _ = timed_solution
    bulk = sol.bulk
    print(f"[C03] B={bulk.value_kbar:.4f} kbar (target 33.4, 5%), "
          f"Richardson rel diff={bulk.richardson_rel_diff:.3e}")
    assert abs(bulk.value_kbar - 33.4) <= 0.05 * 33.4
    assert bulk.richardson_rel_diff <= 0.01


def test_c04_double_occupancy_penalty(timed_solution):
    sol, _ = timed_solution
    shells = enumerate_shells(LatticeKind.FCC, 1.0, 12.0).scaled(sol.d_star)
    w = same_site_W(OrbitalParams(sol.lambda_star), POT, shells, UNITS)
    print(f"[C04] W={w.W:.6e} eps, W/|u_pot|={w.ratio:.4e}")
    assert w.W > 0.0
    assert 1e6 <= w.ratio <= 1e8


def test_c05_uncertainty_product_is_hbar_over_sqrt3():
    target = 1.0 / math.sqrt(3.0)
    rng = np.random.default_rng(20260815)
    worst = 0.0
    for _ in range(100):
        lam = 10.0 ** rng.uniform(-2.0, 3.0)
        n = 10.0 ** rng.uniform(0.0, 24.0)
        stats = com_statistics(lam, n)
        worst = max(worst, abs(stats.product - target))
    for n in (2, 10, 1000, 12345):
        worst = max(worst, abs(boson_solve(n).product_hbar - target))
    print(f"[C05] max |product - 1/sqrt(3)| = {worst:.3e} hbar over "
          f"100 random (lambda, N) draws + 4 boson optima")
    assert worst <= 1e-12


def test_c06_scaling_exponents():
    chi_solid = [com_statistics(91.33, n).chi for n in N_GRID]
    chi_boson = [boson_solve(n).chi for n in N_GRID]
    chi_fermion = [fermion_solve(n).chi for n in N_GRID]
    # The boson spread is exact at finite N: chi = g^2/(N (N-1)^2), from the
    # N(N-1)/2 pair count, with local slope -3 - 2/(N-1).  N^-3 is its
    # large-N law, so the leading exponent is fitted with the finite-N
    # factor ((N-1)/N)^2 divided out; the raw fit is pinned separately to
    # the fit of the exact law, so dropping or doubling the factor fails.
    chi_boson_leading = [chi * ((n - 1) / n) ** 2
                         for n, chi in zip(N_GRID, chi_boson)]
    s_solid = loglog_slope(N_GRID, chi_solid)
    s_boson = loglog_slope(N_GRID, chi_boson)
    s_boson_leading = loglog_slope(N_GRID, chi_boson_leading)
    s_boson_exact = loglog_slope(N_GRID, [1.0 / (n * (n - 1) ** 2)
                                          for n in N_GRID])
    s_fermion = loglog_slope(N_GRID, chi_fermion)
    print(f"[C06] slopes: solid {s_solid:.12f} (want -1), "
          f"boson {s_boson:.12f} (want {s_boson_exact:.12f}), "
          f"boson x ((N-1)/N)^2 {s_boson_leading:.12f} (want -3), "
          f"fermion {s_fermion:.12f} (want -5/3)")
    assert abs(s_solid - (-1.0)) <= 1e-9
    assert abs(s_fermion - (-5.0 / 3.0)) <= 1e-9
    assert abs(s_boson_leading - (-3.0)) <= 1e-9
    assert abs(s_boson - s_boson_exact) <= 1e-9


def test_c07_pair_energy_against_independent_routes():
    rng = np.random.default_rng(7)
    worst_z = 0.0
    for _ in range(10):
        lam = 10.0 ** rng.uniform(math.log10(15.0), math.log10(150.0))
        s = rng.uniform(0.3, 2.5)
        exact = pair_energy(OrbitalParams(lam), POT, s)
        est = mc_pair_energy(OrbitalParams(lam), POT, s, samples=10**6,
                             seed=int(rng.integers(2**31)))
        worst_z = max(worst_z, abs(exact - est.mean) / est.std_error)
    worst_rel = 0.0
    for _ in range(20):
        k = 10.0 ** rng.uniform(-2.0, math.log10(40.0))
        quad = radial_transform_check(lambda r: two_yukawa(r, POT), k)
        closed = two_yukawa_fourier(k, POT)
        worst_rel = max(worst_rel, abs(quad - closed) / abs(closed))
    print(f"[C07] MC worst |z| = {worst_z:.2f} sigma (10 draws, 1e6 samples); "
          f"transform worst rel diff = {worst_rel:.3e} (20 draws)")
    assert worst_z <= 3.0
    assert worst_rel <= 1e-9


def test_c08_cluster_sum_matches_shell_sum(timed_solution):
    sol, _ = timed_solution
    p = OrbitalParams(sol.lambda_star)
    cluster = build_cluster(sol.d_star, 201)
    dists = np.linalg.norm(cluster - cluster[0], axis=1)[1:]
    direct = 0.5 * math.fsum(pair_energy(p, POT, r) for r in dists)
    shells = enumerate_shells(LatticeKind.FCC, sol.d_star,
                              dists.max() * (1.0 + 1e-12))
    shell_sum = 0.5 * math.fsum(c * pair_energy(p, POT, r)
                                for r, c in shells.shells)
    print(f"[C08] 201-site central sum {direct:.12f} eps vs shell sum "
          f"{shell_sum:.12f} eps, |diff| = {abs(direct - shell_sum):.2e}")
    assert abs(direct - shell_sum) <= 1e-8


def test_c09_boson_optimum_closed_form_and_certificate():
    worst = 0.0
    # hbar = 1; hbar enters only as mu/hbar^2, so the last two masses are
    # the (mu, hbar) pairs (0.7, 1.3) and (11, 0.2)
    for n, kappa, mu in ((2, 1.0, 1.0), (50, 2.5, 0.7 / 1.3**2),
                         (10**4, 0.04, 11.0 / 0.2**2)):
        sol = boson_solve(n, kappa, mu)
        analytic = 5.0 * kappa * mu * (n - 1) / 16.0
        worst = max(worst, abs(sol.beta_star - analytic) / analytic)
        e0 = boson_energy(sol.beta_star, n, kappa, mu)
        for factor in (0.99, 1.01):
            assert boson_energy(sol.beta_star * factor, n, kappa, mu) > e0
    print(f"[C09] beta* worst rel err vs 5 kappa mu (N-1)/16: "
          f"{worst:.3e}; +-1% perturbations all raise the energy")
    assert worst <= 1e-12


def test_c10_fermion_optimum_is_order_unity_and_certified():
    for n in (2, 100, 10**6):
        sol = fermion_solve(n)
        assert 0.1 < sol.f_factor < 10.0
        e0 = fermion_tf_energy(sol.gamma_star, n)
        for factor in (0.99, 1.01):
            assert fermion_tf_energy(sol.gamma_star * factor, n) > e0
    print(f"[C10] f = {fermion_solve(100).f_factor:.6f} in (0.1, 10); "
          f"gamma* +-1% perturbations all raise the energy")


def test_c11_branch_separation_variance_and_overlap():
    rng = np.random.default_rng(11)
    weights = np.sqrt([0.5, 0.5])
    for _ in range(25):
        lam = 10.0 ** rng.uniform(0.0, 2.5)
        n = 10.0 ** rng.uniform(0.0, 12.0)
        sep = 10.0 ** rng.uniform(-1.0, 3.0)
        spec = SuperpositionSpec(
            displacements=[[-sep / 2.0, 0.0, 0.0], [sep / 2.0, 0.0, 0.0]],
            weights=weights, cutoff_a=sep / 2.0)
        var = superposition_spread(spec, lam, n)
        expected = 4.0 / (lam * lam * n) + sep * sep / 4.0
        # branch amplitudes 1/sqrt(2) are irrational, so "exact" here means
        # to double precision (the |c|^2 round-trip costs one ulp)
        assert var[0] == pytest.approx(expected, rel=1e-14)
        assert var[1] == pytest.approx(4.0 / (lam * lam * n), rel=1e-14)
        # disjoint supports, hence no cross terms, hold by construction:
        # the spec is built with separations beyond 2a and refused below it
        wide = SuperpositionSpec(
            displacements=spec.displacements, weights=weights,
            cutoff_a=sep / 2.0 * (1.0 - 1e-6))
        assert wide.min_separation() >= 2.0 * wide.cutoff_a
        with pytest.raises(ValueError, match="non-overlap threshold"):
            SuperpositionSpec(displacements=spec.displacements,
                              weights=weights,
                              cutoff_a=sep / 2.0 * (1.0 + 1e-6))
    print("[C11] Var_x = 4/(lam^2 N) + L^2/4 for 25 random (lam, N, L); "
          "branches beyond 2a are built, branches inside 2a refused")


def test_c12_cli_runs_are_byte_identical(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{}\n")
    blobs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = cli_main(["--config", str(cfg), "--output", str(out),
                         "optimize"])
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    payload = json.loads(blobs[0])
    print(f"[C12] two optimize runs byte-identical ({len(blobs[0])} bytes, "
          f"lambda*={payload['lambda_star_per_sigma']!r})")
