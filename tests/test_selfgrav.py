"""Self-gravitating bosons (closed form) and Thomas-Fermi fermions.

Every coefficient the closed forms rely on is pinned here against an
independent oracle before being trusted: the per-pair Coulomb value -5 kappa
beta/8 by Monte Carlo, the nested Coulomb integral (5/16) gamma N^2 and the
kinetic-density coefficient C_KIN by quadrature, and the per-axis momentum
variance beta^2/3 (hbar = 1) by sampling the orbital's momentum distribution.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varsolid import (BosonSolution, boson_energy, boson_solve,
                      com_statistics, fermion_solve, fermion_tf_energy)
from varsolid.oracle import (coulomb_self_energy_quadrature,
                             density_power_integral_quadrature,
                             exp_density_sampler, mc_momentum_axis_variance,
                             mc_pair_integral, sample_exponential_cloud)
from varsolid.selfgrav import C_KIN

HBAR_OVER_SQRT3 = 1.0 / math.sqrt(3.0)


# ----------------------------------------------------------------------
# bosons
# ----------------------------------------------------------------------

def test_boson_energy_trivial_points():
    assert boson_energy(0.0, 5) == 0.0
    assert boson_energy(2.0, 1) == pytest.approx(2.0, rel=1e-15)  # b^2/(2 mu)
    assert boson_energy(2.0, 1) > 0.0


def test_boson_energy_rejects_negative_or_nan_beta():
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="beta"):
            boson_energy(bad, 10)


@pytest.mark.parametrize("energy,name", [(boson_energy, "beta"),
                                         (fermion_tf_energy, "gamma")])
@pytest.mark.parametrize("rate", [math.inf, 1e308, 1e200])
def test_energies_fail_closed_past_the_doubles(energy, name, rate):
    # an infinite rate once gave inf - inf = NaN, and 1e308 a bare
    # OverflowError from rate**2; 1e200 overflows it as well
    with pytest.raises(ValueError, match=re.escape(f"{name}={rate!r}")):
        energy(rate, 10)
    # a finite energy keeps its value
    assert math.isfinite(energy(1e100, 10))


def test_selfgrav_com_statistics_come_from_com_statistics():
    # the boson density e^{-2 beta r} is the exponential orbital at
    # lam = 2 beta; the fermion density is the one at lam = gamma
    for n, kappa, mu in ((2, 1.0, 1.0), (37, 2.0, 0.5), (10**6, 0.7, 1.3)):
        sol = boson_solve(n, kappa, mu)
        com = com_statistics(2.0 * sol.beta_star, n)
        assert (sol.chi, sol.omega, sol.product_hbar) == (
            com.chi, com.omega, com.product)
        fsol = fermion_solve(n, kappa=kappa, mu=mu)
        assert fsol.chi == com_statistics(fsol.gamma_star, n).chi


def test_boson_pair_potential_against_mc():
    # the -5 kappa N(N-1) beta/16 term is N(N-1)/2 pairs at -5 kappa beta/8
    # each; pin the per-pair value by direct 6-D Monte Carlo
    beta, kappa = 1.7, 1.0
    sampler = exp_density_sampler(2.0 * beta)  # |phi|^2 has rate 2 beta
    est = mc_pair_integral(sampler, lambda r: -kappa / r,
                           separation=0.0, samples=400_000, seed=21)
    want = -5.0 * kappa * beta / 8.0
    assert abs(est.mean - want) <= 3.0 * est.std_error
    n = 6
    pair_total = boson_energy(beta, n) - n * beta**2 / 2.0
    assert pair_total == pytest.approx(n * (n - 1) / 2.0 * want, rel=1e-12)


def test_boson_solve_n2_exact_values():
    sol = boson_solve(2)
    assert sol.beta_star == pytest.approx(5.0 / 16.0, rel=1e-15)
    assert sol.energy == pytest.approx(-0.09765625, rel=1e-13)
    assert sol.chi == pytest.approx(5.12, rel=1e-13)  # g^2/(N(N-1)^2), g = 3.2


def test_boson_solution_invariants():
    for n in (2, 10, 1000):
        sol = boson_solve(n)
        assert isinstance(sol, BosonSolution)
        assert sol.beta_star > 0.0
        assert sol.energy < 0.0
        assert sol.chi > 0.0
        assert sol.product_hbar == pytest.approx(HBAR_OVER_SQRT3, abs=1e-12)


def test_boson_minimum_certificate():
    sol = boson_solve(50, kappa=0.9, mu=1.2)
    e0 = boson_energy(sol.beta_star, 50, kappa=0.9, mu=1.2)
    assert boson_energy(sol.beta_star * 1.01, 50, kappa=0.9, mu=1.2) > e0
    assert boson_energy(sol.beta_star * 0.99, 50, kappa=0.9, mu=1.2) > e0
    assert sol.energy == pytest.approx(e0, rel=1e-14)


def test_boson_chi_matches_g_formula():
    sol = boson_solve(37, kappa=2.0, mu=0.5)
    g = 16.0 / (5.0 * 2.0 * 0.5)
    want = g**2 / (37 * 36**2)
    assert sol.chi == pytest.approx(want, rel=1e-14)
    # equivalently 1/(beta*^2 N)
    assert sol.chi == pytest.approx(1.0 / (sol.beta_star**2 * 37), rel=1e-14)


def test_boson_chi_asymptotic_eighth_ratio():
    # chi(2N)/chi(N) = (N-1)^2 / (2 (2N-1)^2) -> 1/8 from below as N grows
    for n, tol in ((100, 2e-2), (10**6, 2e-6)):
        ratio = boson_solve(2 * n).chi / boson_solve(n).chi
        assert ratio == pytest.approx(1.0 / 8.0, rel=tol)
        assert ratio < 1.0 / 8.0
        assert ratio == pytest.approx((n - 1) ** 2 / (2.0 * (2 * n - 1) ** 2),
                                      rel=1e-12)


def exact_boson_chi(n):
    """The closed-form spread g^2/(N(N-1)^2), smooth in N (kappa = mu = 1)."""
    return (16.0 / 5.0) ** 2 / (n * (n - 1.0) ** 2)


def test_boson_finite_n_slope_is_not_minus_three():
    # d ln chi / d ln N = -3 - 2/(N-1) exactly, so decade log-slopes over
    # N in [1e2, 1e6] sit measurably below -3: 1/N^3 is the asymptotic law,
    # not an identity.  Far out the correction dies.
    grid = [10.0**e for e in range(2, 7)]
    for lo, hi in zip(grid, grid[1:]):
        slope = (math.log(exact_boson_chi(hi))
                 - math.log(exact_boson_chi(lo))) / math.log(10.0)
        assert abs(slope + 3.0) > 1e-9   # the finite-N correction is real
        assert slope == pytest.approx(-3.0, abs=0.01)  # but already small
    slope = (math.log(exact_boson_chi(1e14))
             - math.log(exact_boson_chi(1e10))) / (4.0 * math.log(10.0))
    assert slope == pytest.approx(-3.0, abs=1e-9)
    # the integer solver agrees with the smooth closed form
    assert boson_solve(1000).chi == pytest.approx(exact_boson_chi(1000.0),
                                                  rel=1e-13)


def test_boson_energy_not_additive():
    # E* ~ N(N-1)^2: doubling N always lowers more than twice the energy
    # (|E(2N)/(2E(N))| = ((2N-1)/(N-1))^2 >= 4 > 1), and the energy per
    # particle |E(N)/N| = (5/16)^2 (N-1)^2 / 2 grows without bound
    prev_per_particle = 0.0
    for n in (2, 4, 8, 16, 64, 256):
        ratio = abs(boson_solve(2 * n).energy / (2.0 * boson_solve(n).energy))
        assert ratio == pytest.approx(((2 * n - 1) / (n - 1)) ** 2, rel=1e-12)
        assert ratio > 4.0
        per_particle = abs(boson_solve(n).energy) / n
        assert per_particle > prev_per_particle
        prev_per_particle = per_particle


def test_boson_omega_scales_as_n_nm1_squared():
    # omega = beta*^2 N / 3 with beta* ~ (N-1)
    for n in (5, 50, 500):
        sol = boson_solve(n)
        coeff = sol.omega / (n * (n - 1) ** 2)
        assert coeff == pytest.approx((5.0 / 16.0) ** 2 / 3.0, rel=1e-12)


def test_momentum_variance_pin():
    beta = 3.3
    est = mc_momentum_axis_variance(beta, samples=150_000, seed=2)
    assert abs(est.mean - beta**2 / 3.0) <= 4.0 * est.std_error


def test_boson_solve_rejects_small_n():
    with pytest.raises(ValueError):
        boson_solve(1)


@given(kappa=st.floats(min_value=0.01, max_value=100.0),
       mu=st.floats(min_value=0.01, max_value=100.0),
       n=st.integers(min_value=2, max_value=10**6))
@settings(max_examples=60)
def test_boson_closed_forms_property(kappa, mu, n):
    sol = boson_solve(n, kappa=kappa, mu=mu)
    assert sol.beta_star == pytest.approx(5 * kappa * mu * (n - 1) / 16.0,
                                          rel=1e-12)
    g = 16.0 / (5.0 * kappa * mu)
    assert sol.chi == pytest.approx(g * g / (n * (n - 1) ** 2), rel=1e-12)
    assert sol.product_hbar == pytest.approx(HBAR_OVER_SQRT3, abs=1e-12)


# ----------------------------------------------------------------------
# fermions
# ----------------------------------------------------------------------

def test_tf_energy_trivial_limits():
    assert fermion_tf_energy(1e-14, 100) == pytest.approx(0.0, abs=1e-10)
    # kinetic-only part scales as gamma^2 (switch the attraction off)
    e1 = fermion_tf_energy(1.0, 100, kappa=0.0)
    e2 = fermion_tf_energy(2.0, 100, kappa=0.0)
    assert e2 == pytest.approx(4.0 * e1, rel=1e-13)
    assert e1 > 0.0


def test_tf_energy_rejects_nonpositive_gamma():
    with pytest.raises(ValueError):
        fermion_tf_energy(0.0, 10)
    with pytest.raises(ValueError):
        fermion_tf_energy(math.nan, 10)


def test_coulomb_coefficient_pinned_by_quadrature():
    # int int rho rho' / |r-r'| = (5/16) gamma N^2 for rho = N gamma^3 e^{-gamma r}/(8 pi)
    for gamma, n in ((2.0, 1.0), (0.7, 3.0)):
        got = n * n * coulomb_self_energy_quadrature(gamma)
        assert got == pytest.approx(5.0 * gamma * n * n / 16.0, rel=1e-9)


def test_kinetic_coefficient_pinned_by_quadrature():
    # int rho^{5/3} = C_KIN N^{5/3} gamma^2 for the same profile
    gamma, n = 3.0, 7.0
    got = density_power_integral_quadrature(gamma, n, 5.0 / 3.0)
    assert got == pytest.approx(C_KIN * n ** (5.0 / 3.0) * gamma**2, rel=1e-11)
    # and the analytic constant itself: (27/125) (8 pi)^{-2/3}
    assert C_KIN == pytest.approx((27.0 / 125.0) * (8.0 * math.pi) ** (-2.0 / 3.0),
                                  rel=1e-15)


def test_fermion_solve_structure():
    sol = fermion_solve(1000)
    assert 0.1 < sol.f_factor < 10.0  # "a numerical factor of order unity"
    assert sol.gamma_star == pytest.approx(sol.f_factor * 1000 ** (1.0 / 3.0),
                                           rel=1e-12)
    assert sol.chi == pytest.approx(4.0 / (sol.gamma_star**2 * 1000), rel=1e-14)
    assert sol.energy < 0.0


def test_fermion_minimum_certificate():
    sol = fermion_solve(512, kappa=1.3, mu=0.8)
    e0 = fermion_tf_energy(sol.gamma_star, 512, kappa=1.3, mu=0.8)
    assert fermion_tf_energy(sol.gamma_star * 1.01, 512, kappa=1.3, mu=0.8) > e0
    assert fermion_tf_energy(sol.gamma_star * 0.99, 512, kappa=1.3, mu=0.8) > e0


def test_fermion_chi_pure_power_law():
    # gamma* ~ N^{1/3} exactly, so chi(8N)/chi(N) = 8^{-5/3} = 1/32 exactly
    for n in (4, 100, 10**5):
        ratio = fermion_solve(8 * n).chi / fermion_solve(n).chi
        assert ratio == pytest.approx(1.0 / 32.0, rel=1e-12)


def test_fermion_chi_against_mc_sampling():
    # chi = per-particle spread of the exponential profile / N
    sol = fermion_solve(64)
    rng = np.random.default_rng(31)
    pts = sample_exponential_cloud(sol.gamma_star, 60_000, rng)
    sq = pts**2
    per_particle = float(sq.mean())  # per-axis <r_x^2> = 4/gamma^2
    se = float(np.sqrt(np.sum(sq.var(axis=0, ddof=1) / 60_000)) / 3.0)
    assert abs(per_particle / 64 - sol.chi) <= 4.0 * se / 64


def test_fermion_solve_rejects_small_n():
    with pytest.raises(ValueError):
        fermion_solve(1)


@given(kappa=st.floats(min_value=0.05, max_value=20.0),
       mu=st.floats(min_value=0.05, max_value=20.0),
       n=st.integers(min_value=2, max_value=10**9))
@settings(max_examples=60)
def test_fermion_closed_forms_property(kappa, mu, n):
    sol = fermion_solve(n, kappa=kappa, mu=mu)
    f = 5.0 * 2.0 ** (2.0 / 3.0) / (64.0 * 5.0 * C_KIN)
    assert sol.f_factor == pytest.approx(f, rel=1e-12)
    assert sol.gamma_star == pytest.approx(f * kappa * mu * n ** (1.0 / 3.0),
                                           rel=1e-12)
    # stationarity: gamma* = b/(2a) for E = a g^2 - b g
    a = sol.energy / sol.gamma_star**2 + \
        (5.0 / 32.0) * kappa * n * n / sol.gamma_star
    assert sol.energy == pytest.approx(-a * sol.gamma_star**2, rel=1e-9)


@pytest.mark.parametrize("call", [
    lambda: boson_energy(1.0, 10, hbar=1.0),
    lambda: boson_solve(10, hbar=1.0),
    lambda: fermion_tf_energy(1.0, 10, hbar=1.0),
    lambda: fermion_solve(10, hbar=1.0),
], ids=["boson_energy", "boson_solve", "fermion_tf_energy", "fermion_solve"])
def test_selfgrav_works_in_hbar_one_units(call):
    # hbar = 1 throughout the package; there is no hbar to set
    with pytest.raises(TypeError, match="hbar"):
        call()
