"""Center-of-mass statistics, boosts, free spreading, and superpositions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from varsolid import (SuperpositionSpec, com_statistics, free_spread,
                      galilean_boost, superposition_spread)
from varsolid.observables import MAX_DISPLACEMENT
from test_contract import cases_test

HBAR_OVER_SQRT3 = 1.0 / math.sqrt(3.0)
SQRT_HALF = math.sqrt(0.5)


# ----------------------------------------------------------------------
# com_statistics
# ----------------------------------------------------------------------

def test_chi_direct_substitution():
    stats = com_statistics(2.0, 1)
    assert stats.chi == pytest.approx(1.0, rel=1e-15)  # 4/(lam^2 N)
    assert stats.omega == pytest.approx(4.0 / 12.0, rel=1e-15)


def test_product_is_hbar_over_sqrt3():
    for lam, n in ((91.33, 1e21), (2.0, 1), (500.0, 37)):
        assert com_statistics(lam, n).product == pytest.approx(
            HBAR_OVER_SQRT3, abs=1e-15)


@given(lam=st.floats(min_value=1e-3, max_value=1e3),
       n=st.one_of(st.integers(min_value=1, max_value=10**12),
                   st.floats(min_value=1.0, max_value=1e24)))
def test_product_identity_property(lam, n):
    stats = com_statistics(lam, n)
    assert abs(stats.product - HBAR_OVER_SQRT3) < 1e-12
    assert stats.product >= 0.5  # Heisenberg bound in hbar units
    assert stats.chi > 0.0 and stats.omega > 0.0
    assert np.all(np.asarray(stats.mean_P) == 0.0)


def test_scaling_in_n():
    a = com_statistics(10.0, 100)
    b = com_statistics(10.0, 400)
    assert b.chi == pytest.approx(a.chi / 4.0, rel=1e-14)
    assert b.omega == pytest.approx(a.omega * 4.0, rel=1e-14)


test_com_statistics_rejects_bad_input = cases_test(
    "test_com_statistics_rejects_bad_input")


# ----------------------------------------------------------------------
# boosts and free evolution
# ----------------------------------------------------------------------

def test_boost_identity_at_zero_velocity(krypton_units):
    stats = com_statistics(91.33, 1000)
    boosted = galilean_boost(stats, np.zeros(3), krypton_units)
    assert boosted == stats


def test_boost_sets_momentum_only(krypton_units):
    n = 1000
    stats = com_statistics(91.33, n)
    v = np.array([0.2, 0.0, -0.05])
    boosted = galilean_boost(stats, v, krypton_units)
    # mean_P = N mu v; in hbar/sigma units that is N v / sqrt(Lambda)
    want = n * v / math.sqrt(krypton_units.coupling)
    np.testing.assert_allclose(boosted.mean_P, want, rtol=1e-13)
    # cross-check the unit conversion in SI: N * m * (v sqrt(eps/mu)) * sigma/hbar
    v_si = v[0] * math.sqrt(krypton_units.epsilon_J / krypton_units.mass_kg)
    p_si = n * krypton_units.mass_kg * v_si
    assert boosted.mean_P[0] == pytest.approx(
        p_si * krypton_units.sigma_m / 1.054571817e-34, rel=1e-9)
    assert boosted.chi == stats.chi
    assert boosted.omega == stats.omega
    assert boosted.product == stats.product


def test_free_spread_t_zero(krypton_units):
    stats = com_statistics(50.0, 100)
    assert free_spread(stats, 0.0, krypton_units) == stats.chi


def test_free_spread_pure_t_squared(krypton_units):
    stats = com_statistics(50.0, 100)
    g1 = free_spread(stats, 1.5, krypton_units) - stats.chi
    g2 = free_spread(stats, 3.0, krypton_units) - stats.chi
    assert g2 == pytest.approx(4.0 * g1, rel=1e-12)


def test_free_spread_growth_coefficient(krypton_units):
    # chi(t) = chi + Lambda omega t^2 / N^2 (hbar^2 omega-units make the
    # free-particle coefficient omega/(N mu)^2 come out as Lambda omega/N^2)
    n, lam, t = 250, 75.0, 2.25
    stats = com_statistics(lam, n)
    want = stats.chi + krypton_units.coupling * stats.omega * t * t / n**2
    assert free_spread(stats, t, krypton_units) == pytest.approx(want, rel=1e-14)


@given(t1=st.floats(min_value=0.0, max_value=1e3),
       dt=st.floats(min_value=0.0, max_value=1e3))
@settings(max_examples=50)
@example(t1=357.0, dt=1e-10)  # convex only to within float rounding
def test_free_spread_monotone_and_convex(t1, dt):
    from varsolid import make_krypton_units
    units = make_krypton_units()
    stats = com_statistics(33.0, 64)
    lo, hi = free_spread(stats, t1, units), free_spread(stats, t1 + dt, units)
    assert hi >= lo
    mid = free_spread(stats, t1 + 0.5 * dt, units)
    # convexity; the slack is a few ulps of the compared value, far below
    # the true gap Lambda omega dt^2/(4 N^2) unless dt is tiny
    assert mid <= 0.5 * (lo + hi) + 8 * math.ulp(hi)


test_free_spread_rejects_negative_time = cases_test(
    "test_free_spread_rejects_negative_time")


test_boost_and_spread_reject_non_finite_results = cases_test(
    "test_boost_and_spread_reject_non_finite_results")


# ----------------------------------------------------------------------
# superpositions of translated copies
# ----------------------------------------------------------------------

def two_branch_spec(L, cutoff=1.0):
    return SuperpositionSpec(
        displacements=np.array([[-L / 2, 0.0, 0.0], [L / 2, 0.0, 0.0]]),
        weights=np.array([1.0, 1.0]) / math.sqrt(2.0),
        cutoff_a=cutoff)


def test_single_branch_is_intrinsic():
    spec = SuperpositionSpec(displacements=np.zeros((1, 3)),
                             weights=np.array([1.0]), cutoff_a=1.0)
    lam, n = 91.33, 1e6
    var = superposition_spread(spec, lam, n)
    np.testing.assert_allclose(var, com_statistics(lam, n).chi, rtol=1e-14)


def test_two_branch_variance():
    lam, n, L = 91.33, 1e6, 10.0
    var = superposition_spread(two_branch_spec(L), lam, n)
    chi = com_statistics(lam, n).chi
    assert var[0] == pytest.approx(chi + L * L / 4.0, rel=1e-12)
    assert var[1] == pytest.approx(chi, rel=1e-12)
    assert var[2] == pytest.approx(chi, rel=1e-12)


def test_spread_grows_without_bound():
    lam, n = 91.33, 1e6
    v1 = superposition_spread(two_branch_spec(1e3), lam, n)[0]
    v2 = superposition_spread(two_branch_spec(1e6), lam, n)[0]
    assert v2 > 1e5 * v1


def test_translation_invariance():
    lam, n = 50.0, 100
    spec = two_branch_spec(7.0)
    shifted = SuperpositionSpec(displacements=spec.displacements
                                + np.array([3.0, -2.0, 11.0]),
                                weights=spec.weights, cutoff_a=spec.cutoff_a)
    np.testing.assert_allclose(superposition_spread(shifted, lam, n),
                               superposition_spread(spec, lam, n),
                               rtol=1e-12, atol=1e-25)


def test_complex_weights_use_modulus():
    L = 6.0
    spec = SuperpositionSpec(
        displacements=np.array([[0.0, 0.0, 0.0], [L, 0.0, 0.0]]),
        weights=np.array([0.8, 0.6j]), cutoff_a=1.0)
    lam, n = 91.33, 1e6
    var = superposition_spread(spec, lam, n)
    chi = com_statistics(lam, n).chi
    # mixture variance of {0, L} with probabilities {0.64, 0.36}
    want = chi + 0.36 * L * L - (0.36 * L) ** 2
    assert var[0] == pytest.approx(want, rel=1e-12)


test_unnormalized_weights_rejected = cases_test("test_unnormalized_weights_rejected")


test_huge_or_non_finite_displacements_rejected = cases_test(
    "test_huge_or_non_finite_displacements_rejected")


def test_largest_displacement_gives_finite_spreads():
    spec = SuperpositionSpec(
        displacements=np.array([[-MAX_DISPLACEMENT] * 3, [MAX_DISPLACEMENT] * 3]),
        weights=np.array([SQRT_HALF, SQRT_HALF]), cutoff_a=1.0)
    assert math.isfinite(spec.min_separation())
    var = superposition_spread(spec, 50.0, 100.0)
    assert np.all(np.isfinite(var))
    assert var[0] == pytest.approx(MAX_DISPLACEMENT**2, rel=1e-12)


test_non_finite_weights_rejected = cases_test("test_non_finite_weights_rejected")


def test_overlapping_branches_rejected():
    with pytest.raises(ValueError):
        two_branch_spec(1.5, cutoff=1.0)  # separation 1.5 < 2a = 2


def test_contact_separation_accepted_with_zero_overlap():
    spec = two_branch_spec(2.0, cutoff=1.0)  # separation exactly 2a
    assert spec.min_separation() == 2.0


def test_branch_overlap_disjoint_supports():
    spec = two_branch_spec(3.0, cutoff=1.0)
    assert spec.min_separation() == pytest.approx(3.0)


def test_multibranch_requires_finite_cutoff():
    with pytest.raises(ValueError):
        SuperpositionSpec(
            displacements=np.array([[0.0, 0.0, 0.0], [9.0, 0.0, 0.0]]),
            weights=np.array([1.0, 1.0]) / math.sqrt(2.0),
            cutoff_a=math.inf)
