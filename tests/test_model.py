"""Site orbital, two-Yukawa potential, transforms, and the pair energy.

The pair energy has three independent oracles, exercised here:

* a non-oscillatory real-space quadrature (bipolar reduction),
* the Fourier-space mapped adaptive quadrature,
* six-dimensional Monte Carlo.

The closed form must agree with all of them, including inside the
near-degenerate windows lam ~ m and lam ~ n where the float64
partial-fraction expression loses digits and the implementation switches to
extended precision.
"""

import dataclasses
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath.libmp import mpf_exp
from scipy import integrate
from scipy.optimize import minimize_scalar

from varsolid import (DEGENERACY_WINDOW, LatticeKind, OrbitalParams,
                      TwoYukawaParams, density_fourier, energy_per_particle,
                      enumerate_shells, make_krypton_units, pair_energy,
                      two_yukawa, two_yukawa_fourier)
from varsolid.model import (_FLOAT_OPS, _MP_OPS, EXPM1_FLOOR, FAR_LAM_S,
                            _closed_form, _mp_exp, _mp_expm1, _mp_float)
from varsolid.optimize import SEARCH_BOX
from varsolid.oracle import (mc_pair_energy, pair_energy_quadrature,
                             pair_energy_realspace_reference,
                             radial_transform_check)
from test_contract import cases_test
from test_golden import UNIT_SHELLS, golden_test, in_window

LAM_KR = 91.33
D_KR = 3.953 / 3.6  # nearest-neighbor distance in sigma units
POT = TwoYukawaParams()


# ----------------------------------------------------------------------
# density transform
# ----------------------------------------------------------------------

def test_density_fourier_special_points():
    p = OrbitalParams(7.3)
    assert density_fourier(p, 0.0) == 1.0
    assert density_fourier(p, 7.3) == pytest.approx(0.25, rel=1e-14)


def test_density_fourier_against_transform_quadrature():
    lam = LAM_KR
    got = radial_transform_check(
        lambda r: lam**3 * np.exp(-lam * r) / (8.0 * math.pi), 10.0)
    assert got == pytest.approx(density_fourier(OrbitalParams(lam), 10.0),
                                rel=1e-10)


@given(lam=st.floats(min_value=0.1, max_value=500.0),
       k=st.floats(min_value=0.0, max_value=5000.0))
def test_density_fourier_bounded_and_decreasing(lam, k):
    p = OrbitalParams(lam)
    val = density_fourier(p, k)
    assert 0.0 < val <= 1.0
    assert density_fourier(p, k + 1.0) < val


test_orbital_params_validation = cases_test("test_orbital_params_validation")


# ----------------------------------------------------------------------
# potential
# ----------------------------------------------------------------------

def test_two_yukawa_zero_at_sigma():
    # r = 1 is sigma, the natural length unit, for every (b, m, n)
    assert two_yukawa(1.0, POT) == 0.0
    assert two_yukawa(1.0, TwoYukawaParams(b=3.0, m=1.5, n=9.0)) == 0.0


def test_two_yukawa_tail_negative_and_tiny():
    v = two_yukawa(10.0, POT)
    assert v < 0.0
    assert abs(v) < 1e-9


def test_two_yukawa_well_depth_near_minus_one():
    # b = 2.026 was fitted so the well depth is about -1 epsilon near 1.1 sigma
    res = minimize_scalar(lambda r: two_yukawa(r, POT), bounds=(1.0, 1.6),
                          method="bounded")
    assert res.fun == pytest.approx(-1.0, abs=0.05)
    assert 1.0 < res.x < 1.2


test_two_yukawa_rejects_nonpositive_r = cases_test(
    "test_two_yukawa_rejects_nonpositive_r")


def test_two_yukawa_of_a_float_is_bitwise_the_array_form():
    # a float skips the array round trip but keeps every operation
    r = np.concatenate((np.geomspace(1e-3, 60.0, 20_000), [0.5, 1.0, 1.1, 1e-280, 1e300]))
    for pot in (POT, TwoYukawaParams(b=0.7, m=1.3, n=40.0)):
        got = [two_yukawa(x, pot) for x in r.tolist()]
        assert got == two_yukawa(r, pot).tolist()
        assert {type(v) for v in got} == {float}
    assert two_yukawa(np.float64(1.1), POT) == two_yukawa(1.1, POT)


test_fourier_transforms_reject_negative_or_nan_k = cases_test(
    "test_fourier_transforms_reject_negative_or_nan_k")


def test_fourier_transforms_keep_the_infinite_k_limit():
    assert density_fourier(OrbitalParams(7.3), math.inf) == 0.0
    assert two_yukawa_fourier(math.inf, POT) == 0.0
    # (k/lam)^2 and k^2 overflowed, with a warning, on their way to 0.0;
    # below the switch every value keeps its bits
    for lam in (7.3, 1e-300):
        k = np.array([1e308, 2.0**512, 2.0**511 * lam, 2.0**511 * lam * (1 - 2.0**-52), 1e150])
        got = density_fourier(OrbitalParams(lam), k)
        assert got.tolist() == [0.0, 0.0, 0.0, 0.0, (1.0 + (1e150 / lam) ** 2) ** -2]
    assert two_yukawa_fourier(1e308, POT) == 0.0
    assert two_yukawa_fourier(2.0**512 * (1 - 2.0**-53), POT) != 0.0
    # from 2^512 on, the tail -4 pi b (e^m - e^n)/k^2; at n = 709 it is ~11.6
    # there, where v~ once jumped to 0.0
    heavy = TwoYukawaParams(n=709.0)
    assert two_yukawa_fourier(2.0**512, heavy) == pytest.approx(
        two_yukawa_fourier(2.0**512 * (1 - 2.0**-53), heavy), rel=1e-15)


test_two_yukawa_params_validation = cases_test("test_two_yukawa_params_validation")


def test_two_yukawa_params_are_in_natural_units():
    # lengths are in sigma and energies in epsilon (UnitSystem holds both),
    # so the potential has no scales of its own to set; sigma = 1.0 stays a
    # class constant, not a field, for the benchmark harness that reads it
    for name in ("epsilon", "sigma"):
        with pytest.raises(TypeError):
            TwoYukawaParams(**{name: 1.0})
    assert TwoYukawaParams().sigma == 1.0
    assert [f.name for f in dataclasses.fields(TwoYukawaParams)] == ["b", "m", "n"]


def test_fourier_at_zero_is_volume_integral():
    want = -4.0 * math.pi * 2.026 * (math.exp(2.69) / 2.69**2
                                     - math.exp(14.70) / 14.70**2)
    assert two_yukawa_fourier(0.0, POT) == pytest.approx(want, rel=1e-14)
    got = radial_transform_check(lambda r: two_yukawa(r, POT), 0.0)
    assert got == pytest.approx(want, rel=1e-10)


def test_fourier_matches_sine_quadrature_at_random_k():
    rng = np.random.default_rng(42)
    for k in rng.uniform(0.05, 80.0, size=8):
        got = radial_transform_check(lambda r: two_yukawa(r, POT), float(k))
        assert got == pytest.approx(two_yukawa_fourier(float(k), POT),
                                    rel=1e-9)


def test_fourier_large_k_falls_like_k_squared():
    # k^2 * v~(k) -> -4 pi b (e^m - e^n) as k -> infinity
    limit = -4.0 * math.pi * 2.026 * (math.exp(2.69) - math.exp(14.70))
    assert 1e5**2 * two_yukawa_fourier(1e5, POT) == pytest.approx(limit, rel=1e-6)


# ----------------------------------------------------------------------
# pair energy
# ----------------------------------------------------------------------

def test_pair_energy_far_separation_vanishes():
    assert abs(pair_energy(OrbitalParams(LAM_KR), POT, 50.0)) < 1e-12


def test_pair_energy_same_site_positive():
    assert pair_energy(OrbitalParams(LAM_KR), POT, 0.0) > 0.0


def test_pair_energy_signs_at_physical_points():
    p = OrbitalParams(LAM_KR)
    assert pair_energy(p, POT, D_KR) < 0.0
    assert pair_energy(p, POT, 0.0) > 0.0


def test_pair_energy_continuity_in_s():
    p = OrbitalParams(LAM_KR)
    for s in (0.0, 0.3, D_KR, 2.0):
        v0 = pair_energy(p, POT, s)
        v1 = pair_energy(p, POT, s + 1e-7)
        assert abs(v1 - v0) < 1e-4 * max(1.0, abs(v0))


@pytest.mark.parametrize("lam,s", [
    (91.33, 0.0), (91.33, 1.0981), (91.33, 2.1962), (50.0, 1.3),
    (200.0, 0.9), (5.0, 2.0), (30.0, 0.05),
    # narrow densities: unfactored, the reference's e^{-a|s-w|} - e^{-a(s+w)}
    # cancels to 0.0, and its quadrature needs break points on the 1/lam peak
    (1e6, 1.1), (1e10, 1.1), (1e20, 1.1), (1e30, 3.0), (1e6, 0.0),
])
def test_pair_energy_matches_realspace_reference(lam, s):
    cf = pair_energy(OrbitalParams(lam), POT, s)
    ref = pair_energy_realspace_reference(OrbitalParams(lam), POT, s)
    assert cf == pytest.approx(ref, rel=2e-11)


@pytest.mark.parametrize("lam", [
    2.69, 14.70,                      # exact degeneracy with both exponents
    2.69 * (1 + 1e-9), 14.70 * (1 - 1e-7),
    2.69 * 1.04, 14.70 * 0.96,        # just inside the switch window
    2.69 * 1.06, 14.70 * 1.06,        # just outside: float64 branch
])
def test_pair_energy_through_degenerate_windows(lam, s=1.1):
    cf = pair_energy(OrbitalParams(lam), POT, s)
    ref = pair_energy_realspace_reference(OrbitalParams(lam), POT, s)
    assert cf == pytest.approx(ref, rel=1e-10)


def test_degeneracy_window_constant_sane():
    assert 0.0 < DEGENERACY_WINDOW < 0.5


def test_pair_energy_matches_fourier_quadrature_when_it_converges():
    # the mapped k-space quadrature is reliable at small separations; at
    # large lam*s its own error estimate blows up (oscillatory cancellation)
    p = OrbitalParams(LAM_KR)
    for s in (0.0, 0.2):
        val, err = pair_energy_quadrature(p, POT, s)
        cf = pair_energy(p, POT, s)
        assert abs(val - cf) <= max(3.0 * err, 1e-8 * abs(cf))


def test_pair_energy_matches_monte_carlo():
    p = OrbitalParams(LAM_KR)
    est = mc_pair_energy(p, POT, D_KR, samples=200_000, seed=11)
    cf = pair_energy(p, POT, D_KR)
    assert abs(est.mean - cf) <= 3.0 * est.std_error


def test_plancherel_norm_of_site_density():
    # (1/2 pi^2) int k^2 n~(k)^2 dk = int n(r)^2 d^3r = lam^3/(64 pi)
    lam = LAM_KR
    p = OrbitalParams(lam)
    val, _ = integrate.quad(lambda k: k * k * density_fourier(p, k) ** 2,
                            0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    assert val / (2.0 * math.pi**2) == pytest.approx(lam**3 / (64.0 * math.pi),
                                                     rel=1e-9)


# s is bounded away from 0 because the *reference* cancels like eps/(2 m s)
# there; the closed form's own s->0 behavior is covered by the exact s=0
# branch plus the continuity test above.
@given(lam=st.floats(min_value=5.0, max_value=300.0),
       s=st.floats(min_value=1e-5, max_value=3.0))
@settings(max_examples=25, deadline=None)
def test_pair_energy_property_against_realspace(lam, s):
    cf = pair_energy(OrbitalParams(lam), POT, s)
    ref = pair_energy_realspace_reference(OrbitalParams(lam), POT, s)
    assert cf == pytest.approx(ref, rel=5e-10, abs=1e-250)


@pytest.mark.parametrize("lam,s", [(1.0, 60.0), (10.0, 200.0), (1.0, 1000.0)])
def test_pair_energy_small_lambda_far_separation_does_not_overflow(lam, s):
    # lam below both exponents: (alpha - lam) s passes 709, where
    # e^{(alpha - lam) s} would overflow although the energy is tiny
    p = OrbitalParams(lam)
    cf = pair_energy(p, POT, s)
    assert math.isfinite(cf)
    assert pair_energy(p, POT, np.array([s])).tolist() == [cf]
    if s < 500.0:  # beyond, both are below the smallest double
        ref = pair_energy_realspace_reference(p, POT, s)
        assert cf == pytest.approx(ref, rel=1e-10, abs=1e-300)


test_pair_energy_rejects_negative_s = cases_test("test_pair_energy_rejects_negative_s")


@pytest.mark.parametrize("lam", [LAM_KR, 2.69])  # the float and window branches
def test_pair_energy_of_no_separations_is_empty(lam):
    p = OrbitalParams(lam)
    assert pair_energy(p, POT, np.array([])).shape == (0,)
    for order in (1, 2):
        assert pair_energy(p, POT, np.array([]), order=order).shape == (order + 1, 0)


# ----------------------------------------------------------------------
# array kernel
# ----------------------------------------------------------------------

def _pair_energy_python_floats(lam, s):
    """The float closed form in Python floats, one separation at a time."""
    def smeared(alpha):
        d = (alpha - lam) * (alpha + lam)
        lam8 = lam**8
        a_, b2, b3, b4 = lam8 / d**4, lam8 / d**3, -lam8 / d**2, lam8 / d
        if s == 0.0:
            core = lam - alpha
        elif lam < alpha:
            core = math.exp(-lam * s) * math.expm1(-(alpha - lam) * s) / s
        else:
            core = -math.exp(-alpha * s) * math.expm1(-(lam - alpha) * s) / s
        x = lam * s
        return (a_ * core / (4.0 * math.pi)
                + math.exp(-lam * s) * (b2 / (8.0 * math.pi * lam)
                                        + b3 * (1.0 + x) / (32.0 * math.pi * lam**3)
                                        + b4 * (3.0 + 3.0 * lam * s + x * x)
                                        / (192.0 * math.pi * lam**5)))
    return -4.0 * math.pi * POT.b * (
        math.exp(POT.m) * smeared(POT.m) - math.exp(POT.n) * smeared(POT.n))


@given(lam=st.floats(*SEARCH_BOX["lambda"]).filter(lambda v: not in_window(v)),
       d=st.floats(*SEARCH_BOX["d"]))
@settings(max_examples=60, deadline=None)
@example(lam=30.0, d=1.1)  # expm1 saturated at the far shells only
@example(lam=1e6, d=0.3)  # e^{-lam s} 0.0 at every shell
@example(lam=1e-2, d=20.0)
def test_pair_energy_array_is_bitwise_the_scalar_form(lam, d):
    # the whole search box outside the window, where exp and expm1
    # saturate at some, all or none of the shells
    s = np.concatenate(([0.0], UNIT_SHELLS * d))
    p = OrbitalParams(lam)
    got = pair_energy(p, POT, s)
    assert isinstance(got, np.ndarray) and got.shape == s.shape
    assert got.tolist() == [pair_energy(p, POT, float(x)) for x in s]
    assert got.tolist() == [_pair_energy_python_floats(lam, float(x)) for x in s]


@pytest.mark.parametrize("lam", [2.0, 8.0, 30.0, 91.2, 1e3])
def test_pair_energy_of_reordered_separations_is_bitwise_per_entry(lam):
    # the call picks its exponential passes from the smallest separation,
    # wherever it sits, and no order of the separations may change an
    # entry: reversed and shuffled shells, with s = 0 and a subnormal s
    # among them, give the per-entry scalar rows
    s = np.concatenate(([0.0, 5e-324], UNIT_SHELLS * 1.1))
    p = OrbitalParams(lam)
    for order in (0, 1, 2):
        want = np.stack([np.ravel(pair_energy(p, POT, x, order)) for x in s.tolist()], axis=-1)
        for perm in (np.arange(s.size)[::-1], np.random.default_rng(order).permutation(s.size)):
            got = pair_energy(p, POT, s[perm], order)
            assert np.reshape(got, (order + 1, -1)).tolist() == want[:, perm].tolist(), order


def test_pair_energy_array_keeps_shape_and_scalar_gives_float():
    p = OrbitalParams(LAM_KR)
    grid = np.array([[0.0, 0.9], [1.1, 2.0]])
    got = pair_energy(p, POT, grid)
    assert got.shape == (2, 2)
    assert got[1, 0] == pair_energy(p, POT, 1.1)
    assert type(pair_energy(p, POT, 1.1)) is float
    assert type(pair_energy(p, POT, 0)) is float


@pytest.mark.parametrize("lam", [2.69, 2.69 * 1.03, 14.70 * (1 - 1e-7), 14.70 * 0.97])
def test_pair_energy_array_inside_window_matches_reference(lam):
    p = OrbitalParams(lam)
    s = np.array([0.0, 1.1, 1.1 * math.sqrt(2.0)])
    got = pair_energy(p, POT, s)
    for x, value in zip(s.tolist(), got.tolist()):
        ref = pair_energy_realspace_reference(p, POT, x)
        assert value == pytest.approx(ref, rel=1e-9)
        assert value == pair_energy(p, POT, x)


test_pair_energy_window_values_are_recorded_bitwise = golden_test(
    "test_pair_energy_window_values_are_recorded_bitwise")


test_pair_energy_window_shell_array_is_recorded_bitwise = golden_test(
    "test_pair_energy_window_shell_array_is_recorded_bitwise")


test_pair_energy_array_rejects_non_finite_or_negative = cases_test(
    "test_pair_energy_array_rejects_non_finite_or_negative")


@pytest.mark.parametrize("order", [0, 1, 2])
def test_far_separation_is_the_limit_zero_in_every_row(order):
    # lam s = 1e314 overflows: e^{-lam s} is 0.0 there, and the polynomial
    # it multiplies was inf, so the entry was 0.0 * inf = NaN with overflow
    # and invalid-value warnings.  That product is 0.0 now, and so are the
    # core terms, whose e^{-alpha s} is 0.0 too: the entry is the limit 0.0
    # in every row, and the other entries keep their bits
    p = OrbitalParams(1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = pair_energy(p, POT, np.array([1e308, 1.0, 0.0]), order=order)
        near = pair_energy(p, POT, np.array([1.0, 0.0]), order=order)
        one = pair_energy(p, POT, 1e308, order=order)
    assert np.ravel(got[..., 0]).tolist() == [0.0] * (order + 1)
    assert np.ravel(one).tolist() == [0.0] * (order + 1)
    assert [x.hex() for x in np.ravel(got[..., 1:])] == [x.hex() for x in np.ravel(near)]


test_far_separation_keeps_its_core_terms = golden_test(
    "test_far_separation_keeps_its_core_terms")


@pytest.mark.parametrize("lam", [1e6, LAM_KR, 1e30])
def test_entries_at_the_far_threshold_are_bitwise_per_entry(lam):
    # the gate tests smax lam and the stand-in is min(s, FAR_LAM_S/lam);
    # an entry next to the threshold, alone or beside a far one, gives
    # the same bits
    edge = FAR_LAM_S / lam
    s = np.array([np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf),
                  1e-3 * edge, 10.0 * edge])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = pair_energy(OrbitalParams(lam), POT, s, order=2)
        one = [pair_energy(OrbitalParams(lam), POT, x, order=2) for x in s]
    assert [x.hex() for x in np.ravel(rows.T)] == [x.hex() for x in np.ravel(one)]


@pytest.mark.parametrize("lam", [1e16, 1e30, 2.0**126])
def test_same_site_energy_of_a_huge_lam_is_finite(lam):
    # s |lam - alpha| is 0 at s = 0 whatever lam; the s -> 0 limit once ran
    # only when smin < FLOAT_MIN/|lam - alpha|, a quotient that underflows
    # to 0 past lam ~ 5e15, and s = 0 then gave 0/0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = pair_energy(OrbitalParams(lam), POT, np.array([0.0, 1e-300, 1.0 / lam]), order=2)
    assert np.isfinite(rows).all()


test_pair_energy_fails_closed_past_the_doubles = cases_test(
    "test_pair_energy_fails_closed_past_the_doubles")


test_pair_energy_rejects_a_lam_beyond_the_doubles = cases_test(
    "test_pair_energy_rejects_a_lam_beyond_the_doubles")


# ----------------------------------------------------------------------
# lam-derivative rows
# ----------------------------------------------------------------------

def _gap(lam, pot=POT):
    return min(abs(lam - pot.m) / pot.m, abs(lam - pot.n) / pot.n)


def _mp_lam_rows(lam, s, pot=POT):
    """(E, dE/dlam, d2E/dlam2) at one separation: mp.diff of the mpmath
    closed form at 60 digits, plus 6 per decade of closeness to an exponent
    (an exact coincidence is nudged as pair_energy nudges it)."""
    decades = max(0, math.ceil(-math.log10(max(_gap(lam, pot), 1e-30))))
    with mp.workdps(60 + 6 * decades):
        am, an = mp.mpf(pot.m), mp.mpf(pot.n)
        pieces = ((mp.exp(pot.m), am), (mp.exp(pot.n), an))
        s_mp = np.array([mp.mpf(s)], dtype=object)
        lam_mp = mp.mpf(lam)
        if lam_mp in (am, an):
            lam_mp *= 1 + mp.mpf(10) ** -30
        return [float(mp.diff(lambda x: _closed_form(x, pot, pieces, s_mp, s, _MP_OPS)[0],
                              lam_mp, n)) for n in (0, 1, 2)]


def _assert_rows_match_mp_diff(lam, s, rel, pot=POT):
    got = pair_energy(OrbitalParams(lam), pot, s, order=2)
    assert got.shape == (3,)
    want = _mp_lam_rows(lam, s, pot)
    for k in (0, 1, 2):
        # a row may pass through 0 in s; |E|/lam^k is its natural size there
        scale = abs(want[k]) + abs(want[0]) / lam**k
        assert abs(got[k] - want[k]) <= rel(k) * scale, (k, got[k], want[k])


@given(lam=st.floats(min_value=1.0, max_value=500.0).filter(lambda v: not in_window(v)),
       s=st.just(0.0) | st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=30, deadline=None)
@example(lam=14.70 * (1.0 + DEGENERACY_WINDOW), s=0.0)  # the window edge
@example(lam=2.69 * (1.0 - DEGENERACY_WINDOW), s=1.1)
@example(lam=91.2, s=0.0)
@example(lam=1.0, s=5e-324)  # s |lam - alpha| subnormal: core takes its s -> 0 limit
def test_float_branch_lam_rows_match_mp_diff(lam, s):
    # the float closed form loses ~gap^-3 to cancellation near an exponent,
    # one more power per derivative
    _assert_rows_match_mp_diff(lam, s, lambda k: 1e-12 * max(1.0, 1.0 / _gap(lam)) ** (3 + k))


@given(alpha=st.sampled_from([2.69, 14.70]),
       rel_gap=st.floats(min_value=-0.999 * DEGENERACY_WINDOW,
                         max_value=0.999 * DEGENERACY_WINDOW),
       s=st.just(0.0) | st.floats(min_value=0.0, max_value=3.0))
@settings(max_examples=15, deadline=None)
@example(alpha=14.70, rel_gap=0.0, s=1.1)  # exact coincidence
@example(alpha=2.69, rel_gap=1e-9, s=0.0)
def test_window_branch_lam_rows_match_mp_diff(alpha, rel_gap, s):
    lam = alpha * (1.0 + rel_gap)
    assert in_window(lam)
    _assert_rows_match_mp_diff(lam, s, lambda k: 1e-12)


test_float_branch_lam_rows_are_recorded_bitwise = golden_test(
    "test_float_branch_lam_rows_are_recorded_bitwise")


@given(lam=st.floats(min_value=1.0, max_value=500.0).filter(lambda v: not in_window(v)),
       d=st.floats(min_value=0.3, max_value=3.0))
@settings(max_examples=30, deadline=None)
def test_value_row_is_bitwise_the_order_0_result(lam, d):
    s = np.concatenate(([0.0], UNIT_SHELLS * d))
    p = OrbitalParams(lam)
    want = pair_energy(p, POT, s).tolist()
    for order in (1, 2):
        rows = pair_energy(p, POT, s, order=order)
        assert rows.shape == (order + 1, s.size)
        assert rows[0].tolist() == want


@pytest.mark.parametrize("lam", [2.69, 2.69 * 1.03, 14.70 * 0.97])
def test_window_value_row_is_bitwise_the_order_0_result(lam):
    p = OrbitalParams(lam)
    s = np.array([0.0, 1.1, 1.1 * math.sqrt(2.0)])
    assert pair_energy(p, POT, s, order=2)[0].tolist() == pair_energy(p, POT, s).tolist()


#: mpmath's own exp and expm1, the ops the window ran before its libmp maps
MPMATH_OPS = (np.frompyfunc(mp.exp, 1, 1), np.frompyfunc(mp.expm1, 1, 1), mp.pi, -math.inf)


def _window_reference(lam, s, order):
    """The window's rows as the term-by-term closed form with MPMATH_OPS, at
    the digits pair_energy works with (an exact coincidence nudged alike)."""
    decades = max(0, math.ceil(-math.log10(max(_gap(lam), 1e-30))))
    with mp.workdps(30 + (4 + order) * decades):
        am, an = mp.mpf(POT.m), mp.mpf(POT.n)
        lam_mp = mp.mpf(lam)
        if lam_mp in (am, an):
            lam_mp *= 1 + mp.mpf(10) ** -30
        pieces = ((mp.exp(POT.m), am), (mp.exp(POT.n), an))
        s_mp = np.frompyfunc(mp.mpf, 1, 1)(s)
        return _closed_form(lam_mp, POT, pieces, s_mp, float(s.min()), MPMATH_OPS,
                            order).astype(float)


#: s = 0, the smallest subnormal, 1e-12 and the 133 shells at d = 0.9, 1.2, 1.5
WINDOW_SEPARATIONS = np.concatenate(([0.0, 5e-324, 1e-12], UNIT_SHELLS * 0.9,
                                     UNIT_SHELLS * 1.2, UNIT_SHELLS * 1.5))


@pytest.mark.parametrize("alpha", [2.69, 14.70])
@pytest.mark.parametrize("rel_gap", [-0.0499, 0.01, -1e-3, 1e-6, -1e-12, 0.0])
def test_window_rows_round_to_the_term_by_term_form(alpha, rel_gap):
    # the window takes every row from the lam-jet polynomial and runs exp
    # and expm1 through libmp; rounded to doubles, its rows are those of the
    # term-by-term closed form with mpmath's own exp and expm1
    lam = alpha * (1.0 + rel_gap)
    assert in_window(lam)
    p, s = OrbitalParams(lam), WINDOW_SEPARATIONS
    for order in (0, 1, 2):
        got = pair_energy(p, POT, s, order=order)
        assert got.tolist() == _window_reference(lam, s, order).tolist(), order
        for i in (0, 1, 2, 3, 3 + 133, 3 + 266, s.size - 1):
            one = pair_energy(p, POT, float(s[i]), order=order)
            assert np.ravel(one).tolist() == np.ravel(got[..., i]).tolist(), (order, i)


@pytest.mark.parametrize("lam", [2.69 * 0.98, 2.69 * 1.02, 14.70 * 0.99, 14.70 * 1.01])
@pytest.mark.parametrize("order", [0, 2])
def test_window_makes_three_exponentials_per_separation(monkeypatch, lam, order):
    # e^{-lam s} and one expm1 per Yukawa piece, on either side of either
    # exponent; every window exp and expm1 is one libmp mpf_exp
    calls = []

    def counted(*args):
        calls.append(args)
        return mpf_exp(*args)

    monkeypatch.setattr("varsolid.model.mpf_exp", counted)
    assert in_window(lam)
    pair_energy(OrbitalParams(lam), POT, UNIT_SHELLS * 1.1, order=order)
    assert len(calls) == 3 * UNIT_SHELLS.size


@pytest.mark.parametrize("dps", [38, 150])
@pytest.mark.parametrize("x", [0.0, -1e-40, -1e-6, -0.7, -13.2, 1e-30, 2.5])
def test_libmp_maps_match_mpmath(dps, x):
    with mp.workdps(dps):
        v = mp.mpf(x)
        assert _mp_exp(v) == mp.exp(v)
        got, want = _mp_expm1(v), mp.expm1(v)
        if x == 0.0:
            assert got == 0 and want == 0
        else:
            ulp = mp.mpf(2) ** (mp.mag(want) - mp.mp.prec)
            assert abs(got - want) <= ulp
        assert float(got) == float(want)


@pytest.mark.parametrize("dps", [30, 150])
def test_window_separations_convert_exactly(dps):
    # the window's libmp conversion of the separations is mp.mpf's, bit for bit
    with mp.workdps(dps):
        got = np.frompyfunc(_mp_float, 1, 1)(WINDOW_SEPARATIONS)
        want = np.frompyfunc(mp.mpf, 1, 1)(WINDOW_SEPARATIONS)
        assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


def test_lam_rows_stay_finite_for_a_huge_coupling():
    # the rows scale with b; the scale -4 pi b once went into the
    # scalar jets before the array product, and at b = 1e300 they overflowed
    # into NaN derivative rows under a finite value row
    p = OrbitalParams(91.2)
    s = np.array([0.0, 0.5, 1.0981, 2.0, 5.0])
    huge = pair_energy(p, TwoYukawaParams(b=1e300), s, order=2)
    assert np.isfinite(huge).all()
    np.testing.assert_allclose(huge / (1e300 / POT.b), pair_energy(p, POT, s, order=2),
                               rtol=1e-15, atol=0.0)


def test_lam_rows_stay_finite_for_the_largest_exponent():
    # the n piece's weight e^709 ~ 8e307 once went into the scalar jets,
    # and lam^2 times one of them overflowed into NaN derivative rows under
    # a finite value row; an exact power of two of it now waits in the scale
    pot = TwoYukawaParams(n=709.0)
    p = OrbitalParams(91.2)
    shells = enumerate_shells(LatticeKind.FCC, 1.0, 12.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = energy_per_particle(p, pot, shells, make_krypton_units())
        for order in (1, 2):
            got = energy_per_particle(p, pot, shells, make_krypton_units(), order=order)
            assert got.total == value.total
            assert len(got.lam_derivatives) == order
            assert all(math.isfinite(x) for x in got.lam_derivatives)
        s = np.array([0.0, 0.5, 1.0, 1.1, 2.0])
        rows = pair_energy(p, pot, s, order=2)
        assert rows[0].tolist() == pair_energy(p, pot, s).tolist()
        assert pair_energy(p, pot, s, order=1).tolist() == rows[:2].tolist()
        for x in s.tolist():
            _assert_rows_match_mp_diff(91.2, x, lambda k: 1e-12, pot)


def test_lam_rows_keep_the_shape_of_s():
    p = OrbitalParams(LAM_KR)
    assert pair_energy(p, POT, 1.1, order=1).shape == (2,)
    grid = np.array([[0.0, 0.9], [1.1, 2.0]])
    rows = pair_energy(p, POT, grid, order=2)
    assert rows.shape == (3, 2, 2)
    assert rows[:, 1, 0].tolist() == pair_energy(p, POT, 1.1, order=2).tolist()
    for bad in (-1, 3, 1.5):
        with pytest.raises(ValueError, match="order"):
            pair_energy(p, POT, 1.1, order=bad)


def test_saturation_floors_of_exp_and_expm1():
    # core skips the expm1 pass of a piece whose argument is at or below
    # EXPM1_FLOOR at every separation: -1.0 is what expm1 gives there; the
    # float maps give the same 0.0 and -1.0 past the floors
    for x in np.concatenate((np.linspace(EXPM1_FLOOR, 40 * EXPM1_FLOOR, 4001),
                             [EXPM1_FLOOR, -math.inf])).tolist():
        assert math.expm1(x) == -1.0, x
    exp, expm1, *_ = _FLOAT_OPS
    assert expm1(np.array([EXPM1_FLOOR, -1e3, -math.inf])).tolist() == [-1.0] * 3
    assert exp(np.array([-746.0, -1e4, -math.inf])).tolist() == [0.0] * 3
    assert exp(np.array([])).size == 0


@pytest.mark.parametrize("name", ["exp", "expm1"])
def test_float_maps_are_bitwise_math(name):
    # the float branch maps exp and expm1 through numpy's complex128 forms,
    # which call libm as math does; at every argument it can make (never
    # positive), in any shape, each entry is math's value, sign of 0 too
    fn, f = {"exp": (math.exp, _FLOAT_OPS[0]), "expm1": (math.expm1, _FLOAT_OPS[1])}[name]
    rng = np.random.default_rng(11)
    x = np.concatenate((-rng.random(200_000) * 800,
                        -rng.random(50_000) * 40 - 705,  # subnormal and 0.0 results
                        -rng.random(50_000) * 1e-3,
                        [-0.0, 0.0, -5e-324, -1e-300, -math.inf, -745.1332191019411,
                         -708.3964185322641, EXPM1_FLOOR]))
    want = np.array([fn(v) for v in x.tolist()])
    got = f(x)
    assert got.flags.c_contiguous and got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    grid = x[:12].reshape(3, 4)
    assert np.array_equal(f(grid).view(np.int64), want[:12].reshape(3, 4).view(np.int64))
