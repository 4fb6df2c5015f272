"""Site orbital, two-Yukawa potential, transforms, and the pair energy.

The pair energy has three independent oracles, exercised here:

* a non-oscillatory real-space quadrature (bipolar reduction),
* the Fourier-space mapped adaptive quadrature,
* six-dimensional Monte Carlo.

The closed form must agree with all of them, including inside the
near-degenerate windows lam ~ m/sigma and lam ~ n/sigma where the float64
partial-fraction expression loses digits and the implementation switches to
extended precision.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.optimize import minimize_scalar

from varsolid import (DEGENERACY_WINDOW, LatticeKind, OrbitalParams,
                      TwoYukawaParams, density_fourier, enumerate_shells,
                      orbital_norm_constant, pair_energy, two_yukawa,
                      two_yukawa_fourier)
from varsolid.model import (_FLOAT_OPS, _MP_OPS, EXP_FLOOR, EXPM1_FLOOR,
                            _closed_form)
from varsolid.oracle import (mc_pair_energy, pair_energy_quadrature,
                             pair_energy_realspace_reference,
                             radial_transform_check)

LAM_KR = 91.33
D_KR = 3.953 / 3.6  # nearest-neighbor distance in sigma units
POT = TwoYukawaParams()
#: the 133 shell distances of the default 12 d cutoff, at d = 1
UNIT_SHELLS = enumerate_shells(LatticeKind.FCC, 1.0, 12.0).distances()


# ----------------------------------------------------------------------
# orbital normalization and density transform
# ----------------------------------------------------------------------

def test_norm_constant_closed_values():
    assert orbital_norm_constant(2.0) == pytest.approx(1.0 / math.pi, rel=1e-14)
    assert orbital_norm_constant(1.0) == pytest.approx(
        1.0 / (8.0 * math.pi), rel=1e-14)
    # finite cutoff converges to the infinite-cutoff value
    assert orbital_norm_constant(1.0, cutoff_a=200.0) == \
        pytest.approx(1.0 / (8.0 * math.pi), rel=1e-13)


@pytest.mark.parametrize("lam,a", [(1.0, 2.0), (5.0, 0.7), (91.33, 0.1),
                                   (3.0, math.inf)])
def test_norm_constant_against_quadrature(lam, a):
    d2 = orbital_norm_constant(lam, cutoff_a=a)
    hi = min(a, 300.0 / lam)
    val, _ = integrate.quad(lambda r: d2 * math.exp(-lam * r) * 4 * math.pi * r * r,
                            0.0, hi, epsrel=1e-12)
    assert val == pytest.approx(1.0, rel=1e-10)


def test_density_fourier_special_points():
    p = OrbitalParams(7.3)
    assert density_fourier(p, 0.0) == 1.0
    assert density_fourier(p, 7.3) == pytest.approx(0.25, rel=1e-14)


def test_density_fourier_against_transform_quadrature():
    lam = LAM_KR
    got = radial_transform_check(
        lambda r: lam**3 * math.exp(-lam * r) / (8.0 * math.pi), 10.0)
    assert got == pytest.approx(density_fourier(OrbitalParams(lam), 10.0),
                                rel=1e-10)


@given(lam=st.floats(min_value=0.1, max_value=500.0),
       k=st.floats(min_value=0.0, max_value=5000.0))
def test_density_fourier_bounded_and_decreasing(lam, k):
    p = OrbitalParams(lam)
    val = density_fourier(p, k)
    assert 0.0 < val <= 1.0
    assert density_fourier(p, k + 1.0) < val


def test_orbital_params_validation():
    with pytest.raises(ValueError):
        OrbitalParams(0.0)
    with pytest.raises(ValueError):
        orbital_norm_constant(5.0, cutoff_a=-1.0)


# ----------------------------------------------------------------------
# potential
# ----------------------------------------------------------------------

def test_two_yukawa_zero_at_sigma():
    assert two_yukawa(1.0, POT) == 0.0
    pot2 = TwoYukawaParams(sigma=2.5)
    assert two_yukawa(2.5, pot2) == 0.0


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


def test_two_yukawa_rejects_nonpositive_r():
    with pytest.raises(ValueError):
        two_yukawa(0.0, POT)
    with pytest.raises(ValueError):
        two_yukawa(-1.0, POT)
    with pytest.raises(ValueError):
        two_yukawa(math.nan, POT)
    with pytest.raises(ValueError):
        two_yukawa(np.array([1.1, math.nan]), POT)
    assert two_yukawa(math.inf, POT) == 0.0


@pytest.mark.parametrize("bad", [-1.0, math.nan, [0.5, math.nan], [0.5, -0.1]])
def test_fourier_transforms_reject_negative_or_nan_k(bad):
    with pytest.raises(ValueError, match="wavenumber"):
        density_fourier(OrbitalParams(7.3), bad)
    with pytest.raises(ValueError, match="wavenumber"):
        two_yukawa_fourier(bad, POT)


def test_fourier_transforms_keep_the_infinite_k_limit():
    assert density_fourier(OrbitalParams(7.3), math.inf) == 0.0
    assert two_yukawa_fourier(math.inf, POT) == 0.0


@given(eps=st.floats(min_value=0.1, max_value=10.0),
       sig=st.floats(min_value=0.3, max_value=3.0),
       x=st.floats(min_value=0.05, max_value=8.0))
@settings(max_examples=60)
@example(eps=1.0, sig=1.125, x=0.99999)
def test_two_yukawa_dimensional_scaling(eps, sig, x):
    # v(r; eps, sigma) = eps * v(r/sigma; 1, 1).  The reference is taken at
    # the reduced separation the scaled potential sees, r/sigma, which can
    # differ from x by an ulp: near the zero of v at x = 1 that ulp alone is
    # ~1e-11 relative (x = 0.99999), so it cannot be compared against x.
    r = x * sig
    scaled = TwoYukawaParams(epsilon=eps, sigma=sig)
    assert two_yukawa(r, scaled) == pytest.approx(
        eps * two_yukawa(r / sig, POT), rel=1e-12, abs=1e-300)


def test_two_yukawa_params_validation():
    with pytest.raises(ValueError):
        TwoYukawaParams(m=5.0, n=2.0)  # needs n > m
    with pytest.raises(ValueError):
        TwoYukawaParams(b=-1.0)
    for m, n in ((800.0, 900.0), (2.69, 710.0)):  # e^n overflows a double
        with pytest.raises(ValueError, match="e\\^n"):
            TwoYukawaParams(m=m, n=n)
    assert TwoYukawaParams(m=700.0, n=709.0).n == 709.0
    for field in ("b", "m", "n", "epsilon", "sigma"):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                TwoYukawaParams(**{field: value})


def test_fourier_at_zero_is_volume_integral():
    want = -4.0 * math.pi * 2.026 * (math.exp(2.69) / 2.69**2
                                     - math.exp(14.70) / 14.70**2)
    assert two_yukawa_fourier(0.0, POT) == pytest.approx(want, rel=1e-14)
    got = radial_transform_check(lambda r: float(two_yukawa(r, POT)), 0.0)
    assert got == pytest.approx(want, rel=1e-10)


def test_fourier_matches_sine_quadrature_at_random_k():
    rng = np.random.default_rng(42)
    for k in rng.uniform(0.05, 80.0, size=8):
        got = radial_transform_check(lambda r: float(two_yukawa(r, POT)),
                                     float(k))
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


def test_pair_energy_rejects_negative_s():
    with pytest.raises(ValueError):
        pair_energy(OrbitalParams(5.0), POT, -0.1)


@pytest.mark.parametrize("lam", [LAM_KR, 2.69])  # the float and window branches
def test_pair_energy_of_no_separations_is_empty(lam):
    p = OrbitalParams(lam)
    assert pair_energy(p, POT, np.array([])).shape == (0,)
    for order in (1, 2):
        assert pair_energy(p, POT, np.array([]), order=order).shape == (order + 1, 0)


def test_pair_energy_generic_sigma_epsilon():
    # dimensional carry-through: scaling sigma and epsilon rescales the
    # result while (lam*sigma, s/sigma) are held fixed
    eps, sig = 3.0, 1.7
    scaled = TwoYukawaParams(epsilon=eps, sigma=sig)
    base = pair_energy(OrbitalParams(91.33), POT, 1.1)
    got = pair_energy(OrbitalParams(91.33 / sig), scaled, 1.1 * sig)
    assert got == pytest.approx(eps * base, rel=1e-11)


# ----------------------------------------------------------------------
# array kernel
# ----------------------------------------------------------------------

def _in_window(lam):
    return min(abs(lam - POT.m) / POT.m, abs(lam - POT.n) / POT.n) < DEGENERACY_WINDOW


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
    return -4.0 * math.pi * POT.epsilon * POT.b * POT.sigma * (
        math.exp(POT.m) * smeared(POT.m) - math.exp(POT.n) * smeared(POT.n))


@given(lam=st.floats(min_value=1.0, max_value=500.0).filter(lambda v: not _in_window(v)),
       d=st.floats(min_value=0.5, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_pair_energy_array_is_bitwise_the_scalar_form(lam, d):
    s = np.concatenate(([0.0], UNIT_SHELLS * d))
    p = OrbitalParams(lam)
    got = pair_energy(p, POT, s)
    assert isinstance(got, np.ndarray) and got.shape == s.shape
    assert got.tolist() == [pair_energy(p, POT, float(x)) for x in s]
    assert got.tolist() == [_pair_energy_python_floats(lam, float(x)) for x in s]


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


#: in-window pair energies (lam, s, float.hex) of the former per-separation
#: mpmath kernel: exact coincidence with both exponents, a 1e-12 gap, s = 0,
#: and lam on either side of each exponent
WINDOW_VALUES = [
    (2.69, 1.1, "0x1.324bd632e7bb4p+13"),
    (14.7, 1.1, "0x1.a967afc19c03dp+6"),
    (2.6900000000026902, 1.1, "0x1.324bd632e97b1p+13"),
    (14.6999999999853, 1.1, "0x1.a967afc1ab9cap+6"),
    (2.69, 0.0, "0x1.a2881d944f4fep+14"),
    (14.7, 0.0, "0x1.57e8a815a493ap+21"),
    (2.6900000000026902, 0.0, "0x1.a2881d94549a5p+14"),
    (2.7707, 1.5556349186104048, "0x1.24242f9a77b63p+12"),
    (14.258999999999999, 0.5, "0x1.a2a8ea4f6dc84p+16"),
    (2.5824, 3.0, "0x1.33255f433558bp+8"),
    (15.288, 2.0, "-0x1.3d7664ebe58bcp-4"),
]


@pytest.mark.parametrize("lam,s,want", WINDOW_VALUES)
def test_pair_energy_window_values_are_recorded_bitwise(lam, s, want):
    assert _in_window(lam)
    assert pair_energy(OrbitalParams(lam), POT, s).hex() == want
    assert pair_energy(OrbitalParams(lam), POT, np.array([s]))[0].hex() == want


def test_pair_energy_window_shell_array_is_recorded_bitwise():
    # the 133 shells at d = 1.1 with lam 1% above n, one object-array call
    lam = 14.70 * 1.01
    got = pair_energy(OrbitalParams(lam), POT, UNIT_SHELLS * 1.1)
    assert got.shape == (133,)
    assert math.fsum(got.tolist()).hex() == "0x1.85c40fd284e2fp+6"
    assert got[0].hex() == "0x1.86a626211eaabp+6"
    assert got[-1].hex() == "-0x1.1a8f897ad5146p-50"
    assert got.tolist() == [pair_energy(OrbitalParams(lam), POT, x)
                            for x in (UNIT_SHELLS * 1.1).tolist()]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
@pytest.mark.parametrize("lam", [LAM_KR, 2.69])
def test_pair_energy_array_rejects_non_finite_or_negative(lam, bad):
    with pytest.raises(ValueError):
        pair_energy(OrbitalParams(lam), POT, np.array([1.0, bad, 2.0]))


# ----------------------------------------------------------------------
# lam-derivative rows
# ----------------------------------------------------------------------

def _gap(lam):
    return min(abs(lam - POT.m) / POT.m, abs(lam - POT.n) / POT.n)


def _mp_lam_rows(lam, s):
    """(E, dE/dlam, d2E/dlam2) at one separation: mp.diff of the mpmath
    closed form at 60 digits, plus 6 per decade of closeness to an exponent
    (an exact coincidence is nudged as pair_energy nudges it)."""
    decades = max(0, math.ceil(-math.log10(max(_gap(lam), 1e-30))))
    with mp.workdps(60 + 6 * decades):
        am, an = mp.mpf(POT.m) / POT.sigma, mp.mpf(POT.n) / POT.sigma
        pieces = ((mp.exp(POT.m), am), (mp.exp(POT.n), an))
        s_mp = np.array([mp.mpf(s)], dtype=object)
        lam_mp = mp.mpf(lam)
        if lam_mp in (am, an):
            lam_mp *= 1 + mp.mpf(10) ** -30
        return [float(mp.diff(lambda x: _closed_form(x, POT, pieces, s_mp, s, _MP_OPS)[0],
                              lam_mp, n)) for n in (0, 1, 2)]


def _assert_rows_match_mp_diff(lam, s, rel):
    got = pair_energy(OrbitalParams(lam), POT, s, order=2)
    assert got.shape == (3,)
    want = _mp_lam_rows(lam, s)
    for k in (0, 1, 2):
        # a row may pass through 0 in s; |E|/lam^k is its natural size there
        scale = abs(want[k]) + abs(want[0]) / lam**k
        assert abs(got[k] - want[k]) <= rel(k) * scale, (k, got[k], want[k])


@given(lam=st.floats(min_value=1.0, max_value=500.0).filter(lambda v: not _in_window(v)),
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
    assert _in_window(lam)
    _assert_rows_match_mp_diff(lam, s, lambda k: 1e-12)


@given(lam=st.floats(min_value=1.0, max_value=500.0).filter(lambda v: not _in_window(v)),
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


def test_lam_rows_stay_finite_for_a_huge_coupling():
    # the rows scale with b; the scale -4 pi eps b sigma once went into the
    # scalar jets before the array product, and at b = 1e300 they overflowed
    # into NaN derivative rows under a finite value row
    p = OrbitalParams(91.2)
    s = np.array([0.0, 0.5, 1.0981, 2.0, 5.0])
    huge = pair_energy(p, TwoYukawaParams(b=1e300), s, order=2)
    assert np.isfinite(huge).all()
    np.testing.assert_allclose(huge / (1e300 / POT.b), pair_energy(p, POT, s, order=2),
                               rtol=1e-15, atol=0.0)


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
    # the float branch returns 0.0 and -1.0 without mapping an array wholly
    # at or below these floors; that is what the maps give on them
    for x in np.concatenate((np.linspace(EXP_FLOOR, 20 * EXP_FLOOR, 4001),
                             [EXP_FLOOR, -math.inf])).tolist():
        assert math.exp(x) == 0.0, x
    for x in np.concatenate((np.linspace(EXPM1_FLOOR, 40 * EXPM1_FLOOR, 4001),
                             [EXPM1_FLOOR, -math.inf])).tolist():
        assert math.expm1(x) == -1.0, x
    exp, expm1, *_ = _FLOAT_OPS
    below = np.array([EXP_FLOOR, 2 * EXP_FLOOR])
    assert exp(below).tolist() == [0.0, 0.0]
    assert expm1(np.array([EXPM1_FLOOR, -1e3])).tolist() == [-1.0, -1.0]
    # one argument above the floor maps the whole array
    mixed = np.array([EXPM1_FLOOR, -1.0])
    assert expm1(mixed).tolist() == [-1.0, math.expm1(-1.0)]
    assert exp(np.array([])).size == 0
