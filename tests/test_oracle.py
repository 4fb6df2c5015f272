"""The verifiers themselves: sampling correctness, error-bar honesty,
deterministic replay, and the quadrature transforms on textbook cases."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from varsolid import (OrbitalParams, TwoYukawaParams, build_cluster,
                      density_fourier, pair_energy, two_yukawa,
                      two_yukawa_fourier)
from varsolid.model import DEGENERACY_WINDOW
from varsolid.oracle import (FOURIER_MAX_LAM, MC_BLOCK, QUAD_NODES, QUAD_TRUST,
                             QuadratureError, _fill_cloud, _legendre_rule,
                             _quad, _row_norms,
                             coulomb_self_energy_quadrature,
                             density_power_integral_quadrature,
                             exp_density_sampler, mc_com_variance,
                             mc_momentum_axis_variance, mc_pair_energies,
                             mc_pair_energy, mc_pair_integral,
                             pair_energy_quadrature,
                             pair_energy_realspace_reference,
                             radial_transform_check, sample_exponential_cloud,
                             sample_orbital_momentum)
from test_contract import cases_test

POT = TwoYukawaParams()


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------

def test_row_norms_are_bitwise_linalg_norm():
    # mc_pair_integral takes the distances |r - r' + s z^| this way
    x = np.random.default_rng(3).normal(size=(20_000, 3)) * [1.0, 1e-3, 1e3]
    x[:5] = [[0.0, 0.0, 0.0], [-0.0, 3.0, 4.0], [1e-200, 1e-200, 0.0],
             [1e150, -1e150, 1e150], [5e-324, 0.0, 0.0]]
    assert _row_norms(x).tolist() == np.linalg.norm(x, axis=1).tolist()


def _within(sample, want, z=4.0):
    """The mean of `sample` is within z standard errors of `want`."""
    se = np.std(sample, ddof=1) / math.sqrt(len(sample))
    return abs(np.mean(sample) - want) <= z * se


def test_exponential_cloud_moments():
    # the Gamma(3) radius: <r> = 3/rate, <r^2> = 12/rate^2, <r^4> = 360/rate^4
    rate = 2.5
    rng = np.random.default_rng(0)
    pts = sample_exponential_cloud(rate, 200_000, rng)
    r = np.linalg.norm(pts, axis=1)
    assert r.mean() == pytest.approx(3.0 / rate, rel=5e-3)
    assert (r**2).mean() == pytest.approx(12.0 / rate**2, rel=1e-2)
    for power, moment in ((1, 3.0), (2, 12.0), (4, 360.0)):
        assert _within((rate * r) ** power, moment)
    # isotropy: per-axis means vanish
    assert np.all(np.abs(pts.mean(axis=0)) < 5.0 * r.std() / math.sqrt(len(r)))


def test_exponential_cloud_radial_law():
    # Kolmogorov-Smirnov distance of x = rate r from the Gamma(3) CDF
    # 1 - e^{-x}(1 + x + x^2/2), against its 0.1% critical value
    rate, n = 0.7, 100_000
    x = np.sort(rate * np.linalg.norm(
        sample_exponential_cloud(rate, n, np.random.default_rng(4)), axis=1))
    cdf = 1.0 - np.exp(-x) * (1.0 + x + 0.5 * x * x)
    i = np.arange(1, n + 1)
    assert max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)) < 1.95 / math.sqrt(n)


def test_momentum_sampler_has_the_beta_law():
    # u = q^2/(beta^2 + q^2) ~ Beta(3/2, 5/2): <u> = 3/8 and <u^2> = 3/16
    beta = 3.0
    q2 = np.sum(sample_orbital_momentum(beta, 200_000, np.random.default_rng(6)) ** 2,
                axis=1)
    u = q2 / (beta * beta + q2)
    assert _within(u, 3.0 / 8.0)
    assert _within(u * u, 3.0 / 16.0)


test_sampler_rejects_bad_rate = cases_test("test_sampler_rejects_bad_rate")


def test_pair_separation_has_the_law_of_h():
    # w = r - r' for two clouds of rate lam, drawn as chi_8/lam times a
    # standard normal 3-vector, has the density h that
    # pair_energy_realspace_reference integrates: <|w|^2> = 24/lam^2 and
    # <|w|^4> = 1200/lam^4
    lam = 2.5
    buf = np.empty((4, 2**17))
    _fill_cloud(lam, np.random.default_rng(10), buf, 4)
    w2 = np.sum(buf[:3] ** 2, axis=0)
    assert _within(w2, 24.0 / lam**2)
    assert _within(w2 * w2, 1200.0 / lam**4)


def test_momentum_sampler_second_moment():
    beta = 4.0
    est = mc_momentum_axis_variance(beta, samples=100_000, seed=3)
    assert abs(est.mean - beta**2 / 3.0) <= 4.0 * est.std_error
    assert est.std_error > 0.0


# ----------------------------------------------------------------------
# Monte Carlo pair integrals
# ----------------------------------------------------------------------

def test_unit_kernel_integrates_to_one():
    s = exp_density_sampler(3.0)
    est = mc_pair_integral(s, lambda r: np.ones_like(r), 0.7,
                           samples=5_000, seed=1)
    assert est.mean == pytest.approx(1.0, abs=1e-12)
    assert est.std_error == pytest.approx(0.0, abs=1e-12)


def test_coulomb_kernel_finite_and_correct():
    # per-pair Coulomb of two coincident e^{-2 beta r} clouds: -5 beta/8
    beta = 1.3
    s = exp_density_sampler(2.0 * beta)
    est = mc_pair_integral(s, lambda r: -1.0 / r, 0.0,
                           samples=300_000, seed=8)
    assert math.isfinite(est.mean)
    assert abs(est.mean - (-5.0 * beta / 8.0)) <= 3.0 * est.std_error


def test_standard_error_scales_inverse_root_n():
    p = OrbitalParams(91.33)
    a = mc_pair_energy(p, POT, 1.0981, samples=20_000, seed=4)
    b = mc_pair_energy(p, POT, 1.0981, samples=80_000, seed=4)
    ratio = b.std_error / a.std_error
    assert ratio == pytest.approx(0.5, rel=0.2)


def test_seed_replay_is_bitwise():
    p = OrbitalParams(60.0)
    a = mc_pair_energy(p, POT, 0.9, samples=10_000, seed=123)
    b = mc_pair_energy(p, POT, 0.9, samples=10_000, seed=123)
    assert a == b
    c = mc_pair_energy(p, POT, 0.9, samples=10_000, seed=124)
    assert c.mean != a.mean


#: the three points of the `verify` battery's Monte Carlo pair rows
VERIFY_POINTS = [(OrbitalParams(91.33), 1.0981), (OrbitalParams(60.0), 0.0),
                 (OrbitalParams(120.0), 1.6)]


@pytest.mark.parametrize("samples", [1000, 3 * MC_BLOCK + 7])
def test_shared_stream_columns_are_the_one_point_estimates(samples):
    # each point of one stream of cloud pairs is, bit for bit, the estimate
    # mc_pair_energy draws alone from the same seed
    shared = mc_pair_energies(VERIFY_POINTS, POT, samples=samples, seed=12)
    assert shared == [mc_pair_energy(p, POT, s, samples=samples, seed=12)
                      for p, s in VERIFY_POINTS]


def test_minimum_sample_count_enforced():
    s = exp_density_sampler(1.0)
    with pytest.raises(ValueError):
        mc_pair_integral(s, lambda r: r, 0.0, samples=999, seed=0)


test_mc_boundaries_fail_closed = cases_test("test_mc_boundaries_fail_closed")


test_quadrature_boundaries_fail_closed = cases_test(
    "test_quadrature_boundaries_fail_closed")


def _traced_peak_mb(call) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("estimate", [
    lambda n: mc_pair_energy(OrbitalParams(91.33), POT, 1.0981, samples=n,
                             seed=5),
    lambda n: mc_momentum_axis_variance(45.665, samples=n, seed=5),
    lambda n: mc_com_variance(7.0, build_cluster(1.0, 2), samples=n, seed=5),
    lambda n: mc_pair_energies(VERIFY_POINTS, POT, samples=n, seed=5),
], ids=["pair_energy", "momentum_variance", "com_variance", "pair_energies"])
def test_mc_memory_does_not_grow_with_samples(estimate):
    # numpy reports its buffers to tracemalloc; drawing every sample at
    # once peaks at ~30-43 MB for 400k samples.  A process's first estimate
    # peaks ~0.7 MB higher whatever its sample count, so neither measured
    # call is the first
    estimate(1000)
    small = _traced_peak_mb(lambda: estimate(100_000))
    large = _traced_peak_mb(lambda: estimate(400_000))
    assert large < 4.0
    assert large <= 1.1 * small


def _block_streams(samples, seed):
    """(rng, k) of each block of an estimate: block j draws its k samples
    from child j of SeedSequence(seed)."""
    sizes = [min(MC_BLOCK, samples - start) for start in range(0, samples, MC_BLOCK)]
    children = np.random.SeedSequence(seed).spawn(len(sizes))
    return [(np.random.default_rng(child), k) for child, k in zip(children, sizes)]


@pytest.mark.parametrize("samples", [1000, MC_BLOCK, MC_BLOCK + 1,
                                     3 * MC_BLOCK + 7])
def test_block_merge_matches_the_whole_sample(samples):
    calls, values = [], []

    def sampler(rng, k):
        calls.append(k)
        return sample_exponential_cloud(3.0, k, rng)

    def kernel(r):
        v = np.exp(-r) / (1.0 + r)
        values.append(v.copy())
        return v

    est = mc_pair_integral(sampler, kernel, 0.4, samples=samples, seed=9)
    whole = np.concatenate(values)
    assert len(whole) == samples
    # each block draws the density twice, for r and r', MC_BLOCK at a time
    blocks = _block_streams(samples, 9)
    assert calls == [k for _, k in blocks for _ in "ab"]
    # replayed block by block from the blocks' own streams, in block order
    diff = np.concatenate([sample_exponential_cloud(3.0, k, rng)
                           - sample_exponential_cloud(3.0, k, rng) for rng, k in blocks])
    diff[:, 2] += 0.4
    assert whole.tolist() == kernel(np.linalg.norm(diff, axis=1)).tolist()
    assert est.mean == pytest.approx(np.mean(whole), rel=1e-13, abs=0.0)
    assert est.std_error == pytest.approx(
        np.std(whole, ddof=1) / math.sqrt(samples), rel=1e-13, abs=0.0)


def test_momentum_variance_streams_blocks_of_the_sampler():
    beta, samples, seed = 4.0, 3 * MC_BLOCK + 7, 21
    sq = np.concatenate([sample_orbital_momentum(beta, k, rng)
                         for rng, k in _block_streams(samples, seed)]) ** 2
    est = mc_momentum_axis_variance(beta, samples=samples, seed=seed)
    assert est.mean == pytest.approx(sq.mean(), rel=1e-13, abs=0.0)
    want_se = math.sqrt(np.sum(sq.var(axis=0, ddof=1) / samples)) / 3.0
    assert est.std_error == pytest.approx(want_se, rel=1e-13, abs=0.0)


def test_an_error_in_a_block_is_raised():
    # a block's draw raises, or its rows do, and no later block is drawn
    calls = []

    def fails_on_block_2(rng, k):
        calls.append(k)
        if len(calls) == 3:  # r of block 2 of 3
            raise ValueError("the sampler failed on block 2")
        return sample_exponential_cloud(3.0, k, rng)

    with pytest.raises(ValueError, match="the sampler failed on block 2"):
        mc_pair_integral(fails_on_block_2, np.exp, 0.5, samples=3 * MC_BLOCK, seed=1)
    assert calls == [MC_BLOCK] * 3
    with pytest.raises(ValueError, match=r"separation=1e\+308"):
        mc_pair_energy(OrbitalParams(50.0), POT, 1e308, samples=3 * MC_BLOCK)


# ----------------------------------------------------------------------
# the CoM variance on an explicit cluster
# ----------------------------------------------------------------------

@pytest.mark.parametrize("n_sites", [1, 13])
def test_com_variance_on_cluster(n_sites):
    lam = 7.0
    est = mc_com_variance(lam, build_cluster(1.0, n_sites), samples=20_000,
                          seed=5)
    want = 4.0 / (lam * lam * n_sites)
    assert abs(est.mean - want) <= 4.0 * est.std_error


def test_com_variance_scales_with_lambda():
    cluster = build_cluster(1.0, 13)
    a = mc_com_variance(4.0, cluster, samples=20_000, seed=9)
    b = mc_com_variance(8.0, cluster, samples=20_000, seed=10)
    # doubling lambda quarters the spread, within MC error
    se = math.hypot(b.std_error, a.std_error / 4.0)
    assert abs(b.mean - a.mean / 4.0) <= 4.0 * se


def test_com_variance_block_merge_matches_the_whole_sample():
    # the particles are drawn site by site within each block, placed at
    # their sites, and the CoM is measured from the sites' exact centroid
    lam, samples, seed = 5.0, 2 * MC_BLOCK + 11, 3
    sites = build_cluster(1.3, 5)
    offsets = []
    for rng, k in _block_streams(samples, seed):
        particles = np.stack([site + sample_exponential_cloud(lam, k, rng)
                              for site in sites])
        offsets.append(particles.mean(axis=0) - sites.mean(axis=0))
    sq = np.concatenate(offsets) ** 2
    est = mc_com_variance(lam, sites, samples=samples, seed=seed)
    assert est.mean == pytest.approx(sq.mean(), rel=1e-12, abs=0.0)
    want_se = math.sqrt(np.sum(sq.var(axis=0, ddof=1) / samples)) / 3.0
    assert est.std_error == pytest.approx(want_se, rel=1e-10, abs=0.0)
    # the sites enter through their count: a translated or shuffled body
    # gives the same draws
    moved = mc_com_variance(lam, sites[::-1] + [1e3, -2.0, 0.5],
                            samples=samples, seed=seed)
    assert (moved.mean, moved.std_error) == (est.mean, est.std_error)


def test_estimate_fields():
    est = mc_pair_energy(OrbitalParams(50.0), POT, 1.2, samples=2_000, seed=7)
    assert est.std_error >= 0.0


# ----------------------------------------------------------------------
# radial transforms
# ----------------------------------------------------------------------

def test_tabulated_legendre_rule_is_leggauss():
    from numpy.polynomial.legendre import leggauss
    x, w = _legendre_rule()
    assert x.tolist() == sorted(x.tolist())
    assert x.tolist() == (-x[::-1]).tolist() and w.tolist() == w[::-1].tolist()
    assert abs(math.fsum(w) - 2.0) <= 2.0 * math.ulp(2.0)
    want_x, want_w = leggauss(20)
    for got, want in ((x, want_x), (w, want_w)):
        assert np.all(np.abs(got - want) <= 2.0 * np.spacing(np.abs(want)))


def test_narrow_gaussian_transforms_to_its_norm():
    # a near-delta density looks flat in k up to O((k w)^2)
    w = 1e-3
    norm = (2.0 * math.pi * w * w) ** -1.5

    def f(r):
        return norm * np.exp(-0.5 * (r / w) ** 2)

    assert radial_transform_check(f, 0.5) == pytest.approx(1.0, rel=1e-5)


@pytest.mark.parametrize("alpha,k", [(1.0, 0.5), (2.69, 3.0), (14.7, 0.05),
                                     (5.0, 40.0)])
def test_yukawa_kernel_transform(alpha, k):
    got = radial_transform_check(lambda r: np.exp(-alpha * r) / r, k)
    assert got == pytest.approx(4.0 * math.pi / (k * k + alpha * alpha),
                                rel=1e-10)


def test_exponential_density_transform():
    lam = 33.0
    got = radial_transform_check(
        lambda r: lam**3 * np.exp(-lam * r) / (8.0 * math.pi), 12.0)
    assert got == pytest.approx(density_fourier(OrbitalParams(lam), 12.0),
                                rel=1e-10)


def test_transform_k_zero_is_volume_integral():
    lam = 5.0
    got = radial_transform_check(
        lambda r: lam**3 * np.exp(-lam * r) / (8.0 * math.pi), 0.0)
    assert got == pytest.approx(1.0, rel=1e-10)


test_transform_rejects_negative_k = cases_test("test_transform_rejects_negative_k")


def test_transform_of_an_array_of_wavenumbers():
    # one quadrature for every k: each entry is the closed form, and the
    # transform at that k alone, to the quadrature's rounding
    ks = np.random.default_rng(15).uniform(0.05, 60.0, 20)
    got = radial_transform_check(lambda r: two_yukawa(r, POT), ks)
    assert got.shape == ks.shape
    assert np.all(np.abs(got / two_yukawa_fourier(ks, POT) - 1.0) <= 1e-12)
    alone = [radial_transform_check(lambda r: two_yukawa(r, POT), k) for k in ks.tolist()]
    assert np.all(np.abs(got / alone - 1.0) <= 1e-13)


def test_transform_of_a_number_is_a_float():
    # its bits are GOLDEN's record radial_transform_check-scalar
    for k in (0.0, 1.7, np.float64(1.7)):
        assert type(radial_transform_check(lambda r: two_yukawa(r, POT), k)) is float


test_transform_rejects_a_bad_entry = cases_test("test_transform_rejects_a_bad_entry")


test_transform_rejects_a_bad_array = cases_test("test_transform_rejects_a_bad_array")


# ----------------------------------------------------------------------
# the one trust rule of every quadrature
# ----------------------------------------------------------------------

@pytest.mark.filterwarnings("error")  # no numpy warning may escape the rule
@pytest.mark.parametrize("f, b, reason", [
    (lambda x: np.sin(1.0 / x), 1.0, "error estimate"),  # no level resolves it
    (lambda x: 1.0 / x, 1.0, "error estimate"),  # divergent
    (lambda x: 1.0 / (1.0 + x), math.inf, "error estimate"),  # divergent at infinity
    (lambda x: np.array([math.exp(1e3 * v) for v in x]), 1.0, "not evaluable"),  # OverflowError
    (lambda x: np.exp(1e3 * x), 1.0, "not evaluable"),  # numpy's overflow
], ids=["oscillating", "divergent", "half-line-divergent", "overflow", "numpy-overflow"])
def test_quad_refuses_what_it_cannot_trust(f, b, reason):
    with pytest.raises(QuadratureError, match=f"^probe: .*{reason}"):
        _quad("probe", f, 0.0, b, epsrel=1e-10)


def test_quad_returns_a_trusted_or_non_finite_value():
    val, err = _quad("probe", np.exp, 0.0, 1.0, epsrel=1e-12)
    assert val == pytest.approx(math.e - 1.0, rel=1e-15)
    assert abs(err) <= QUAD_TRUST * val
    # the caller's _fails_closed names the argument that sent it there
    assert _quad("probe", lambda x: np.full_like(x, math.inf), 0.0, 1.0,
                 epsrel=1e-10)[0] == math.inf


@pytest.mark.parametrize("f, want", [
    (lambda x: x * x * np.exp(-x), 2.0),
    (lambda x: 1.0 / (1.0 + x * x), math.pi / 2.0),  # algebraic decay
], ids=["exponential", "algebraic"])
def test_quad_on_the_half_line(f, want):
    val, err = _quad("probe", f, 0.0, math.inf, epsrel=1e-12)
    assert val == pytest.approx(want, rel=1e-14)
    assert err <= 1e-12 * val


def test_quad_integrates_several_integrands_at_once():
    # each row is its own integral, and each must meet the tolerance
    rates = np.array([[0.5], [1.0], [40.0]])
    val, err = _quad("probe", lambda x: rates * np.exp(-rates * x), 0.0, math.inf,
                     epsrel=1e-12)
    assert val.shape == err.shape == (3,)
    assert val == pytest.approx(np.ones(3), rel=1e-14)


def test_quad_with_a_sine_weight():
    # int_0^50 e^{-x} sin(3x) dx = 3/10 (1 - e^{-50}(...)), e^{-50} below rounding
    val, err = _quad("probe", lambda x: np.exp(-x), 0.0, 50.0, epsrel=1e-12, sine=3.0)
    assert val == pytest.approx(0.3, rel=1e-14)
    assert err <= 1e-12 * val


@pytest.mark.parametrize("f, b, sine", [
    (lambda x: np.sin(1.0 / x), 1.0, None),
    (lambda x: np.exp(-x), 50.0, 1e15),
], ids=["double-exponential", "gauss-legendre"])
def test_quad_stops_at_its_node_budget(f, b, sine):
    nodes = []

    def counted(x):
        nodes.append(x.size)
        return f(x)

    with pytest.raises(QuadratureError, match="error estimate"):
        _quad("probe", counted, 0.0, b, epsrel=1e-10, sine=sine)
    assert QUAD_NODES // 2 < sum(nodes) <= QUAD_NODES


@pytest.mark.parametrize("k", [1e15, 1e308])
def test_transform_at_a_huge_k_fails_closed_quickly(k):
    # k never sizes an allocation: the node budget, or k r overflowing, ends it
    start = time.perf_counter()
    with pytest.raises(QuadratureError):
        radial_transform_check(lambda r: np.exp(-r), k)
    assert time.perf_counter() - start < 2.0


def test_divergent_integrand_raises():
    # 1/r^3 is not transformable: the quadrature must refuse, not return junk
    with pytest.raises(QuadratureError):
        radial_transform_check(lambda r: r**-3.0, 1.0)


# ----------------------------------------------------------------------
# pair-energy verifiers against each other
# ----------------------------------------------------------------------

def test_realspace_and_fourier_routes_agree():
    p = OrbitalParams(91.33)
    for s in (0.0, 0.25):
        ref = pair_energy_realspace_reference(p, POT, s)
        val, err = pair_energy_quadrature(p, POT, s)
        assert abs(val - ref) <= max(3.0 * err, 1e-8 * abs(ref))


def test_fourier_route_is_right_up_to_its_largest_lam():
    p = OrbitalParams(FOURIER_MAX_LAM)
    val, _ = pair_energy_quadrature(p, POT, 0.0)
    assert val == pytest.approx(pair_energy(p, POT, 0.0), rel=1e-13)


@pytest.mark.parametrize("lam", [3e6, 1e8])
def test_fourier_route_rejects_a_narrow_density(lam):
    # its map missed 1.6e-5 and 4.7e-7 of the value here, with error
    # estimates of 1e-10 and 4e-12
    with pytest.raises(ValueError, match=rf"lam={lam!r} is above"):
        pair_energy_quadrature(OrbitalParams(lam), POT, 0.0)


def test_realspace_reference_over_the_sweep_window_domain():
    # the sweep benchmark checks pair_energy against this oracle, at 1e-9,
    # at points drawn like these: lam inside one exponent's degeneracy
    # window, s at the first two FCC shells of a spacing d
    rng = np.random.default_rng(2026)
    worst = 0.0
    for alpha in (POT.m, POT.n):
        for u, d in rng.uniform([-1.0, 0.9], [1.0, 1.5], size=(50, 2)):
            p = OrbitalParams(alpha * (1.0 + 0.999 * DEGENERACY_WINDOW * u))
            for s in (d, d * math.sqrt(2.0)):
                ref = pair_energy_realspace_reference(p, POT, s)
                worst = max(worst, abs(pair_energy(p, POT, s) - ref) / abs(ref))
    assert worst <= 1e-12


def test_three_oracles_meet_at_the_physical_point():
    p, s = OrbitalParams(91.33), 3.953 / 3.6
    ref = pair_energy_realspace_reference(p, POT, s)
    est = mc_pair_energy(p, POT, s, samples=150_000, seed=14)
    assert abs(est.mean - ref) <= 3.0 * est.std_error


# ----------------------------------------------------------------------
# nested quadratures for the self-gravitating coefficients
# ----------------------------------------------------------------------

def test_coulomb_self_energy_closed_form():
    # a steep density: QUADPACK's [0, inf) map misses a peak of width 1/rate
    for rate in (0.5, 2.0, 11.0, 1e5, 1e6, 1e100):
        assert coulomb_self_energy_quadrature(rate) == pytest.approx(
            5.0 * rate / 16.0, rel=1e-9)


def test_density_power_integral_unit_power():
    # power 1 is just the mass itself, however steep the density
    for rate in (3.0, 1e5):
        assert density_power_integral_quadrature(rate, 7.0, 1.0) == pytest.approx(
            7.0, rel=1e-11)


@pytest.mark.parametrize("power", [0.05, 1.0, 5.0 / 3.0, 4.0])
@pytest.mark.parametrize("rate, mass", [(1.0, 1.0), (3.0, 7.0)])
def test_density_power_integral_matches_its_closed_form(rate, mass, power):
    # int 4 pi x^2 (mass e^{-x}/8 pi)^p dx = 8 pi (mass/8 pi)^p / p^3
    want = (8.0 * math.pi * (mass / (8.0 * math.pi)) ** power / power**3
            * rate ** (3.0 * power - 3.0))
    got = density_power_integral_quadrature(rate, mass, power)
    assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize("power", [1e-3, 1e-2, 0.02, 0.03])
def test_density_power_integral_fails_closed_where_rho_underflows(power):
    # rho is 0.0 past x ~ 742, where 96%, 2.2%, 4.5e-5 and 5.8e-8 of these
    # integrals lie; each passed the old 1e-6 error guard
    with pytest.raises(QuadratureError, match=rf"power={power!r}"):
        density_power_integral_quadrature(1.0, 1.0, power)


test_coulomb_quadrature_rejects_bad_rate = cases_test(
    "test_coulomb_quadrature_rejects_bad_rate")
