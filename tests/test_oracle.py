"""The verifiers themselves: sampling correctness, error-bar honesty,
deterministic replay, and the quadrature transforms on textbook cases."""

import math
import tracemalloc

import numpy as np
import pytest

from varsolid import (OrbitalParams, TwoYukawaParams, build_cluster,
                      density_fourier)
from varsolid.oracle import (MC_BLOCK, QuadratureError, _row_norms,
                             coulomb_self_energy_quadrature,
                             density_power_integral_quadrature,
                             exp_density_sampler, mc_com_variance,
                             mc_momentum_axis_variance, mc_pair_energy,
                             mc_pair_integral,
                             pair_energy_quadrature,
                             pair_energy_realspace_reference,
                             radial_transform_check, sample_exponential_cloud,
                             sample_orbital_momentum)

POT = TwoYukawaParams()


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------

def test_row_norms_are_bitwise_linalg_norm():
    # the samplers and mc_pair_integral take |x| of (k, 3) rows this way
    x = np.random.default_rng(3).normal(size=(20_000, 3)) * [1.0, 1e-3, 1e3]
    x[:5] = [[0.0, 0.0, 0.0], [-0.0, 3.0, 4.0], [1e-200, 1e-200, 0.0],
             [1e150, -1e150, 1e150], [5e-324, 0.0, 0.0]]
    assert _row_norms(x).tolist() == np.linalg.norm(x, axis=1).tolist()


def test_exponential_cloud_moments():
    # <r> = 3/rate, <r^2> = 12/rate^2 for the Gamma(3) radius
    rate = 2.5
    rng = np.random.default_rng(0)
    pts = sample_exponential_cloud(rate, 200_000, rng)
    r = np.linalg.norm(pts, axis=1)
    assert r.mean() == pytest.approx(3.0 / rate, rel=5e-3)
    assert (r**2).mean() == pytest.approx(12.0 / rate**2, rel=1e-2)
    # isotropy: per-axis means vanish
    assert np.all(np.abs(pts.mean(axis=0)) < 5.0 * r.std() / math.sqrt(len(r)))


def test_sampler_rejects_bad_rate():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_exponential_cloud(0.0, 100, rng)


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


def test_minimum_sample_count_enforced():
    s = exp_density_sampler(1.0)
    with pytest.raises(ValueError):
        mc_pair_integral(s, lambda r: r, 0.0, samples=999, seed=0)


_SAMPLER = exp_density_sampler(1.0)
_SITES = build_cluster(1.0, 13)


@pytest.mark.parametrize("call,name", [
    (lambda: sample_exponential_cloud(math.nan, 100, np.random.default_rng(0)),
     "rate"),
    (lambda: sample_exponential_cloud(math.inf, 100, np.random.default_rng(0)),
     "rate"),
    (lambda: mc_momentum_axis_variance(math.nan, samples=1000), "beta"),
    (lambda: mc_momentum_axis_variance(math.inf, samples=1000), "beta"),
    (lambda: mc_momentum_axis_variance(4.0, samples=1), "samples"),
    (lambda: mc_momentum_axis_variance(4.0, samples=0), "samples"),
    (lambda: mc_momentum_axis_variance(4.0, samples=999), "samples"),
    (lambda: mc_momentum_axis_variance(4.0, samples=1000.5), "samples"),
    (lambda: mc_pair_integral(_SAMPLER, lambda r: r, 0.0,
                              samples=2000.0, seed=0), "samples"),
    (lambda: mc_pair_energy(OrbitalParams(50.0), POT, math.nan,
                            samples=1000), "separation"),
    (lambda: mc_pair_energy(OrbitalParams(50.0), POT, math.inf,
                            samples=1000), "separation"),
    # verify_com_on_cluster, mc_com_variance's forerunner, warned and gave a
    # NaN error at 1 sample and raised TypeError at samples=True
    *((lambda kw=kw: mc_com_variance(**{"lam": 7.0, "sites": _SITES,
                                       "samples": 1000, **kw}), name)
      for kw, name in (
          ({"samples": 1}, "samples"), ({"samples": 999}, "samples"),
          ({"samples": True}, "samples"), ({"samples": 2000.0}, "samples"),
          ({"lam": math.nan}, "lam"), ({"lam": math.inf}, "lam"),
          ({"lam": 0.0}, "lam"), ({"lam": -7.0}, "lam"),
          ({"sites": np.zeros((0, 3))}, "sites"),
          ({"sites": np.zeros(3)}, "sites"),
          ({"sites": np.zeros((4, 2))}, "sites"),
          ({"sites": np.zeros((2, 2, 3))}, "sites"),
          ({"sites": [[0.0, 0.0, math.nan]]}, "sites"),
          ({"sites": [[0.0, -math.inf, 0.0]]}, "sites"))),
    # the draws (inf positions), their squares or the distances (overflow
    # warnings) left the doubles
    (lambda: sample_exponential_cloud(5e-324, 3, np.random.default_rng(0)), "rate=5e-324"),
    (lambda: mc_com_variance(5e-324, np.zeros((1, 3)), 1000), "rate=5e-324"),
    (lambda: mc_com_variance(1e-200, np.zeros((1, 3)), 1000), "lam=1e-200"),
    (lambda: mc_momentum_axis_variance(1e200, 1000), "beta=1e\\+200"),
    (lambda: mc_momentum_axis_variance(1e308, 1000), "beta=1e\\+308"),
    (lambda: mc_pair_energy(OrbitalParams(50.0), POT, 1e308, samples=1000),
     "separation=1e\\+308"),
    (lambda: mc_pair_integral(_SAMPLER, lambda r: r, -1e308, samples=1000, seed=0),
     "separation=-1e\\+308"),
], ids=["cloud-rate-nan", "cloud-rate-inf", "beta-nan", "beta-inf",
        "momentum-samples-1", "momentum-samples-0", "momentum-samples-999",
        "momentum-samples-float", "pair-samples-float", "separation-nan",
        "separation-inf", "com-samples-1", "com-samples-999",
        "com-samples-true", "com-samples-float", "com-lam-nan", "com-lam-inf",
        "com-lam-0", "com-lam-negative", "com-sites-empty", "com-sites-1d",
        "com-sites-2-columns", "com-sites-3d", "com-sites-nan",
        "com-sites-inf", "cloud-rate-tiny", "com-rate-tiny", "com-squares",
        "momentum-squares", "momentum-draws", "pair-separation-huge",
        "integral-separation-huge"])
def test_mc_boundaries_fail_closed(call, name):
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: pair_energy_realspace_reference(OrbitalParams(50.0), POT, -1.0),
     "separation must be finite and >= 0, got -1.0"),
    (lambda: pair_energy_realspace_reference(OrbitalParams(50.0), POT,
                                             math.nan),
     "separation must be finite and >= 0, got nan"),
    (lambda: pair_energy_quadrature(OrbitalParams(50.0), POT, -1.0),
     "separation must be finite and >= 0, got -1.0"),
    (lambda: pair_energy_quadrature(OrbitalParams(50.0), POT, math.nan),
     "separation must be finite and >= 0, got nan"),
    (lambda: density_power_integral_quadrature(math.nan, 1.0, 1.0),
     "rate must be finite and positive, got nan"),
    (lambda: density_power_integral_quadrature(1.0, math.nan, 1.0),
     "mass must be finite and positive, got nan"),
    (lambda: density_power_integral_quadrature(1.0, 1.0, math.nan),
     "power must be finite and positive, got nan"),
    (lambda: density_power_integral_quadrature(-1.0, 1.0, 1.0),
     "rate must be finite and positive, got -1.0"),
    (lambda: density_power_integral_quadrature(1.0, -1.0, 5.0 / 3.0),
     "mass must be finite and positive, got -1.0"),
], ids=["realspace-s-negative", "realspace-s-nan", "fourier-s-negative",
        "fourier-s-nan", "power-rate-nan", "power-mass-nan", "power-power-nan",
        "power-rate-negative", "power-mass-negative"])
def test_quadrature_boundaries_fail_closed(call, message):
    # the quadrature oracles reject what pair_energy rejects, by name and
    # value; at -1 the real-space reference once returned 2.82e12 and the
    # Fourier one the value at +1
    with pytest.raises(ValueError, match=message):
        call()


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
], ids=["pair_energy", "momentum_variance", "com_variance"])
def test_mc_memory_does_not_grow_with_samples(estimate):
    # numpy reports its buffers to tracemalloc; drawing every sample at
    # once peaks at ~30-43 MB for 400k samples
    small = _traced_peak_mb(lambda: estimate(100_000))
    large = _traced_peak_mb(lambda: estimate(400_000))
    assert large < 4.0
    assert large <= 1.1 * small


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
    sizes = [min(MC_BLOCK, samples - i) for i in range(0, samples, MC_BLOCK)]
    assert calls == [k for k in sizes for _ in "ab"]
    assert est.mean == pytest.approx(np.mean(whole), rel=1e-13, abs=0.0)
    assert est.std_error == pytest.approx(
        np.std(whole, ddof=1) / math.sqrt(samples), rel=1e-13, abs=0.0)


def test_momentum_variance_streams_blocks_of_the_sampler():
    beta, samples, seed = 4.0, 3 * MC_BLOCK + 7, 21
    rng = np.random.default_rng(seed)
    sq = np.concatenate([
        sample_orbital_momentum(beta, min(MC_BLOCK, samples - start), rng)
        for start in range(0, samples, MC_BLOCK)]) ** 2
    est = mc_momentum_axis_variance(beta, samples=samples, seed=seed)
    assert est.mean == pytest.approx(sq.mean(), rel=1e-13, abs=0.0)
    want_se = math.sqrt(np.sum(sq.var(axis=0, ddof=1) / samples)) / 3.0
    assert est.std_error == pytest.approx(want_se, rel=1e-13, abs=0.0)


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
    rng = np.random.default_rng(seed)
    offsets = []
    for start in range(0, samples, MC_BLOCK):
        k = min(MC_BLOCK, samples - start)
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

def test_narrow_gaussian_transforms_to_its_norm():
    # a near-delta density looks flat in k up to O((k w)^2)
    w = 1e-3
    norm = (2.0 * math.pi * w * w) ** -1.5

    def f(r):
        return norm * math.exp(-0.5 * (r / w) ** 2)

    assert radial_transform_check(f, 0.5) == pytest.approx(1.0, rel=1e-5)


@pytest.mark.parametrize("alpha,k", [(1.0, 0.5), (2.69, 3.0), (14.7, 0.05),
                                     (5.0, 40.0)])
def test_yukawa_kernel_transform(alpha, k):
    got = radial_transform_check(lambda r: math.exp(-alpha * r) / r, k)
    assert got == pytest.approx(4.0 * math.pi / (k * k + alpha * alpha),
                                rel=1e-10)


def test_exponential_density_transform():
    lam = 33.0
    got = radial_transform_check(
        lambda r: lam**3 * math.exp(-lam * r) / (8.0 * math.pi), 12.0)
    assert got == pytest.approx(density_fourier(OrbitalParams(lam), 12.0),
                                rel=1e-10)


def test_transform_k_zero_is_volume_integral():
    lam = 5.0
    got = radial_transform_check(
        lambda r: lam**3 * math.exp(-lam * r) / (8.0 * math.pi), 0.0)
    assert got == pytest.approx(1.0, rel=1e-10)


def test_transform_rejects_negative_k():
    with pytest.raises(ValueError):
        radial_transform_check(lambda r: math.exp(-r), -1.0)


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


def test_three_oracles_meet_at_the_physical_point():
    p, s = OrbitalParams(91.33), 3.953 / 3.6
    ref = pair_energy_realspace_reference(p, POT, s)
    est = mc_pair_energy(p, POT, s, samples=150_000, seed=14)
    assert abs(est.mean - ref) <= 3.0 * est.std_error


# ----------------------------------------------------------------------
# nested quadratures for the self-gravitating coefficients
# ----------------------------------------------------------------------

def test_coulomb_self_energy_closed_form():
    for rate in (0.5, 2.0, 11.0):
        assert coulomb_self_energy_quadrature(rate) == pytest.approx(
            5.0 * rate / 16.0, rel=1e-9)


def test_density_power_integral_unit_power():
    # power 1 is just the mass itself
    assert density_power_integral_quadrature(3.0, 7.0, 1.0) == pytest.approx(
        7.0, rel=1e-11)


def test_coulomb_quadrature_rejects_bad_rate():
    with pytest.raises(ValueError):
        coulomb_self_energy_quadrature(-1.0)
