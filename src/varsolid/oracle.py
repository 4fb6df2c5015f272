"""Independent brute-force verifiers for every closed form in the package.

Nothing here is clever: Monte Carlo for the six-dimensional pair integrals,
adaptive quadrature for radial transforms and nested Coulomb integrals, and
direct samplers for density moments.  These are the instruments the analytic
results in `model`, `energy`, `observables`, and `selfgrav` are pinned
against; the test suite runs them routinely, and `verify_checks` gathers
them into the battery that the CLI `verify` command reports.

Every Monte Carlo estimate is drawn and reduced in blocks of `MC_BLOCK`
samples; each block's count, mean and sum of squared deviations (M2) is
merged into the running totals by the update of Chan, Golub & LeVeque
(Am. Stat. 37, 242 (1983)).  The estimate is still the sample mean with the
unbiased standard error, and memory is O(MC_BLOCK) whatever `samples` is.
The draws of one block all come before those of the next, so a fixed seed
and sample count replay bit for bit.  A rate or separation whose draws,
distances or squared draws leave the doubles raises ValueError naming it.
The quadrature oracles and mc_pair_energy fail closed as the self-gravity
energies do (selfgrav._fails_closed): a rejected input, an overflow or a
result beyond the doubles raises ValueError naming the call's arguments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
# the bare package: scipy's module __getattr__ imports scipy.integrate, and
# with it scipy.optimize and scipy.special (~0.6 s), at the first quadrature,
# so a process that never integrates (`optimize`, a solve) never loads it
import scipy

from .lattice import build_cluster
from .model import (OrbitalParams, TwoYukawaParams, density_fourier,
                    pair_energy, two_yukawa, two_yukawa_fourier)
from .observables import com_statistics
from .selfgrav import (C_KIN, _check_positive, _fails_closed, boson_energy,
                       boson_solve, fermion_solve, fermion_tf_energy)

#: radius used to evaluate lim_{r->0} r*f(r) for kernels as singular as 1/r
_TINY_R = 1e-280

#: seed of every random draw in verify_checks, and the samples of each of
#: its Monte Carlo checks
VERIFY_SEED = 20260815
VERIFY_MC_SAMPLES = 200_000

#: samples drawn and reduced at a time by every Monte Carlo estimate
MC_BLOCK = 2**14


class QuadratureError(RuntimeError):
    """Adaptive quadrature did not reach its requested tolerance."""


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float


# ----------------------------------------------------------------------
# input checks and the streamed moments
# ----------------------------------------------------------------------

def _check_separation(s: float) -> None:
    if not (math.isfinite(s) and s >= 0.0):
        raise ValueError(f"separation must be finite and >= 0, got {s}")


def _check_samples(samples: int) -> None:
    if (isinstance(samples, bool) or not isinstance(samples, (int, np.integer))
            or samples < 1000):
        raise ValueError(f"need an integer of at least 1000 samples, "
                         f"got {samples!r}")


def _streamed_moments(draw: Callable[[int], np.ndarray], samples: int,
                      source: str) -> tuple[Any, Any]:
    """Mean and M2 along axis 0 of `samples` rows, drawn `MC_BLOCK` at a time.

    draw(k) returns the next k rows.  Each block's mean and M2 (sum of
    squared deviations from its mean) merge into the totals by Chan, Golub
    & LeVeque: with delta the gap between the means, the merged M2 is
    M2_a + M2_b + delta^2 n_a n_b / (n_a + n_b).  If a row, its square or
    a sum leaves the doubles, ValueError names `source` ("beta=1e+200").
    """
    n, mean, m2 = 0, 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for start in range(0, samples, MC_BLOCK):
            k = min(MC_BLOCK, samples - start)
            x = draw(k)
            block_mean = x.mean(axis=0)
            dev = x - block_mean
            total = n + k
            delta = block_mean - mean
            mean = mean + delta * (k / total)
            m2 = m2 + (dev * dev).sum(axis=0) + delta * delta * (n * k / total)
            n = total
    if not (np.isfinite(mean).all() and np.isfinite(m2).all()):
        raise ValueError(f"{source}: the Monte Carlo draws or their squares "
                         "leave the doubles")
    return mean, m2


def _row_norms(x: np.ndarray) -> np.ndarray:
    """|x| of each row of a (k, 3) array, bitwise np.linalg.norm(x, axis=1):
    that sums the three squares in order too, at about four times the cost
    for its generic dispatch."""
    return np.sqrt(x[:, 0] * x[:, 0] + x[:, 1] * x[:, 1] + x[:, 2] * x[:, 2])


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------

def sample_exponential_cloud(rate: float, samples: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Positions from the density rate^3 e^{-rate r}/(8 pi).

    Radius ~ Gamma(shape 3, scale 1/rate) times an isotropic direction.
    """
    _check_positive(rate=rate)
    r = rng.gamma(3.0, 1.0 / rate, size=samples)
    if not np.isfinite(r).all():  # 1/rate or a radius overflowed
        raise ValueError(f"rate={rate!r} draws radii beyond the doubles")
    u = rng.normal(size=(samples, 3))
    u /= _row_norms(u)[:, None]
    return r[:, None] * u


def exp_density_sampler(rate: float) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Normalized sampler for the exponential cloud, for mc_pair_integral."""
    return lambda rng, n: sample_exponential_cloud(rate, n, rng)


def sample_orbital_momentum(beta: float, samples: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Momentum vectors (hbar = 1) of the orbital phi ~ e^{-beta r}.

    |phi~(q)|^2 is proportional to (beta^2 + q^2)^{-4}; with u = sin^2(theta)
    under q = beta tan(theta) the radial law becomes u^{1/2}(1-u)^{3/2},
    i.e. u ~ Beta(3/2, 5/2) and q = beta sqrt(u/(1-u)).  By construction
    <q^2> = hbar^2 beta^2 (= 2 mu times the kinetic energy).
    """
    _check_positive(beta=beta)
    u = rng.beta(1.5, 2.5, size=samples)
    with np.errstate(over="ignore"):  # checked below
        q = beta * np.sqrt(u / (1.0 - u))
    if not np.isfinite(q).all():
        raise ValueError(f"beta={beta!r} draws momenta beyond the doubles")
    d = rng.normal(size=(samples, 3))
    d /= _row_norms(d)[:, None]
    return q[:, None] * d


def _pooled_axis_variance(draw: Callable[[np.random.Generator, int], np.ndarray],
                          samples: int, seed: int, source: str) -> McEstimate:
    """Per-axis variance of zero-mean (k, 3) rows from draw(rng, k), pooled
    over the three axes: the mean of the squares, streamed in MC_BLOCK
    blocks, with the standard error of the pooled mean."""
    _check_samples(samples)
    rng = np.random.default_rng(seed)
    mean, m2 = _streamed_moments(lambda k: draw(rng, k) ** 2, samples, source)
    se = float(np.sqrt(np.sum(m2 / (samples - 1) / samples)) / 3.0)
    return McEstimate(mean=float(mean.mean()), std_error=se)


def mc_momentum_axis_variance(beta: float, samples: int = 10**6,
                              seed: int = 0) -> McEstimate:
    """MC estimate of the per-axis momentum variance of e^{-beta r} orbitals.

    Pins the 1/3 in omega-type formulas: the estimate converges on
    hbar^2 beta^2/3 per axis.  Streamed in blocks of MC_BLOCK samples, each
    drawn as sample_orbital_momentum draws it (beta(k), then normal(k, 3)).
    """
    return _pooled_axis_variance(
        lambda rng, k: sample_orbital_momentum(beta, k, rng), samples, seed,
        f"beta={beta!r}")


def mc_com_variance(lam: float, sites: np.ndarray, samples: int,
                    seed: int = 0) -> McEstimate:
    """MC estimate of the per-axis CoM variance of N particles, each in the
    cloud of rate lam about its own site (an (N, 3) array): pins chi =
    4/(lam^2 N).  The CoM is measured from the sites' centroid, known
    exactly, so its offset is the mean of the particles' offsets from their
    sites, drawn site by site and summed so that no site rounds them away."""
    _check_positive(lam=lam)
    sites = np.asarray(sites, dtype=float)
    if not (sites.ndim == 2 and sites.shape[1] == 3 and len(sites) >= 1
            and np.isfinite(sites).all()):
        raise ValueError(f"sites must be a finite (N, 3) array with N >= 1, "
                         f"got shape {sites.shape}")
    return _pooled_axis_variance(
        lambda rng, k: sum(sample_exponential_cloud(lam, k, rng)
                           for _ in range(len(sites))) / len(sites),
        samples, seed, f"lam={lam!r}")


# ----------------------------------------------------------------------
# Monte Carlo pair integrals
# ----------------------------------------------------------------------

def mc_pair_integral(density: Callable[[np.random.Generator, int], np.ndarray],
                     kernel: Callable[[np.ndarray], np.ndarray],
                     separation: float, samples: int, seed: int) -> McEstimate:
    """int int n(r) K(|r - r' + s z^|) n(r') d^3r d^3r' by direct sampling.

    The density must be a normalized sampler; the kernel receives an array
    of radial distances.  Kernels with an integrable point singularity (1/r)
    are fine: the singular set has measure zero, so direct evaluation is
    finite with probability 1.

    The samples are drawn in blocks of MC_BLOCK, each as density(rng, k)
    for r, then density(rng, k) for r', and reduced block by block, so
    memory does not grow with `samples`.  The estimate is the sample mean
    with its unbiased standard error.
    """
    if not math.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation}")
    _check_samples(samples)
    rng = np.random.default_rng(seed)

    def draw(k: int) -> np.ndarray:
        r = density(rng, k)
        diff = r - density(rng, k)
        diff[:, 2] += separation
        dist = _row_norms(diff)
        if not np.isfinite(dist).all():  # a square overflowed
            raise ValueError(f"separation={separation!r}: a distance "
                             "|r - r' + s z^| leaves the doubles")
        return np.asarray(kernel(dist), dtype=float)

    mean, m2 = _streamed_moments(draw, samples, f"separation={separation!r}")
    se = math.sqrt(m2 / (samples - 1)) / math.sqrt(samples)
    return McEstimate(mean=float(mean), std_error=se)


@_fails_closed
def mc_pair_energy(p: OrbitalParams, pot: TwoYukawaParams, s: float,
                   samples: int = 10**6, seed: int = 0) -> McEstimate:
    """MC version of model.pair_energy: two site clouds through the potential."""
    return mc_pair_integral(exp_density_sampler(p.lam), lambda r: two_yukawa(r, pot),
                            s, samples, seed)


# ----------------------------------------------------------------------
# quadrature verifiers
# ----------------------------------------------------------------------

def _times_r(f: Callable[[float], float]) -> Callable[[float], float]:
    """r*f(r), evaluable at r = 0 for f at most as singular as 1/r."""
    def rf(r: float) -> float:
        if r < _TINY_R:
            r = _TINY_R
        return r * f(r)
    return rf


def _decay_cutoff(rf: Callable[[float], float]) -> float:
    """Radius beyond which r*f(r) has decayed to nothing (probe-based)."""
    peak = max(abs(rf(r)) for r in (0.0, 0.25, 0.5, 1.0, 2.0, 4.0))
    if peak == 0.0:
        return 400.0
    for r in (8.0, 16.0, 32.0, 64.0, 128.0, 256.0):
        if abs(rf(r)) < 1e-24 * peak and abs(rf(1.5 * r)) < 1e-24 * peak:
            return 2.0 * r
    return 400.0


def radial_transform_check(f: Callable[[float], float], k: float) -> float:
    """(4 pi / k) int_0^inf r sin(kr) f(r) dr for a radial function f.

    The 3-D Fourier transform of f(|r|) at wavenumber k; the k = 0 branch is
    the plain volume integral.  Oscillation is handled by the sine-weighted
    Clenshaw-Curtis rule on a finite interval chosen past the decay of f, so
    the relative tolerance 1e-10 is honored.  f may diverge at the origin as
    fast as 1/r.  k must be finite and >= 0; a transform that leaves the
    doubles raises QuadratureError.
    """
    if not 0.0 <= k < math.inf:  # NaN fails it too
        raise ValueError(f"wavenumber must be finite and >= 0, got {k}")
    rtol = 1e-10
    rf = _times_r(f)
    try:
        hi = _decay_cutoff(rf)
        with np.errstate(over="raise"), warnings.catch_warnings():
            # QUADPACK's roundoff notes; the error guard below decides
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            if k == 0.0:
                val, err = scipy.integrate.quad(
                    lambda r: 4.0 * math.pi * r * rf(r), 0.0, hi,
                    epsabs=1e-300, epsrel=rtol, limit=800)
                scale = 1.0
            else:
                val, err = scipy.integrate.quad(
                    rf, 0.0, hi, weight="sin", wvar=k, epsabs=1e-300,
                    epsrel=rtol, limit=800, maxp1=100)
                scale = 4.0 * math.pi / k
    except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        # f grew faster than the advertised 1/r origin bound (or blew up
        # elsewhere); report it as a failed transform, not a stray overflow
        raise QuadratureError(
            f"radial transform at k={k:.6g}: integrand not evaluable "
            f"({exc})") from exc
    # at a subnormal k, 4 pi/k is inf and scale * val NaN
    if (not math.isfinite(scale * val) or not math.isfinite(err)
            or abs(err) > 100.0 * rtol * max(abs(val), 1e-300)):
        raise QuadratureError(
            f"radial transform at k={k:.6g}: error estimate {err:.3e} "
            f"exceeds tolerance for value {val:.6e}, or 4 pi/k times it "
            "leaves the doubles")
    return scale * val


@_fails_closed
def pair_energy_quadrature(p: OrbitalParams, pot: TwoYukawaParams,
                           s: float) -> tuple[float, float]:
    """Fourier-space pair energy by mapped adaptive quadrature, with its
    error estimate.

    (1/2 pi^2) int k^2 v~(k) n~(k)^2 j0(ks) dk under k = lam t/(1-t).
    Returns (value, error_estimate).  The error estimate is honest: for
    well-separated sites the integrand oscillates with enormous cancellation,
    and the returned estimate grows to dominate the value itself — that
    regime is exactly why the production path uses the closed form instead.
    """
    _check_separation(s)
    lam = p.lam

    def j0(x: float) -> float:
        if abs(x) < 1e-4:
            x2 = x * x
            return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
        return math.sin(x) / x

    def integrand(t: float) -> float:
        k = lam * t / (1.0 - t)
        jac = lam / (1.0 - t) ** 2
        nk = (1.0 + (k / lam) ** 2) ** -2
        ks = k * s
        if ks == math.inf:  # sin(inf) is a math domain error
            raise ValueError(f"s makes k*s leave the doubles at k={k!r}")
        return k * k * two_yukawa_fourier(k, pot) * nk * nk * j0(ks) * jac

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
        val, err = scipy.integrate.quad(integrand, 0.0, 1.0, epsabs=1e-13,
                                        epsrel=1e-10, limit=2000)
    return val / (2.0 * math.pi**2), err / (2.0 * math.pi**2)


@_fails_closed
def pair_energy_realspace_reference(p: OrbitalParams, pot: TwoYukawaParams,
                                    s: float) -> float:
    """Non-oscillatory real-space reference for the pair energy.

    Uses the bipolar reduction: with h the autocorrelation of the site
    density,

        h(w) = lam^3 e^{-lam w} (lam^2 w^2 + 3 lam w + 3) / (192 pi),

    the smearing integral collapses to

        E_pair(s) = (2 pi / s) int_0^inf w h(w) [ int_{|s-w|}^{s+w} y v(y) dy ] dw,

    and the inner integral is elementary for each Yukawa piece.  No
    oscillation, no cancellation amplification near degenerate exponents —
    this is the strongest independent check on the closed form.
    """
    _check_separation(s)
    lam = p.lam
    b, m_, n_ = pot.b, pot.m, pot.n
    reach = 760.0 / lam  # past it e^{-lam w} < 1e-330 underflows to 0.0
    if reach == math.inf:
        raise ValueError("lam makes the integration range 760/lam leave the doubles")
    try:  # h(w) <= lam^3/(64 pi): finite wherever lam^3 is
        scale_h = lam**3 / (192.0 * math.pi)
    except OverflowError:
        raise ValueError(f"lam={lam!r} makes lam^3 leave the doubles") from None

    def h(w: float) -> float:
        lw = lam * w
        decay = math.exp(-lw)
        if decay == 0.0:  # (lam w)^2 may be inf there, and 0.0 * inf NaN
            return 0.0
        return scale_h * decay * (lw * lw + 3.0 * lw + 3.0)

    # h's own scale: QUADPACK misses a peak of width 1/lam in an interval
    # of width 1 unless the break points resolve its decay out to reach
    near = {1.0 / lam, 10.0 / lam, 30.0 / lam, 100.0 / lam, reach}
    if s == 0.0:
        hi = reach + 2.0
        val, err = scipy.integrate.quad(
            lambda w: 4.0 * math.pi * w * w * h(w)
            * float(two_yukawa(max(w, _TINY_R), pot)),
            0.0, hi, epsabs=1e-300, epsrel=1e-12, limit=800,
            points=sorted(near | {min(1.0, 0.5 * hi)}))
        scale = 1.0
    else:
        def inner(w: float) -> float:
            # e^{-a|s-w|} - e^{-a(s+w)}, factored: the two terms are equal
            # doubles once w < ulp(s), and a sinh form overflows past a s ~ 710
            tot = 0.0
            for sign, a in ((1.0, m_), (-1.0, n_)):
                ea = math.exp(a)  # e^{m} offset of the potential
                tot += -sign * b * ea * math.exp(-a * abs(s - w)) * -math.expm1(
                    -2.0 * a * min(s, w)) / a
            return tot

        hi = s + 3.0 + reach
        pts = sorted(pt for pt in near | {s, abs(s - 1.0 / n_), s + 1.0 / n_,
                                          abs(s - 1.0), s + 1.0, s + 3.0}
                     if 0.0 < pt < hi)
        with warnings.catch_warnings():
            # roundoff chatter near machine-precision convergence; accuracy
            # is enforced by the explicit error guard below
            warnings.simplefilter("ignore", scipy.integrate.IntegrationWarning)
            val, err = scipy.integrate.quad(
                lambda w: w * h(w) * inner(w), 0.0, hi, epsabs=1e-300,
                epsrel=1e-12, limit=800, points=pts)
        scale = 2.0 * math.pi / s
    if abs(err) > 1e-6 * max(abs(val), 1e-300):
        raise QuadratureError(
            f"real-space pair integral at s={s:.6g}: error {err:.3e} "
            f"too large for value {val:.6e}")
    return scale * val


@_fails_closed
def coulomb_self_energy_quadrature(rate: float) -> float:
    """int int rho rho'/|r-r'| for the unit-mass density rate^3 e^{-rate r}/(8 pi).

    Nested shell-theorem quadrature: the inner potential at radius r is
    (4 pi/r) int_0^r t^2 rho dt + 4 pi int_r^inf t rho dt.  Closed form says
    5 rate/16; this pins the Coulomb coefficients used by selfgrav.  It is
    integrated in x = rate r, exactly rate times the rate-1 integral: QUADPACK's
    map of [0, inf) misses a peak of width 1/rate and can report error 0.
    """
    _check_positive(rate=rate)
    rtol = 1e-11

    def rho(r: float) -> float:
        return math.exp(-r) / (8.0 * math.pi)

    def potential(r: float) -> float:
        inner_mass, _ = scipy.integrate.quad(
            lambda t: t * t * rho(t), 0.0, r, epsabs=1e-300, epsrel=rtol,
            limit=200)
        outer, _ = scipy.integrate.quad(lambda t: t * rho(t), r, np.inf,
                                        epsabs=1e-300, epsrel=rtol, limit=200)
        return 4.0 * math.pi * (inner_mass / r + outer)

    val, err = scipy.integrate.quad(
        lambda r: 4.0 * math.pi * r * r * rho(r) * potential(max(r, 1e-12)),
        0.0, np.inf, epsabs=1e-300, epsrel=rtol, limit=200)
    if abs(err) > 1e-6 * abs(val):
        raise QuadratureError(f"nested Coulomb quadrature error {err:.3e} too large")
    return rate * val


@_fails_closed
def density_power_integral_quadrature(rate: float, mass: float,
                                      power: float) -> float:
    """int rho^power d^3r for rho = mass * rate^3 e^{-rate r}/(8 pi).

    Pins the Thomas-Fermi kinetic coefficient (power = 5/3).  Integrated in
    x = rate r, as coulomb_self_energy_quadrature is: exactly
    rate^(3 power - 3) times the rate-1 integral.
    """
    _check_positive(rate=rate, mass=mass, power=power)

    def rho(x: float) -> float:
        return mass * math.exp(-x) / (8.0 * math.pi)

    val, err = scipy.integrate.quad(
        lambda x: 4.0 * math.pi * x * x * rho(x) ** power, 0.0, np.inf,
        epsabs=1e-300, epsrel=1e-12, limit=400)
    if abs(err) > 1e-6 * abs(val):
        raise QuadratureError(f"density power integral error {err:.3e} too large")
    return rate ** (3.0 * power - 3.0) * val


# ----------------------------------------------------------------------
# the verify battery
# ----------------------------------------------------------------------

def _parabola_vertex(f: Callable[[float], float], x: float) -> float:
    """Abscissa of the vertex of the parabola through f at x/2, x and 3x/2:
    the minimizer of f, to rounding, when f is a quadratic."""
    h = 0.5 * x
    lo, mid, hi = f(x - h), f(x), f(x + h)
    return x - h * (hi - lo) / (2.0 * (hi - 2.0 * mid + lo))


def verify_checks(pot: TwoYukawaParams) -> list[dict[str, Any]]:
    """Every oracle cross-check as a row: check, value, reference, error,
    tolerance, passed, plus keys some rows add (worst_k, unit).

    The error is relative to the reference unless a row supplies its own
    (worst-case deviations, Monte Carlo deviations in standard errors).
    Deterministic: the random draws come from VERIFY_SEED, and each Monte
    Carlo check takes VERIFY_MC_SAMPLES samples.
    """
    rng = np.random.default_rng(VERIFY_SEED)
    checks: list[dict[str, Any]] = []

    def record(name: str, value: float, reference: float, tol: float,
               error: float | None = None, **extra: Any) -> None:
        if error is None:
            error = abs(value - reference) / max(abs(reference), 1e-300)
        checks.append({"check": name, "value": value, "reference": reference,
                       "error": error, "tolerance": tol,
                       "passed": bool(error <= tol), **extra})

    # potential transform against direct sine quadrature
    worst_k, worst = 0.0, 0.0
    for k in rng.uniform(0.05, 60.0, 20):
        got = radial_transform_check(lambda r: float(two_yukawa(r, pot)),
                                     float(k))
        want = two_yukawa_fourier(float(k), pot)
        rel = abs(got - want) / abs(want)
        if rel > worst:
            worst_k, worst = float(k), rel
    record("two_yukawa_fourier vs sine quadrature (20 k)", worst, 0.0, 1e-9,
           error=worst, worst_k=worst_k)

    # density transform
    lam0 = 91.33
    p0 = OrbitalParams(lam0)
    got = radial_transform_check(
        lambda r: lam0**3 * math.exp(-lam0 * r) / (8.0 * math.pi), 10.0)
    record("density_fourier vs sine quadrature (k=10)", got,
           density_fourier(p0, 10.0), 1e-9)

    # Plancherel: (1/2 pi^2) int k^2 n~^2 dk = int n^2 d^3r = lam^3/(64 pi)
    plancherel, _ = scipy.integrate.quad(
        lambda k: k * k * (1.0 + (k / lam0) ** 2) ** -4, 0.0, np.inf,
        epsabs=1e-13, epsrel=1e-12, limit=400)
    record("Plancherel norm of site density", plancherel / (2.0 * math.pi**2),
           lam0**3 / (64.0 * math.pi), 1e-9)

    # pair energy: closed form vs real-space quadrature and vs Fourier QAGS
    worst = 0.0
    for lam, s in ((91.33, 0.0), (91.33, 1.0981), (91.33, 2.1962), (50.0, 1.3),
                   (14.7, 1.0981), (200.0, 0.9)):
        cf = pair_energy(OrbitalParams(lam), pot, s)
        ref = pair_energy_realspace_reference(OrbitalParams(lam), pot, s)
        worst = max(worst, abs(cf - ref) / max(abs(ref), 1e-300))
    record("pair_energy closed form vs real-space quadrature", worst, 0.0, 1e-9,
           error=worst)

    qval, qerr = pair_energy_quadrature(p0, pot, 0.0)
    w0 = pair_energy(p0, pot, 0.0)
    record("same-site W vs Fourier quadrature", qval, w0,
           max(1e-8, 3.0 * qerr / abs(w0)))

    # Monte Carlo pair energies
    for i, (lam, s) in enumerate(((91.33, 1.0981), (60.0, 0.0), (120.0, 1.6))):
        est = mc_pair_energy(OrbitalParams(lam), pot, s,
                             samples=VERIFY_MC_SAMPLES, seed=VERIFY_SEED + 1 + i)
        cf = pair_energy(OrbitalParams(lam), pot, s)
        record(f"pair_energy MC lam={lam} s={s}", est.mean, cf, 3.0,
               error=abs(est.mean - cf) / est.std_error, unit="standard errors")

    # Coulomb and Thomas-Fermi coefficient pins
    record("Coulomb self-energy of e^{-2r} cloud",
           coulomb_self_energy_quadrature(2.0), 5.0 * 2.0 / 16.0, 1e-9)
    got = density_power_integral_quadrature(3.0, 7.0, 5.0 / 3.0)
    record("Thomas-Fermi kinetic coefficient", got,
           C_KIN * 7.0 ** (5.0 / 3.0) * 3.0**2, 1e-9)

    # momentum variance pin: per-axis <p^2> of e^{-beta r} orbital
    beta = 45.665
    est = mc_momentum_axis_variance(beta, samples=VERIFY_MC_SAMPLES,
                                    seed=VERIFY_SEED + 17)
    record("per-axis momentum variance (hbar beta)^2/3", est.mean,
           beta**2 / 3.0, 4.0,
           error=abs(est.mean - beta**2 / 3.0) / est.std_error,
           unit="standard errors")

    # the paper's headline law on an explicit body
    est = mc_com_variance(91.33, build_cluster(1.0981, 201),
                          VERIFY_MC_SAMPLES // 200, VERIFY_SEED + 18)
    chi = com_statistics(91.33, 201).chi
    record("CoM variance 4/(lam^2 N), 201-site FCC cluster", est.mean, chi, 4.0,
           error=abs(est.mean - chi) / est.std_error, unit="standard errors")

    # uncertainty product identity
    worst = 0.0
    for _ in range(100):
        lam = float(rng.uniform(0.5, 500.0))
        n = int(rng.integers(1, 10**9))
        worst = max(worst, abs(com_statistics(lam, n).product - 1.0 / math.sqrt(3.0)))
    record("uncertainty product hbar/sqrt(3) (100 draws)", worst, 0.0, 1e-12,
           error=worst)

    # self-gravitating minima: closed forms vs stationarity.  Both energies
    # are quadratic in their rate, so the vertex of the parabola through
    # three of their values is the minimizer, to rounding
    for name, star, energy in (
            ("boson beta*", boson_solve(1000, kappa=0.7, mu=1.3).beta_star, boson_energy),
            ("fermion gamma*", fermion_solve(1000, kappa=0.7, mu=1.3).gamma_star,
             fermion_tf_energy)):
        record(f"{name} closed form vs parabola vertex", star,
               _parabola_vertex(lambda x: energy(x, 1000, kappa=0.7, mu=1.3), star), 1e-12)

    return checks
