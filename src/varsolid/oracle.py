"""Independent brute-force verifiers for every closed form in the package.

Nothing here is clever: Monte Carlo for the six-dimensional pair integrals,
numpy quadrature rules for radial transforms and nested Coulomb integrals,
and direct samplers for density moments.  These are the instruments the analytic
results in `model`, `energy`, `observables`, and `selfgrav` are pinned
against; the test suite runs them routinely, and `verify_checks` gathers
them into the battery that the CLI `verify` command reports.

Every Monte Carlo estimate is drawn in blocks of `MC_BLOCK` samples, block
j from its own stream (child j of np.random.SeedSequence(seed)), in waves
of at most MC_IN_FLIGHT blocks on plain threads, each block into a slot
allocated once per estimate.  The calling thread merges the blocks' counts,
means and sums of squared deviations (M2) in block order (Chan, Golub &
LeVeque, Am. Stat. 37, 242 (1983)), so a fixed seed and sample count replay
bit for bit whatever the thread count, in O(MC_IN_FLIGHT MC_BLOCK) memory.
The estimate is the sample mean with the unbiased standard error.  A rate or
separation whose draws, distances or squared draws leave the doubles raises
ValueError naming it.  A pair's separation r - r' is chi_8 times a standard
normal 3-vector: given the clouds' chi_4 scales a and b it is N(0, (a^2 +
b^2) I), and a^2 + b^2 is chi^2_8.  Its density is the h that
pair_energy_realspace_reference integrates.  mc_pair_energies draws several
points from one stream of separations (common random numbers), as `verify`
draws its three pair rows: each estimate keeps its own standard error, and
the estimates are correlated.
The quadrature oracles and mc_pair_energy fail closed as the self-gravity
energies do (selfgrav._fails_closed): a rejected input or a result beyond
the doubles raises ValueError naming the call's arguments.  Every quadrature
runs in `_quad`: tanh-sinh, exp-sinh on [a, inf), or composite Gauss-Legendre
for a sine weight, each level one array call of the integrand, at most
QUAD_NODES nodes in all.  It is trusted by one rule: an integrand that
overflows, or an error estimate (the change over the last level) above
QUAD_TRUST = 1e-8 of a finite value, raises QuadratureError.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

import numpy as np
# unused: the benchmark's import probe needs `import varsolid` to load the
# scipy package.  No scipy submodule loads, and no scipy function runs
import scipy  # noqa: F401

from .lattice import build_cluster
from .model import (OrbitalParams, TwoYukawaParams, density_fourier,
                    pair_energy, two_yukawa, two_yukawa_fourier)
from .observables import com_statistics
from .selfgrav import (C_KIN, _fails_closed, boson_energy, boson_solve,
                       fermion_solve, fermion_tf_energy)
from .units import check_positive

#: radius used to evaluate lim_{r->0} r*f(r) for kernels as singular as 1/r
_TINY_R = 1e-280

#: -ln of half the least subnormal double: e^{-x} rounds to 0.0 past it
_UNDERFLOW_X = 1075.0 * math.log(2.0)

#: seed of every random draw in verify_checks, and the samples of each of
#: its Monte Carlo checks
VERIFY_SEED = 20260815
VERIFY_MC_SAMPLES = 200_000

#: samples drawn and reduced at a time by every Monte Carlo estimate
MC_BLOCK = 2**14

#: the most blocks a Monte Carlo estimate draws at once, and so the most
#: threads it draws them on: its memory does not grow with the CPU count,
#: and the slots a wave is drawn into stay within ~1 MB
MC_IN_FLIGHT = 2

#: the most of its value a quadrature's error estimate may be, in every
#: oracle; every legitimate call measured is at least 27x inside it
QUAD_TRUST = 1e-8

#: the most nodes a quadrature takes over all its levels: no argument sizes
#: an allocation
QUAD_NODES = 2**16

#: the reach of t in tanh-sinh, to 6e-38 of a piece's width from its ends,
#: and in exp-sinh, over a + [2e-19, 4e18]
_DE_T = 4.0

#: the largest lam pair_energy_quadrature takes.  Its exp-sinh nodes end at
#: k = 4e18: at s = 0 it is right to 8e-16 up to lam = 1e16, and at 3e17 it
#: misses 2.9e-9 of the value with an estimate of 3.3e-10.  The bound stays
#: where it was pinned.  At s = 0.2, QUAD_TRUST refuses it from lam ~ 1e3
FOURIER_MAX_LAM = 1e6


class QuadratureError(RuntimeError):
    """A quadrature that cannot be trusted: its integrand overflowed, or its
    error estimate or a known loss is more than QUAD_TRUST of its value."""


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


def _cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        return os.cpu_count() or 1


def _streamed_moments(draw: Callable[[np.random.Generator, int, np.ndarray], Any],
                      rows: Callable[[Any], np.ndarray], samples: int, seed: int,
                      source: str, slot_rows: int = 0) -> tuple[Any, Any]:
    """Mean and M2 along axis 0 of `samples` rows, drawn `MC_BLOCK` at a time.

    Block j is rows(draw(rng_j, k, out)): rng_j from child j of
    SeedSequence(seed), out a C-contiguous (slot_rows, k) view of its slot.
    The reduction overwrites the array rows returns.  Each wave, one block
    per CPU this process may run on and at most MC_IN_FLIGHT, is drawn into
    the slots (slot_rows min(samples, MC_BLOCK) doubles each, allocated once):
    the calling thread draws the first block and plain threads the rest, and
    once all are joined an exception a thread raised is raised again.  The
    calling thread then merges the blocks' mean and M2 (sum of squared
    deviations) in block order by Chan, Golub & LeVeque: M2_a + M2_b +
    delta^2 n_a n_b / (n_a + n_b), delta the gap between the means.  So
    neither the estimate nor the peak memory depends on the thread count, as
    long as draw keeps all it allocates.  If a row, its square or a sum
    leaves the doubles, ValueError names `source` ("beta=1e+200").
    """
    sizes = [min(MC_BLOCK, samples - start) for start in range(0, samples, MC_BLOCK)]
    streams = np.random.SeedSequence(seed).spawn(len(sizes))
    threads = min(_cpus(), MC_IN_FLIGHT, len(sizes))
    # allocated on the calling thread: a worker thread's own allocator arena
    # kept 1-3 MB of freed draws resident
    slots = [np.empty(slot_rows * sizes[0]) for _ in range(threads)]
    drawn: list[Any] = [None] * threads

    def block(j: int) -> None:
        """Draw block j into its slot, as its entry of drawn or the exception it raised."""
        i, k = j % threads, sizes[j]
        try:
            # a thread starts with numpy's default error state
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                drawn[i] = draw(np.random.default_rng(streams[j]), k,
                                slots[i][:slot_rows * k].reshape(slot_rows, k))
        except BaseException as exc:  # raised again on the calling thread
            drawn[i] = exc

    n, mean, m2 = 0, 0.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for first in range(0, len(sizes), threads):
            wave = range(first, min(first + threads, len(sizes)))
            workers = [threading.Thread(target=block, args=(j,)) for j in wave[1:]]
            for worker in workers:  # on one CPU none starts
                worker.start()
            block(first)
            for worker in workers:
                worker.join()
            for i, k in enumerate(sizes[first:first + threads]):
                x, drawn[i] = drawn[i], None  # each draw is held until it is merged
                if isinstance(x, BaseException):
                    raise x
                x = rows(x)
                block_mean = x.mean(axis=0)
                x -= block_mean
                x *= x
                total = n + k
                delta = block_mean - mean
                mean = mean + delta * (k / total)
                m2 = m2 + x.sum(axis=0) + delta * delta * (n * k / total)
                n = total
    if not (np.isfinite(mean).all() and np.isfinite(m2).all()):
        raise ValueError(f"{source}: the Monte Carlo draws or their squares "
                         "leave the doubles")
    return mean, m2


def _row_norms(x: np.ndarray) -> np.ndarray:
    """|x| of each row of a (k, 3) array, bitwise np.linalg.norm(x, axis=1):
    that sums the three squares in order too, at about four times the cost
    for its generic dispatch."""
    sq = x * x
    norms = sq[:, 0] + sq[:, 1]
    norms += sq[:, 2]
    return np.sqrt(norms, out=norms)


# ----------------------------------------------------------------------
# samplers
# ----------------------------------------------------------------------
#
# Every law here is a Gaussian scale mixture, a standard normal 3-vector
# times a function of a chi variate, drawn into one (4, n) buffer: the scale
# in row 3, drawn first, then the normals in rows 0-2.  A draw allocates
# nothing else.

def _fill_cloud(rate: float, rng: np.random.Generator, out: np.ndarray,
                m: int = 2) -> np.ndarray:
    """Positions from the density rate^3 e^{-rate r}/(8 pi) into rows 0-2 of
    the (4, n) array `out`, returned as their (n, 3) view: chi_4/rate times
    a standard normal 3-vector (Andrews & Mallows, JRSS B 36, 99 (1974)),
    so the radius is Gamma(shape 3, scale 1/rate) and the direction
    isotropic.  chi_2m^2 is 2 (E_1 + ... + E_m), from m exponentials in rows
    4-m to 3.  With m = 4 it draws chi_8/rate times one: the separation
    r - r' of two such clouds."""
    scale = out[3]
    rng.standard_exponential(out=out[4 - m:])
    for row in out[4 - m:3]:
        scale += row
    scale *= 2.0
    np.sqrt(scale, out=scale)
    rng.standard_normal(out=out[:3])
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        scale /= rate
        out[:3] *= scale
    if not np.isfinite(out[:3]).all():  # 1/rate or a position overflowed
        raise ValueError(f"rate={rate!r} draws radii beyond the doubles")
    return out[:3].T


def sample_exponential_cloud(rate: float, samples: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Positions from the density rate^3 e^{-rate r}/(8 pi), as a (samples,
    3) view of the (4, samples) buffer they are drawn in (_fill_cloud)."""
    check_positive(rate=rate)
    return _fill_cloud(rate, rng, np.empty((4, samples)))


def exp_density_sampler(rate: float) -> Callable[[np.random.Generator, int], np.ndarray]:
    """Normalized sampler for the exponential cloud, for mc_pair_integral."""
    return lambda rng, n: sample_exponential_cloud(rate, n, rng)


def _fill_momentum(beta: float, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """sample_orbital_momentum's draw, into the (4, n) array `out`."""
    scale = out[3]
    rng.standard_gamma(2.5, out=scale)
    scale *= 2.0  # chi_5^2
    np.sqrt(scale, out=scale)
    rng.standard_normal(out=out[:3])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # checked below
        np.divide(beta, scale, out=scale)
        out[:3] *= scale
    if not np.isfinite(out[:3]).all():
        raise ValueError(f"beta={beta!r} draws momenta beyond the doubles")
    return out[:3].T


def sample_orbital_momentum(beta: float, samples: int,
                            rng: np.random.Generator) -> np.ndarray:
    """Momentum vectors (hbar = 1) of the orbital phi ~ e^{-beta r}, as a
    (samples, 3) view of the (4, samples) buffer they are drawn in.

    |phi~(q)|^2 is proportional to (beta^2 + q^2)^{-4}, the multivariate t
    law with 5 degrees of freedom and scale beta/sqrt(5): beta times a
    standard normal 3-vector over chi_5.  Then q^2/beta^2 = G_{3/2}/G_{5/2},
    u = q^2/(beta^2 + q^2) ~ Beta(3/2, 5/2), and <q^2> = hbar^2 beta^2
    (= 2 mu times the kinetic energy).
    """
    check_positive(beta=beta)
    return _fill_momentum(beta, rng, np.empty((4, samples)))


def _pooled_axis_variance(draw: Callable[[np.random.Generator, int, np.ndarray], np.ndarray],
                          samples: int, seed: int, source: str,
                          slot_rows: int) -> McEstimate:
    """Per-axis variance of zero-mean (k, 3) rows from draw(rng, k, out)
    (_streamed_moments), pooled over the three axes: the mean of the
    squares, with the standard error of the pooled mean.  The caller checks
    `samples`."""
    mean, m2 = _streamed_moments(draw, lambda x: np.square(x, out=x), samples, seed, source,
                                 slot_rows)
    se = float(np.sqrt(np.sum(m2 / (samples - 1) / samples)) / 3.0)
    return McEstimate(mean=float(mean.mean()), std_error=se)


def mc_momentum_axis_variance(beta: float, samples: int = 10**6,
                              seed: int = 0) -> McEstimate:
    """MC estimate of the per-axis momentum variance of e^{-beta r} orbitals.

    Pins the 1/3 in omega-type formulas: the estimate converges on
    hbar^2 beta^2/3 per axis.  Each block of MC_BLOCK samples is drawn as
    sample_orbital_momentum draws it, from the block's own stream.
    """
    check_positive(beta=beta)
    _check_samples(samples)
    return _pooled_axis_variance(lambda rng, k, out: _fill_momentum(beta, rng, out),
                                 samples, seed, f"beta={beta!r}", 4)


def mc_com_variance(lam: float, sites: np.ndarray, samples: int,
                    seed: int = 0) -> McEstimate:
    """MC estimate of the per-axis CoM variance of N particles, each in the
    cloud of rate lam about its own site (an (N, 3) array): pins chi =
    4/(lam^2 N).  The CoM is measured from the sites' centroid, known
    exactly, so its offset is the mean of the particles' offsets from their
    sites, summed site by site so that no site rounds them away.  A block
    of k samples draws up to MC_BLOCK // k sites per _fill_cloud call."""
    check_positive(lam=lam)
    sites = np.asarray(sites, dtype=float)
    if not (sites.ndim == 2 and sites.shape[1] == 3 and len(sites) >= 1
            and np.isfinite(sites).all()):
        raise ValueError(f"sites must be a finite (N, 3) array with N >= 1, "
                         f"got shape {sites.shape}")
    _check_samples(samples)
    n_sites = len(sites)
    chunk = min(n_sites, MC_BLOCK // min(samples, MC_BLOCK))  # sites per draw

    def offsets(rng: np.random.Generator, k: int, out: np.ndarray) -> np.ndarray:
        offset = out[:3]
        offset.fill(0.0)
        for start in range(0, n_sites, chunk):
            cloud = out[3:3 + 4 * min(chunk, n_sites - start)].reshape(4, -1)
            _fill_cloud(lam, rng, cloud)
            for particle in cloud[:3].reshape(3, -1, k).swapaxes(0, 1):
                offset += particle
        offset /= n_sites
        return offset.T

    return _pooled_axis_variance(offsets, samples, seed, f"lam={lam!r}", 3 + 4 * chunk)


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

    The samples are drawn in blocks of MC_BLOCK, each from its own stream
    as density(rng, k) for r, then density(rng, k) for r', possibly on a
    worker thread, and reduced block by block, so memory does not grow with
    `samples`.  density returns a new (k, 3) array: r - r' overwrites r.
    The estimate is the sample mean with its unbiased standard error.
    """
    if not math.isfinite(separation):
        raise ValueError(f"separation must be finite, got {separation}")
    _check_samples(samples)

    def values(drawn: list[np.ndarray]) -> np.ndarray:
        diff = drawn.pop(0)
        diff -= drawn.pop()  # r - r', in r; r' is freed
        diff[:, 2] += separation
        dist = _row_norms(diff)
        del diff  # freed before the kernel runs
        if not np.isfinite(dist).all():  # a square overflowed
            raise ValueError(f"separation={separation!r}: a distance "
                             "|r - r' + s z^| leaves the doubles")
        return np.array(kernel(dist), dtype=float)  # a copy, for the reduction

    mean, m2 = _streamed_moments(lambda rng, k, _: [density(rng, k), density(rng, k)], values,
                                 samples, seed, f"separation={separation!r}")
    se = math.sqrt(m2 / (samples - 1)) / math.sqrt(samples)
    return McEstimate(mean=float(mean), std_error=se)


def mc_pair_energies(points: Sequence[tuple[OrbitalParams, float]], pot: TwoYukawaParams,
                     samples: int = 10**6, seed: int = 0) -> list[McEstimate]:
    """MC version of model.pair_energy at each point (p, s), all from one
    stream of pair separations (common random numbers).

    A cloud of rate lam is the rate-1 cloud scaled by 1/lam.  So each block
    draws rate-1 separations r - r' into its slot (_fill_cloud), and
    point j's values two_yukawa(|(r - r')/lam_j + s_j z^|) go to row j of
    one buffer that every block reuses, with a scratch row.  Each estimate
    is the mean of `samples` independent pairs with its own unbiased
    standard error.  A separation that is not finite, or a point whose
    distances leave the doubles, raises ValueError naming it.
    """
    at = [(p.lam, s) for p, s in points]
    for _, s in at:
        if not math.isfinite(s):
            raise ValueError(f"separation must be finite, got {s}")
    _check_samples(samples)

    values = np.empty((len(at) + 1, min(samples, MC_BLOCK)))  # every block's, and scratch

    def columns(w: np.ndarray) -> np.ndarray:
        out, tmp = values[:-1, :len(w)], values[-1, :len(w)]
        for dist, (lam, s) in zip(out, at):
            # |(r - r')/lam + s z^|, its squares summed in _row_norms' order
            np.divide(w[:, 0], lam, out=tmp)
            np.multiply(tmp, tmp, out=dist)
            np.divide(w[:, 1], lam, out=tmp)
            tmp *= tmp
            dist += tmp
            np.divide(w[:, 2], lam, out=tmp)
            tmp += s
            tmp *= tmp
            dist += tmp
            np.sqrt(dist, out=dist)
            if not np.isfinite(dist).all():  # a square overflowed
                raise ValueError(f"lam={lam!r}, separation={s!r}: a distance "
                                 "|(r - r')/lam + s z^| leaves the doubles")
        for dist in out:
            dist[:] = two_yukawa(dist, pot)
        return out.T  # each column contiguous, so each reduces as a 1-d array

    source = "; ".join(f"lam={lam!r}, separation={s!r}" for lam, s in at)
    mean, m2 = _streamed_moments(lambda rng, k, out: _fill_cloud(1.0, rng, out, 4), columns,
                                 samples, seed, source, 4)
    return [McEstimate(mean=float(mu),
                       std_error=math.sqrt(sq / (samples - 1)) / math.sqrt(samples))
            for mu, sq in zip(mean, m2)]


@_fails_closed
def mc_pair_energy(p: OrbitalParams, pot: TwoYukawaParams, s: float,
                   samples: int = 10**6, seed: int = 0) -> McEstimate:
    """MC version of model.pair_energy: mc_pair_energies at the one point (p, s)."""
    return mc_pair_energies([(p, s)], pot, samples, seed)[0]


# ----------------------------------------------------------------------
# quadrature verifiers
# ----------------------------------------------------------------------

@contextlib.contextmanager
def _evaluable(what: str):
    """Raise QuadratureError naming `what` where an integrand overflows or divides by 0."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="ignore"):
            yield
    except (OverflowError, ZeroDivisionError, FloatingPointError) as exc:
        raise QuadratureError(f"{what}: integrand not evaluable ({exc})") from exc


def _tanh_sinh(edges: Sequence[float]) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """Levels (keep, nodes, weights) of tanh-sinh on each finite piece between
    `edges`, and exp-sinh on a last piece [a, inf) (Takahashi & Mori, Publ.
    RIMS 9, 721 (1974)), t in [-_DE_T, _DE_T] at a step h halving from 1.
    A level adds the nodes halfway between the last's: it keeps half its sum."""
    ends = np.asarray(edges, dtype=float)
    half_line = bool(ends[-1] == math.inf)
    lo, hi = ends[:-1 - half_line, None], ends[1:len(ends) - half_line, None]
    h, t = 1.0, np.arange(-_DE_T, _DE_T + 0.5)
    while True:
        u = 0.5 * math.pi * np.sinh(t)
        e = np.exp(-2.0 * np.abs(u))  # 1 - tanh|u| = 2e/(1 + e)
        d = (hi - lo) * (e / (1.0 + e))  # each node's distance to the nearer end
        x = np.where(t < 0.0, lo + d, hi - d)
        w = (hi - lo) * (h * math.pi * np.cosh(t) * e / (1.0 + e) ** 2)
        if half_line:
            g = np.exp(u)
            x, w = np.vstack([x, ends[-2] + g]), np.vstack([w, 0.5 * h * math.pi * np.cosh(t) * g])
        yield (0.0 if h == 1.0 else 0.5), x, w
        h /= 2.0
        t = np.arange(-_DE_T + h, _DE_T, 2.0 * h)


#: the positive nodes and their weights of the 20-point Gauss-Legendre rule
#: on [-1, 1]: the exact doubles of numpy's leggauss(20), which is symmetric
_LEGENDRE_20 = np.array([
    [0.07652652113349734, 0.22778585114164507, 0.37370608871541955, 0.5108670019508271,
     0.636053680726515, 0.7463319064601508, 0.8391169718222188, 0.912234428251326,
     0.9639719272779138, 0.993128599185095],
    [0.15275338713072628, 0.14917298647260424, 0.1420961093183824, 0.1316886384491769,
     0.1181945319615186, 0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
     0.040601429800386446, 0.017614007139150893]])


def _legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 20-point Gauss-Legendre nodes, ascending, and weights on [-1, 1]."""
    x, w = _LEGENDRE_20
    return np.r_[-x[::-1], x], np.r_[w[::-1], w]


def _gauss_legendre(a: float, b: float) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """Levels (keep, nodes, weights) of composite 20-point Gauss-Legendre on
    [a, b] over n = 1, 2, 4, ... equal panels, the first cut at a + (b - a)/(n
    4^j), j <= 20, for a peak at a narrower than a panel (cuts at ratio 2
    would repeat from level to level)."""
    x0, w0 = _legendre_rule()
    n = 1
    while True:
        edges = np.concatenate([[a], a + (b - a) / n * 4.0 ** -np.arange(20.0, 0.0, -1.0),
                                np.linspace(a, b, n + 1)[1:]])
        half = 0.5 * np.diff(edges)[:, None]
        yield 0.0, (edges[:-1, None] + half * (1.0 + x0)).reshape(1, -1), (half * w0).reshape(1, -1)
        n *= 2


def _quad(what: str, f: Callable[[np.ndarray], np.ndarray], a: float, b: float, *,
          epsrel: float, epsabs: float = 1e-300, points: Sequence[float] = (),
          sine: float | np.ndarray | None = None) -> tuple[Any, Any]:
    """int_a^b f(x) dx (b may be inf) and its error estimate.  f maps an
    array of nodes to their values, or to an (m, n) array: m integrals.

    The rule is _tanh_sinh's, split at `points`, or with sine = k
    _gauss_legendre's of f(x) sin(k x), f giving one value per node; an
    array of m wavenumbers k makes the m integrals of f(x) sin(k_i x), from
    one call of f per level.  Levels refine until the estimate, the change
    over a level plus its end terms (large where f diverges), is within
    max(epsabs, epsrel |value|) for every integral, or QUAD_NODES nodes are
    used.  Then one rule of trust: an integrand that overflows, or a finite
    value whose estimate is more than QUAD_TRUST of it, raises
    QuadratureError naming `what`.  A non-finite value is returned, for the
    caller to name."""
    def level_sums(x: np.ndarray, w: np.ndarray) -> tuple[Any, Any]:
        """Each integral's weighted sum over a level, and the sum of its two end terms."""
        if sine is None:
            fx = np.asarray(f(x.ravel()))
            terms = w * fx.reshape(fx.shape[:-1] + x.shape)
            return terms.sum(axis=(-2, -1)), np.abs(terms[..., [0, -1]]).sum(axis=(-2, -1))
        # one k at a time: m rows of a level's terms at once took ~0.9 MB,
        # and made `verify`'s peak RSS ~0.7 MB larger
        x, w = x.ravel(), w.ravel()
        fx = f(x)
        sums, ends = [], []
        for k in np.ravel(sine):
            terms = np.sin(k * x)
            terms *= fx
            terms *= w
            sums.append(terms.sum())
            ends.append(abs(terms[0]) + abs(terms[-1]))
        return np.reshape(sums, np.shape(sine)), np.reshape(ends, np.shape(sine))

    levels = _tanh_sinh([a, *points, b]) if sine is None else _gauss_legendre(a, b)
    val, err, used = 0.0, math.inf, 0
    with _evaluable(what):
        for keep, x, w in levels:
            used += x.size
            if used > QUAD_NODES:
                break
            sums, ends = level_sums(x, w)
            last, val = val, sums + (keep * val if keep else 0.0)
            if used > x.size:  # from the second level on
                err = np.abs(val - last) + ends
                done = np.all(err <= np.maximum(epsabs, epsrel * np.abs(val)))
                if done or not np.isfinite(val).all():
                    break
    err = np.broadcast_to(err, np.shape(val))
    bad = np.flatnonzero(np.isfinite(val) & ~(err <= QUAD_TRUST * np.abs(val)))  # NaN err too
    if bad.size:
        raise QuadratureError(f"{what}: error estimate {err.flat[bad[0]]:.3e} is more than "
                              f"{QUAD_TRUST:g} of the value {np.ravel(val)[bad[0]]:.6e}")
    return (float(val), float(err)) if np.ndim(val) == 0 else (val, err)


def radial_transform_check(f: Callable[[np.ndarray], np.ndarray], k: Any) -> Any:
    """(4 pi / k) int_0^inf r sin(kr) f(r) dr for a radial function f.

    The 3-D Fourier transform of f(|r|) at wavenumber k; the k = 0 branch is
    the plain volume integral.  f takes an array of radii.  The sine integral
    is composite Gauss-Legendre on a finite interval chosen past the decay
    of f, refined to the relative tolerance 1e-12.  f may diverge at the
    origin as fast as 1/r.  A number k must be finite and >= 0, and gives a
    float.  A 1-d array of wavenumbers, each finite and > 0, gives the array
    of their transforms from one decay probe and one quadrature, refined
    until every one of them meets the tolerance.  A transform that leaves
    the doubles raises QuadratureError.
    """
    if np.ndim(k) == 0:
        if not 0.0 <= k < math.inf:  # NaN fails it too
            raise ValueError(f"wavenumber must be finite and >= 0, got {k}")
        what = f"radial transform at k={k:.6g}"
    else:
        k = np.asarray(k, dtype=float)
        if k.ndim != 1 or k.size == 0:
            raise ValueError(f"wavenumbers must be a number or a non-empty 1-d array, "
                             f"got shape {k.shape}")
        bad = np.flatnonzero(~((k > 0.0) & (k < math.inf)))  # NaN fails it too
        if bad.size:
            raise ValueError(f"wavenumber must be finite and > 0 in an array, got "
                             f"{k[bad[0]]} at index {bad[0]}")
        what = f"radial transform at {k.size} wavenumbers in [{k.min():.6g}, {k.max():.6g}]"

    def rf(r: np.ndarray) -> np.ndarray:  # finite at r = 0 for f as singular as 1/r
        r = np.maximum(r, _TINY_R)
        return r * f(r)

    # probe where r f(r) has decayed to nothing; f may grow faster than 1/r
    with _evaluable(what):
        peak = np.max(np.abs(rf(np.array([0.0, 0.25, 0.5, 1.0, 2.0, 4.0]))))
        r = np.array([8.0, 16.0, 32.0, 64.0, 128.0, 256.0])
        gone = (np.abs(rf(r)) < 1e-24 * peak) & (np.abs(rf(1.5 * r)) < 1e-24 * peak)
    hi = 2.0 * float(r[gone][0]) if gone.any() else 400.0
    if np.ndim(k) == 0 and k == 0.0:
        out, _ = _quad(what, lambda r: 4.0 * math.pi * r * rf(r), 0.0, hi, epsrel=1e-12)
    else:
        val, _ = _quad(what, rf, 0.0, hi, epsrel=1e-12, sine=k)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            out = 4.0 * math.pi / k * val
    if not np.isfinite(out).all():  # at a subnormal k, 4 pi/k is inf
        raise QuadratureError(f"{what}: the transform leaves the doubles")
    return float(out) if np.ndim(out) == 0 else out


@_fails_closed
def pair_energy_quadrature(p: OrbitalParams, pot: TwoYukawaParams,
                           s: float) -> tuple[float, float]:
    """Fourier-space pair energy by exp-sinh quadrature, with its error
    estimate.

    (1/2 pi^2) int_0^inf k^2 v~(k) n~(k)^2 j0(ks) dk.
    Returns (value, error_estimate).  The error estimate is honest: for
    well-separated sites the integrand oscillates with enormous cancellation,
    and the returned estimate grows to dominate the value itself — that
    regime is exactly why the production path uses the closed form instead.
    A lam above FOURIER_MAX_LAM raises ValueError.
    """
    _check_separation(s)
    lam = p.lam
    if lam > FOURIER_MAX_LAM:
        raise ValueError(f"lam={lam!r} is above {FOURIER_MAX_LAM:g}, the largest "
                         "lam this oracle takes")

    def integrand(k: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):  # checked below
            ks = k * s
        if not np.isfinite(ks).all():  # sin(inf) is NaN
            raise ValueError(f"s makes k*s leave the doubles at k={k.max()!r}")
        nk = (1.0 + (k / lam) ** 2) ** -2
        return k * k * two_yukawa_fourier(k, pot) * nk * nk * np.sinc(ks / math.pi)

    val, err = _quad(f"Fourier pair integral at s={s:.6g}", integrand, 0.0, np.inf,
                     epsabs=1e-13, epsrel=1e-10)
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
    if s > 0.0 and 2.0 * math.pi / s == math.inf:
        raise ValueError(f"s={s!r} makes 2 pi/s leave the doubles")
    lam = p.lam
    b, m_, n_ = pot.b, pot.m, pot.n
    reach = 760.0 / lam  # past it e^{-lam w} < 1e-330 underflows to 0.0
    if reach == math.inf:
        raise ValueError("lam makes the integration range 760/lam leave the doubles")
    try:  # h(w) <= lam^3/(64 pi): finite wherever lam^3 is
        scale_h = lam**3 / (192.0 * math.pi)
    except OverflowError:
        raise ValueError(f"lam={lam!r} makes lam^3 leave the doubles") from None

    def h(w: np.ndarray) -> np.ndarray:
        lw = np.minimum(lam * w, 760.0)  # e^{-760} is 0.0, and (lam w)^2 stays finite
        return scale_h * np.exp(-lw) * (lw * lw + 3.0 * lw + 3.0)

    # past reach h is 0.0: the integrands end there, and tanh-sinh resolves
    # h's peak of width 1/lam at the end w = 0 of [0, reach]
    what = f"real-space pair integral at s={s:.6g}"
    if s == 0.0:
        val, _ = _quad(what, lambda w: 4.0 * math.pi * w * w * h(w)
                       * two_yukawa(np.maximum(w, _TINY_R), pot), 0.0, reach, epsrel=1e-12)
        return val
    else:
        def inner(w: np.ndarray) -> np.ndarray:
            # e^{-a|s-w|} - e^{-a(s+w)}, factored: the two terms are equal
            # doubles once w < ulp(s), and a sinh form overflows past a s ~ 710
            tot = 0.0
            for sign, a in ((1.0, m_), (-1.0, n_)):
                ea = math.exp(a)  # e^{m} offset of the potential
                tot = tot - sign * b * ea * np.exp(-a * np.abs(s - w)) * -np.expm1(
                    -2.0 * a * np.minimum(s, w)) / a
            return tot

        val, _ = _quad(what, lambda w: w * h(w) * inner(w), 0.0, reach,
                       epsrel=1e-12, points=[s] if s < reach else [])  # inner's kink
        return 2.0 * math.pi / s * val


@_fails_closed
def coulomb_self_energy_quadrature(rate: float) -> float:
    """int int rho rho'/|r-r'| for the unit-mass density rate^3 e^{-rate r}/(8 pi).

    Nested shell-theorem quadrature: the inner potential at radius r is
    (4 pi/r) int_0^r t^2 rho dt + 4 pi int_r^inf t rho dt.  Closed form says
    5 rate/16; this pins the Coulomb coefficients used by selfgrav.  It is
    integrated in x = rate r, exactly rate times the rate-1 integral, and
    each outer node of a level is a row of the two inner integrals.
    """
    check_positive(rate=rate)

    def rho(r: np.ndarray) -> np.ndarray:
        return np.exp(-r) / (8.0 * math.pi)

    def potential(r: np.ndarray) -> np.ndarray:
        # (1/r) int_0^r t^2 rho in t = r u, and int_r^inf t rho in t = r + v
        # as e^{-r} int (r + v) rho(v): no underflow.  Past 800, rho(r) is 0.0
        r = np.clip(r, 1e-12, 800.0)[:, None]
        inner_mass, _ = _quad("Coulomb inner mass", lambda u: r * r * u * u * rho(r * u),
                              0.0, 1.0, epsrel=1e-11)
        outer, _ = _quad("Coulomb outer potential", lambda v: (r + v) * rho(v),
                         0.0, np.inf, epsrel=1e-11)
        return 4.0 * math.pi * (inner_mass + np.exp(-r[:, 0]) * outer)

    val, _ = _quad("nested Coulomb quadrature",
                   lambda r: 4.0 * math.pi * r * r * rho(r) * potential(r),
                   0.0, np.inf, epsrel=1e-11)
    return rate * val


@_fails_closed
def density_power_integral_quadrature(rate: float, mass: float,
                                      power: float) -> float:
    """int rho^power d^3r for rho = mass * rate^3 e^{-rate r}/(8 pi).

    Pins the Thomas-Fermi kinetic coefficient (power = 5/3).  Integrated in
    x = rate r, as coulomb_self_energy_quadrature is: exactly
    rate^(3 power - 3) times the rate-1 integral.  rho underflows to 0.0
    past x = X, and the part of the integral it loses there is the fraction
    e^{-z}(1 + z + z^2/2) with z = power X; where that is more than
    QUAD_TRUST, QuadratureError names the power.
    """
    check_positive(rate=rate, mass=mass, power=power)

    def rho(x: np.ndarray) -> np.ndarray:
        return mass * np.exp(-x) / (8.0 * math.pi)

    # mass e^{-x}/(8 pi) rounds to 0.0 below half the least subnormal, and
    # e^{-x} itself past the same point
    z = power * max(0.0, _UNDERFLOW_X + min(0.0, math.log(mass) - math.log(8.0 * math.pi)))
    lost = math.exp(-z) * (1.0 + z + 0.5 * z * z)
    if lost > QUAD_TRUST:
        raise QuadratureError(
            f"density power integral at power={power!r}: rho underflows to 0.0 "
            f"where {lost:.3e} of the integral lies")
    val, _ = _quad("density power integral", lambda x: 4.0 * math.pi * x * x * rho(x) ** power,
                   0.0, np.inf, epsrel=1e-12)
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

    # potential transform against direct sine quadrature, at 20 k at once
    ks = rng.uniform(0.05, 60.0, 20)
    want = two_yukawa_fourier(ks, pot)
    rel = np.abs(radial_transform_check(lambda r: two_yukawa(r, pot), ks) - want) / np.abs(want)
    worst = float(rel.max())
    record("two_yukawa_fourier vs sine quadrature (20 k)", worst, 0.0, 1e-9,
           error=worst, worst_k=float(ks[rel.argmax()]))

    # density transform
    lam0 = 91.33
    p0 = OrbitalParams(lam0)
    got = radial_transform_check(
        lambda r: lam0**3 * np.exp(-lam0 * r) / (8.0 * math.pi), 10.0)
    record("density_fourier vs sine quadrature (k=10)", got,
           density_fourier(p0, 10.0), 1e-9)

    # Plancherel: (1/2 pi^2) int k^2 n~^2 dk = int n^2 d^3r = lam^3/(64 pi)
    plancherel, _ = _quad("Plancherel norm",
                          lambda k: k * k * (1.0 + (k / lam0) ** 2) ** -4, 0.0, np.inf,
                          epsabs=1e-13, epsrel=1e-12)
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

    # Monte Carlo pair energies, from one stream of cloud pairs
    points = [(OrbitalParams(lam), s) for lam, s in ((91.33, 1.0981), (60.0, 0.0), (120.0, 1.6))]
    for (p, s), est in zip(points, mc_pair_energies(points, pot, samples=VERIFY_MC_SAMPLES,
                                                     seed=VERIFY_SEED + 1)):
        cf = pair_energy(p, pot, s)
        record(f"pair_energy MC lam={p.lam} s={s}", est.mean, cf, 3.0,
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
