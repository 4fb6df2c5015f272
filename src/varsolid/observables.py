"""Center-of-mass statistics of the localized product state.

For N particles in exponential orbitals the CoM position and total momentum
have per-axis variances

    chi_i  = 4/(lam^2 N)            (sigma^2)
    omega_i = lam^2 N / 12          (hbar^2/sigma^2)

whose product is hbar^2/3 independent of lam and N: the state sits a factor
2/sqrt(3) above the Heisenberg floor for every size of body.  Superpositions
of rigidly translated copies keep the same intrinsic width per branch but
acquire the mixture variance of the displacement pattern, because branches
with disjoint supports contribute no cross terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .units import UnitSystem, check_positive

#: largest |displacement component| (sigma) a superposition accepts: the
#: squared branch separations (<= 12 MAX_DISPLACEMENT^2) and the mixture
#: variance (<= 4 MAX_DISPLACEMENT^2) stay finite doubles
MAX_DISPLACEMENT = 1e150


@dataclass(frozen=True)
class ComStatistics:
    """Per-axis CoM variances; chi in sigma^2, omega in hbar^2/sigma^2,
    product in hbar.  mean_P is in hbar/sigma."""

    chi: float
    omega: float
    product: float
    N: float
    mean_P: tuple[float, float, float] = (0.0, 0.0, 0.0)


def com_statistics(lam: float, N: float) -> ComStatistics:
    """Exact CoM statistics for N particles at orbital decay rate lam."""
    check_positive(lam=lam)
    try:
        n_ok = math.isfinite(N) and N >= 1
    except OverflowError:  # an int beyond the doubles
        raise ValueError("particle count N is an int beyond the doubles") from None
    if not n_ok:
        raise ValueError(f"particle count N must be finite and >= 1, got {N}")
    lam2_n = lam * lam * N
    chi = 4.0 / lam2_n if lam2_n > 0.0 else math.inf
    if not (math.isfinite(lam2_n) and math.isfinite(chi)):
        raise ValueError(f"lam={lam!r} and N={N!r} give lam^2 N = {lam2_n!r}, "
                         "outside the range where lam^2 N and 4/(lam^2 N) "
                         "are positive finite doubles")
    omega = lam2_n / 12.0
    return ComStatistics(chi=chi, omega=omega,
                         product=math.sqrt(chi * omega), N=N)


def galilean_boost(stats: ComStatistics, v, units: UnitSystem) -> ComStatistics:
    """Boost to mean velocity v (natural units sqrt(epsilon/mu)).

    Changes only the mean total momentum, N mu v; every dispersion is
    boost-invariant.  mean_P is reported in hbar/sigma, i.e. divided by
    sqrt(Lambda).
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise ValueError("velocity must be a 3-vector")
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        mean_p = stats.N * v / math.sqrt(units.coupling)
    if not np.all(np.isfinite(mean_p)):
        raise ValueError(f"velocity {v.tolist()} at N={stats.N!r} gives a "
                         "non-finite mean momentum")
    return replace(stats, mean_P=tuple(float(x) for x in mean_p))


def free_spread(stats: ComStatistics, t: float, units: UnitSystem) -> float:
    """CoM position variance after free evolution for time t (natural units).

    chi(t) = chi(0) + omega_phys t^2 / (N mu)^2; the t^2 law assumes zero
    initial position-momentum correlation, which holds for the real product
    state.  omega is stored in hbar^2/sigma^2, hence the Lambda factor.
    """
    if t < 0.0:
        raise ValueError(f"time must be >= 0, got {t}")
    spread = stats.chi + units.coupling * stats.omega * t * t / (stats.N * stats.N)
    if not math.isfinite(spread):
        raise ValueError(f"time {t!r} at N={stats.N!r} gives a non-finite spread")
    return spread


@dataclass(frozen=True)
class SuperpositionSpec:
    """Superposition of rigidly translated copies of the localized body.

    displacements: (K, 3) branch translations a_k in sigma.
    weights: K complex amplitudes c_k with sum |c_k|^2 = 1.
    cutoff_a: orbital truncation radius; branches must satisfy
    |a_k - a_l| >= 2 a so that all cross terms vanish identically.
    """

    displacements: np.ndarray
    weights: np.ndarray
    cutoff_a: float

    def __post_init__(self) -> None:
        disp = np.atleast_2d(np.asarray(self.displacements, dtype=float))
        weights = np.asarray(self.weights, dtype=complex).ravel()
        object.__setattr__(self, "displacements", disp)
        object.__setattr__(self, "weights", weights)
        if disp.shape != (len(weights), 3):
            raise ValueError("need one 3-vector displacement per weight")
        if not np.all(np.abs(disp) <= MAX_DISPLACEMENT):  # NaN fails too
            raise ValueError(f"displacements must be finite with every component "
                             f"at most {MAX_DISPLACEMENT:g} sigma in size, got "
                             f"{disp.tolist()}")
        if not self.cutoff_a > 0.0:
            raise ValueError(f"cutoff_a must be positive, got {self.cutoff_a}")
        with np.errstate(over="ignore"):  # a huge weight squares to inf and fails below
            norm = float(np.sum(np.abs(weights) ** 2))
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError(f"branch weights are not normalized: sum|c|^2 = {norm!r}")
        if len(weights) > 1:
            if math.isinf(self.cutoff_a):
                raise ValueError("multi-branch superpositions need a finite "
                                 "orbital cutoff cutoff_a for the supports to disjoin")
            sep = self.min_separation()
            if sep < 2.0 * self.cutoff_a:
                raise ValueError(
                    f"branch separation {sep:.6g} is below the non-overlap "
                    f"threshold 2 cutoff_a = {2 * self.cutoff_a:.6g}")

    def min_separation(self) -> float:
        disp = self.displacements
        if len(disp) < 2:
            return math.inf
        diffs = disp[:, None, :] - disp[None, :, :]
        dist = np.linalg.norm(diffs, axis=-1)
        iu = np.triu_indices(len(disp), k=1)
        return float(dist[iu].min())


def superposition_spread(spec: SuperpositionSpec, lam: float, N: float) -> np.ndarray:
    """Per-axis CoM position variance of the translated superposition.

    Var_i = 4/(lam^2 N) + sum_k |c_k|^2 a_{k,i}^2 - (sum_k |c_k|^2 a_{k,i})^2.

    The displacement pattern only enters through its weighted mixture
    variance (computed about the weighted centroid, so a global translation
    of all branches changes nothing).  Mean momentum and mean energy are
    unchanged by construction: with disjoint supports every cross matrix
    element vanishes.
    """
    stats = com_statistics(lam, N)
    probs = np.abs(spec.weights) ** 2
    centered = spec.displacements - probs @ spec.displacements
    mixture_var = probs @ centered**2
    return stats.chi + mixture_var
