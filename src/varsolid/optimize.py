"""Minimize the solid's energy over (lam, d); cohesive energy and bulk modulus.

The landscape is smooth with a single physical basin, but lam ~ 91 and
d ~ 1.1 live on very different scales, so the simplex runs over (ln lam, d)
to the fixed tolerances PARAM_TOL and ENERGY_TOL.  An optimum on the edge of
SEARCH_BOX is rejected, not returned.  The bulk modulus is the curvature of
the *relaxed* energy-volume curve (lam re-optimized at every
compressed/stretched spacing), B = v d^2u/dv^2 with v = d^3/sqrt(2) per
particle on FCC, from 5-point stencils with steps FD_STEP_REL and half that.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

from scipy.optimize import minimize, minimize_scalar

from .energy import energy_per_particle
from .lattice import LatticeKind, LatticeShells, enumerate_shells
from .model import OrbitalParams, TwoYukawaParams
from .units import UnitSystem


class ConvergenceError(RuntimeError):
    """Minimization failed; carries the best point seen so far."""

    def __init__(self, message: str, best_lambda: float | None = None,
                 best_d: float | None = None, best_u: float | None = None):
        super().__init__(message)
        self.best_lambda = best_lambda
        self.best_d = best_d
        self.best_u = best_u


#: largest shell_cutoff_factor accepted; the enumeration box grows like its
#: cube (about 1.6M sites at 40, against 133 shells at the default 12)
MAX_SHELL_CUTOFF_FACTOR = 40.0

#: open intervals of lam (1/sigma) and d (sigma) that the objective searches;
#: it is +inf outside them, and a start or a sweep must lie inside
SEARCH_BOX = {"lambda": (1e-2, 1e6), "d": (0.3, 20.0)}

#: an optimum this close (relative) to a SEARCH_BOX edge is a wall, not a minimum
BOX_EDGE_REL = 1e-4

#: Nelder-Mead stopping tolerances: absolute on (ln lam, d), so ~1e-7
#: relative on both, and absolute on the energy
PARAM_TOL = 1e-7
ENERGY_TOL = 1e-13

#: bulk-modulus stencil step, relative to d*
FD_STEP_REL = 1e-2


def in_search_box(name: str, *values: float) -> bool:
    """True iff every value lies inside SEARCH_BOX[name] ("lambda" or "d")."""
    lo, hi = SEARCH_BOX[name]
    return all(lo < value < hi for value in values)


def _on_box_edge(name: str, value: float) -> bool:
    lo, hi = SEARCH_BOX[name]
    return value <= lo * (1.0 + BOX_EDGE_REL) or value >= hi * (1.0 - BOX_EDGE_REL)


@dataclass(frozen=True)
class OptimizeOptions:
    lambda_init: float = 50.0
    d_init: float = 1.1
    max_iter: int = 600
    shell_cutoff_factor: float = 12.0  # shells out to this multiple of d

    def __post_init__(self) -> None:
        for name, box in (("lambda_init", "lambda"), ("d_init", "d")):
            if not in_search_box(box, value := getattr(self, name)):
                raise ValueError(f"{name} must lie in {SEARCH_BOX[box]}, got {value!r}")
        if not 0.0 < self.shell_cutoff_factor <= MAX_SHELL_CUTOFF_FACTOR:
            raise ValueError(f"shell_cutoff_factor must lie in (0, {MAX_SHELL_CUTOFF_FACTOR:g}], "
                             f"got {self.shell_cutoff_factor!r}")
        if not self.max_iter >= 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class BulkModulusResult:
    value: float  # epsilon/sigma^3
    value_kbar: float
    richardson_rel_diff: float  # |B(h) - B(h/2)| / |B(h/2)|
    reduced_confidence: bool  # True if the two step sizes disagree > 1%


@dataclass(frozen=True)
class SolidSolution:
    lambda_star: float  # 1/sigma
    d_star: float  # sigma
    d_star_angstrom: float
    u_min: float  # epsilon/particle
    u_min_cal_per_mole: float
    iterations: int
    n_evaluations: int
    final_simplex_size: float
    bulk: BulkModulusResult | None = None


@functools.lru_cache(maxsize=8)
def _unit_shells(cutoff_factor: float) -> LatticeShells:
    """Shells at d = 1, enumerated once per cutoff; safe to share because
    LatticeShells is frozen and its arrays are read-only."""
    return enumerate_shells(LatticeKind.FCC, 1.0, cutoff_factor)


def _objective(pot: TwoYukawaParams, units: UnitSystem,
               unit_shells: LatticeShells) -> Callable[[float, float], float]:
    def u_of(lam: float, d: float) -> float:
        if not (in_search_box("lambda", lam) and in_search_box("d", d)):
            return math.inf
        breakdown = energy_per_particle(OrbitalParams(lam), pot,
                                        unit_shells.scaled(d), units)
        return breakdown.total
    return u_of


def minimize_solid(pot: TwoYukawaParams, units: UnitSystem,
                   opts: OptimizeOptions = OptimizeOptions()) -> SolidSolution:
    """Nelder-Mead over (ln lam, d) from the configured starting point.

    Deterministic: fixed start, no restarts.  Raises ConvergenceError if the
    simplex stalls, stops on a SEARCH_BOX edge, or the converged point is
    not a bound solid.
    """
    unit_shells = _unit_shells(opts.shell_cutoff_factor)
    u_of = _objective(pot, units, unit_shells)

    res = minimize(lambda x: u_of(math.exp(x[0]), x[1]),
                   x0=[math.log(opts.lambda_init), opts.d_init],
                   method="Nelder-Mead",
                   options={"xatol": PARAM_TOL, "fatol": ENERGY_TOL,
                            "maxiter": opts.max_iter, "maxfev": 4 * opts.max_iter})
    lam_star, d_star = math.exp(res.x[0]), float(res.x[1])
    u_min = float(res.fun)
    if not res.success:
        raise ConvergenceError(f"simplex did not converge: {res.message}",
                               best_lambda=lam_star, best_d=d_star, best_u=u_min)
    if _on_box_edge("lambda", lam_star) or _on_box_edge("d", d_star):
        raise ConvergenceError(
            f"the minimum lies on the edge of the search box {SEARCH_BOX}: "
            f"lam={lam_star:.6g}, d={d_star:.6g}",
            best_lambda=lam_star, best_d=d_star, best_u=u_min)
    if not (u_min < 0.0 and d_star > 0.5):
        raise ConvergenceError(
            f"converged to an unbound or collapsed point: lam={lam_star:.6g}, "
            f"d={d_star:.6g}, u={u_min:.6g}",
            best_lambda=lam_star, best_d=d_star, best_u=u_min)

    vertices, _ = res.final_simplex
    size = max(float(max(abs(v - res.x))) for v in vertices)
    return SolidSolution(
        lambda_star=lam_star,
        d_star=d_star,
        d_star_angstrom=d_star * units.sigma_angstrom,
        u_min=u_min,
        u_min_cal_per_mole=units.energy_to_cal_per_mole(u_min),
        iterations=int(res.nit),
        n_evaluations=int(res.nfev),
        final_simplex_size=size)


def relaxed_energy_curve(sol: SolidSolution, pot: TwoYukawaParams,
                         units: UnitSystem,
                         opts: OptimizeOptions = OptimizeOptions()) -> Callable[[float], float]:
    """u(d) with lam re-optimized (bounded Brent in ln lam) at each spacing."""
    unit_shells = _unit_shells(opts.shell_cutoff_factor)
    u_of = _objective(pot, units, unit_shells)
    center = math.log(sol.lambda_star)

    def u_relaxed(d: float) -> float:
        inner = minimize_scalar(lambda t: u_of(math.exp(t), d),
                                bounds=(center - 0.7, center + 0.7),
                                method="bounded",
                                options={"xatol": 1e-11})
        if not inner.success:
            raise ConvergenceError(f"lam re-optimization failed at d={d:.6g}")
        return float(inner.fun)

    return u_relaxed


def _curvature_wrt_volume(u_of_d: Callable[[float], float], d0: float,
                          h_rel: float) -> float:
    """d^2u/dv^2 at d0 via 5-point stencils in d and the chain rule.

    v = d^3/sqrt(2):  d^2u/dv^2 = (u'' - u' v''/v') / v'^2.
    """
    step = h_rel * d0
    ds = [d0 - 2 * step, d0 - step, d0, d0 + step, d0 + 2 * step]
    us = [u_of_d(d) for d in ds]
    du = (us[0] - 8 * us[1] + 8 * us[3] - us[4]) / (12 * step)
    d2u = (-us[0] + 16 * us[1] - 30 * us[2] + 16 * us[3] - us[4]) / (12 * step**2)
    vp = 3.0 * d0**2 / math.sqrt(2.0)
    vpp = 6.0 * d0 / math.sqrt(2.0)
    return (d2u - du * vpp / vp) / vp**2


def bulk_modulus(sol: SolidSolution, pot: TwoYukawaParams, units: UnitSystem,
                 opts: OptimizeOptions = OptimizeOptions()) -> BulkModulusResult:
    """B = v d^2u/dv^2 at the optimum on the relaxed curve, Richardson-checked
    with half the step."""
    if not in_search_box("d", sol.d_star * (1.0 - 2.0 * FD_STEP_REL),
                         sol.d_star * (1.0 + 2.0 * FD_STEP_REL)):
        raise ValueError(f"d*={sol.d_star!r}: the bulk stencil "
                         f"d*(1 +- {2.0 * FD_STEP_REL:g}) leaves the d box")
    # the two stencils share d* and d*(1 +- h)
    u_cached = functools.lru_cache(maxsize=None)(relaxed_energy_curve(sol, pot, units, opts))
    v0 = sol.d_star**3 / math.sqrt(2.0)
    b_h = v0 * _curvature_wrt_volume(u_cached, sol.d_star, FD_STEP_REL)
    b_h2 = v0 * _curvature_wrt_volume(u_cached, sol.d_star, FD_STEP_REL / 2.0)
    rel = abs(b_h - b_h2) / abs(b_h2) if b_h2 != 0.0 else math.inf
    return BulkModulusResult(value=b_h2,
                             value_kbar=units.pressure_to_kbar(b_h2),
                             richardson_rel_diff=rel,
                             reduced_confidence=rel > 0.01)


def solve_solid(pot: TwoYukawaParams, units: UnitSystem,
                opts: OptimizeOptions = OptimizeOptions()) -> SolidSolution:
    """minimize_solid plus the bulk modulus, as one record."""
    sol = minimize_solid(pot, units, opts)
    return replace(sol, bulk=bulk_modulus(sol, pot, units, opts))


def minimum_certificate(sol: SolidSolution, pot: TwoYukawaParams,
                        units: UnitSystem,
                        opts: OptimizeOptions = OptimizeOptions()) -> bool:
    """True iff +-1% moves in lam* and d* never lower the energy."""
    unit_shells = _unit_shells(opts.shell_cutoff_factor)
    u_of = _objective(pot, units, unit_shells)
    u0 = u_of(sol.lambda_star, sol.d_star)
    for flam, fd in ((1.01, 1.0), (0.99, 1.0), (1.0, 1.01), (1.0, 0.99)):
        if u_of(sol.lambda_star * flam, sol.d_star * fd) < u0:
            return False
    return True
