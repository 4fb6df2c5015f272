"""Minimize the solid's energy over (lam, d); cohesive energy and bulk modulus.

The landscape is smooth with a single physical basin, but lam ~ 91 and
d ~ 1.1 live on very different scales, so the simplex runs over (ln lam, d)
to the fixed tolerances PARAM_TOL and ENERGY_TOL in at most MAX_ITER
iterations.  The simplex is _nelder_mead, a Nelder-Mead on Python floats
that takes scipy's steps exactly, so this module imports no scipy.  An
optimum on the edge of SEARCH_BOX is rejected, not returned.  The bulk modulus is the curvature of the *relaxed* energy-volume
curve (lam re-optimized at every compressed/stretched spacing),
B = v d^2u/dv^2 with v = d^3/sqrt(2) per particle on FCC, from 5-point
stencils with steps FD_STEP_REL and half that.

The re-optimization of lam at a fixed spacing is a safeguarded Newton
iteration in t = ln lam (Nocedal & Wright, Numerical Optimization, ch. 3)
on the exact derivatives u_t = lam u_lam and u_tt = lam u_lam + lam^2
u_lamlam, which one order-2 energy evaluation gives with the value.  Steps
are capped at NEWTON_MAX_STEP, and one that lowers neither the energy nor
the slope |u_t| is halved; the iteration stops once a step is at most
NEWTON_STEP_TOL, and fails closed (ConvergenceError) when lam leaves
SEARCH_BOX, when an evaluation is not finite, when no descent step exists,
or after NEWTON_MAX_STEPS evaluations.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, NamedTuple

from .energy import energy_per_particle
from .lattice import LatticeKind, LatticeShells, enumerate_shells
from .model import OrbitalParams, TwoYukawaParams
from .units import UnitSystem


class ConvergenceError(RuntimeError):
    """Minimization failed; carries the best point seen so far.

    A failed re-optimization of lam at a fixed spacing also carries u_t,
    du/d ln lam at best_lambda.
    """

    def __init__(self, message: str, best_lambda: float | None = None,
                 best_d: float | None = None, best_u: float | None = None,
                 u_t: float | None = None):
        super().__init__(message)
        self.best_lambda = best_lambda
        self.best_d = best_d
        self.best_u = best_u
        self.u_t = u_t


#: open intervals of lam (1/sigma) and d (sigma) that the objective searches;
#: it is +inf outside them, and a start or a sweep must lie inside
SEARCH_BOX = {"lambda": (1e-2, 1e6), "d": (0.3, 20.0)}

#: an optimum this close (relative) to a SEARCH_BOX edge is a wall, not a minimum
BOX_EDGE_REL = 1e-4

#: Nelder-Mead stopping tolerances: absolute on (ln lam, d), so ~1e-7
#: relative on both, and absolute on the energy
PARAM_TOL = 1e-7
ENERGY_TOL = 1e-13

#: Nelder-Mead iteration cap; energy evaluations are capped at 4 * MAX_ITER
MAX_ITER = 600

#: bulk-modulus stencil step, relative to d*
FD_STEP_REL = 1e-2

#: Newton on ln lam at a fixed spacing: converged once a step is at most
#: NEWTON_STEP_TOL, no step longer than NEWTON_MAX_STEP (a factor e^0.5 in
#: lam), and at most NEWTON_MAX_STEPS energy evaluations
NEWTON_STEP_TOL = 1e-9
NEWTON_MAX_STEP = 0.5
NEWTON_MAX_STEPS = 30


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

    #: shells out to this multiple of d, a class constant, not a field: the
    #: sum has converged far below 1e-9 there (133 shells), and only
    #: perfbench reads it off an instance
    shell_cutoff_factor: ClassVar[float] = 12.0

    def __post_init__(self) -> None:
        for name, box in (("lambda_init", "lambda"), ("d_init", "d")):
            if not in_search_box(box, value := getattr(self, name)):
                raise ValueError(f"{name} must lie in {SEARCH_BOX[box]}, got {value!r}")


@dataclass(frozen=True)
class BulkModulusResult:
    value: float  # epsilon/sigma^3
    value_kbar: float
    richardson_rel_diff: float  # |B(h) - B(h/2)| / |B(h/2)|
    reduced_confidence: bool  # True if the two step sizes disagree > 1%
    n_evaluations: int  # energy evaluations of the relaxed curve


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


@functools.cache
def unit_shells() -> LatticeShells:
    """The FCC shells out to OptimizeOptions.shell_cutoff_factor at d = 1,
    enumerated once per process; safe to share because LatticeShells is
    frozen and its arrays are read-only."""
    return enumerate_shells(LatticeKind.FCC, 1.0, OptimizeOptions.shell_cutoff_factor)


def _objective(pot: TwoYukawaParams, units: UnitSystem) -> Callable[[float, float], float]:
    shells = unit_shells()

    def u_of(lam: float, d: float) -> float:
        if not (in_search_box("lambda", lam) and in_search_box("d", d)):
            return math.inf
        breakdown = energy_per_particle(OrbitalParams(lam), pot,
                                        shells.scaled(d), units)
        return breakdown.total
    return u_of


#: Nelder-Mead coefficients (scipy's rho, chi, psi and sigma), and the
#: initial simplex's relative step, or its step from a zero coordinate
REFLECTION, EXPANSION, CONTRACTION, SHRINKAGE = 1, 2, 0.5, 0.5
SIMPLEX_STEP, SIMPLEX_ZERO_STEP = 0.05, 0.00025


class _Spent(Exception):
    """The simplex's energy-evaluation budget is used up."""


class _Simplex(NamedTuple):
    x: tuple  # the best vertex
    fun: float  # its value, or NaN if any vertex's value is NaN
    nit: int
    nfev: int
    vertices: list  # best first
    values: list
    cap: str | None  # "maxfev" or "maxiter" if one stopped it, else None


def _nelder_mead(fun: Callable[[tuple], float], x0, xatol: float,
                 fatol: float, maxiter: int, maxfev: int) -> _Simplex:
    """Non-adaptive Nelder-Mead (Nelder & Mead, Comput. J. 7, 308, 1965) on
    Python floats, step for step scipy.optimize.minimize(method="Nelder-Mead")
    with the same options, so every iterate, count and exit is bitwise
    scipy's.  Hence the scipy details: vertices sort stably with NaN last
    (np.argsort), a NaN difference fails the xatol/fatol test (np.max),
    nit counts from 1, and the budget is checked before each call.
    """
    x0 = tuple(map(float, x0))
    n = len(x0)
    nfev = 0

    def f(x: tuple) -> float:
        nonlocal nfev
        if nfev >= maxfev:
            raise _Spent
        nfev += 1
        return fun(x)

    def toward(xbar: tuple, worst: tuple, a: float, b: float) -> tuple:
        """a xbar - b worst, rounded as scipy's array expressions round."""
        return tuple(a * c - b * w for c, w in zip(xbar, worst))

    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + SIMPLEX_STEP) * y[k] if y[k] != 0 else SIMPLEX_ZERO_STEP
        sim.append(tuple(y))
    fsim = [math.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    except _Spent:
        pass
    nit = 1
    while True:
        pairs = sorted(zip(fsim, sim), key=lambda p: (math.isnan(p[0]), p[0]))
        fsim, sim = [p[0] for p in pairs], [p[1] for p in pairs]
        if not (nfev < maxfev and nit < maxiter):
            break
        if (all(abs(c - b) <= xatol for v in sim[1:] for c, b in zip(v, sim[0]))
                and all(abs(fsim[0] - g) <= fatol for g in fsim[1:])):
            break
        try:
            # the centroid of all but the worst, summed in order like np.add.reduce
            xbar = tuple(functools.reduce(operator.add, c) / n for c in zip(*sim[:-1]))
            xr = toward(xbar, sim[-1], 1 + REFLECTION, REFLECTION)
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = toward(xbar, sim[-1], 1 + REFLECTION * EXPANSION,
                            REFLECTION * EXPANSION)
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = toward(xbar, sim[-1], 1 + CONTRACTION * REFLECTION,
                                CONTRACTION * REFLECTION)
                    fxc = f(xc)
                    shrink = not fxc <= fxr
                else:  # inside contraction
                    xc = toward(xbar, sim[-1], 1 - CONTRACTION, -CONTRACTION)
                    fxc = f(xc)
                    shrink = not fxc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = tuple(b + SHRINKAGE * (c - b) for c, b in zip(sim[j], sim[0]))
                        fsim[j] = f(sim[j])
            nit += 1
        except _Spent:
            pass
    cap = "maxfev" if nfev >= maxfev else "maxiter" if nit >= maxiter else None
    best = math.nan if any(map(math.isnan, fsim)) else fsim[0]
    return _Simplex(sim[0], best, nit, nfev, sim, fsim, cap)


def minimize_solid(pot: TwoYukawaParams, units: UnitSystem,
                   opts: OptimizeOptions = OptimizeOptions()) -> SolidSolution:
    """Nelder-Mead over (ln lam, d) from the configured starting point.

    Deterministic: fixed start, no restarts.  Raises ConvergenceError if the
    simplex stalls, stops on a SEARCH_BOX edge, or the converged point is
    not a bound solid.
    """
    u_of = _objective(pot, units)

    res = _nelder_mead(lambda x: u_of(math.exp(x[0]), x[1]),
                       (math.log(opts.lambda_init), opts.d_init),
                       PARAM_TOL, ENERGY_TOL, MAX_ITER, 4 * MAX_ITER)
    lam_star, d_star = math.exp(res.x[0]), res.x[1]
    u_min = res.fun
    if res.cap is not None:
        raise ConvergenceError(f"simplex did not converge: hit its {res.cap} cap",
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

    size = max(max(abs(c - b) for c, b in zip(v, res.x)) for v in res.vertices)
    return SolidSolution(
        lambda_star=lam_star,
        d_star=d_star,
        d_star_angstrom=d_star * units.sigma_angstrom,
        u_min=u_min,
        u_min_cal_per_mole=units.energy_to_cal_per_mole(u_min),
        iterations=res.nit,
        n_evaluations=res.nfev,
        final_simplex_size=size)


class _RelaxedCurve:
    """u(d) with lam re-optimized at each spacing d, memoized by d.

    Each spacing starts from a linear extrapolation in d of ln lam over the
    two nearest spacings already solved; d* is seeded with ln lam*.
    n_evaluations counts the energy evaluations made so far.
    """

    def __init__(self, rows: Callable[[float, float], tuple[float, float, float]],
                 d_star: float, lam_star: float) -> None:
        self._rows = rows
        self._t = {d_star: math.log(lam_star)}  # relaxed ln lam by spacing
        self._u: dict[float, float] = {}
        self.n_evaluations = 0

    def __call__(self, d: float) -> float:
        if not in_search_box("d", d):
            raise ValueError(f"d must lie in {SEARCH_BOX['d']}, got {d!r}")
        if d not in self._u:
            self._u[d] = self._relax(d, self._warm_start(d))
        return self._u[d]

    def _warm_start(self, d: float) -> float:
        near = sorted(self._t, key=lambda solved: abs(solved - d))[:2]
        if len(near) == 1:
            return self._t[near[0]]
        (d1, t1), (d2, t2) = ((x, self._t[x]) for x in near)
        return t1 + (t2 - t1) * (d - d1) / (d2 - d1)

    def _relax(self, d: float, t_trial: float) -> float:
        """Safeguarded Newton in t = ln lam from t_trial; the relaxed u(d),
        the lowest u evaluated.

        A trial point is kept if it lowers u or the slope |u_t|.  Near the
        minimum a Newton step moves u by less than its rounding, and the
        slope is what still measures progress; a trial that does neither
        halves the step.
        """
        best = None  # (t, u, u_t, u_tt) of the last accepted point
        lowest = math.inf  # the lowest u evaluated
        limit = NEWTON_MAX_STEP
        for _ in range(NEWTON_MAX_STEPS):
            lam = math.exp(t_trial)
            if not in_search_box("lambda", lam):
                raise self._failure(f"lam={lam:.6g} left the search box "
                                    f"{SEARCH_BOX['lambda']}", d, best, lam)
            u, u_lam, u_lamlam = self._rows(lam, d)
            self.n_evaluations += 1
            if not all(map(math.isfinite, (u, u_lam, u_lamlam))):
                raise self._failure(f"non-finite energy or derivative at "
                                    f"lam={lam:.6g}", d, best, lam)
            lowest = min(lowest, u)
            u_t = lam * u_lam
            if best is None or u <= best[1] or abs(u_t) < abs(best[2]):
                best = (t_trial, u, u_t, u_t + lam * lam * u_lamlam)
                limit = NEWTON_MAX_STEP
            else:  # backtrack: halve the step from the accepted point
                limit = abs(t_trial - best[0]) / 2.0
            t, u, u_t, u_tt = best
            if u_tt > 0.0:
                step = -u_t / u_tt
            elif u_t != 0.0:  # not convex here: a capped step downhill
                step = -math.copysign(limit, u_t)
            else:
                raise self._failure("no descent step exists (u_t = 0, "
                                    f"u_tt = {u_tt:.6g})", d, best, lam)
            step = max(-limit, min(limit, step))
            if abs(step) <= NEWTON_STEP_TOL:
                self._t[d] = t
                return lowest
            t_trial = t + step
        raise self._failure(f"no convergence in {NEWTON_MAX_STEPS} energy "
                            "evaluations", d, best, lam)

    @staticmethod
    def _failure(reason: str, d: float, best, lam: float) -> ConvergenceError:
        """The error for spacing d, with the last accepted point (or, before
        any, the lam tried) and its slope u_t."""
        message = f"lam re-optimization failed at d={d:.6g}: {reason}"
        if best is None:
            return ConvergenceError(message, best_lambda=lam, best_d=d)
        t, u, u_t, _ = best
        return ConvergenceError(
            f"{message}; last accepted lam={math.exp(t):.6g} with u_t={u_t:.6g}",
            best_lambda=math.exp(t), best_d=d, best_u=u, u_t=u_t)


def relaxed_energy_curve(sol: SolidSolution, pot: TwoYukawaParams,
                         units: UnitSystem) -> _RelaxedCurve:
    """u(d) with lam re-optimized (Newton in ln lam) at each spacing.

    The result is callable and memoized by d; its n_evaluations counts the
    energy evaluations it has made.
    """
    shells = unit_shells()

    def rows(lam: float, d: float) -> tuple[float, float, float]:
        breakdown = energy_per_particle(OrbitalParams(lam), pot,
                                        shells.scaled(d), units, order=2)
        return (breakdown.total, *breakdown.lam_derivatives)

    return _RelaxedCurve(rows, sol.d_star, sol.lambda_star)


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


def bulk_modulus(sol: SolidSolution, pot: TwoYukawaParams,
                 units: UnitSystem) -> BulkModulusResult:
    """B = v d^2u/dv^2 at the optimum on the relaxed curve, Richardson-checked
    with half the step."""
    if not in_search_box("d", sol.d_star * (1.0 - 2.0 * FD_STEP_REL),
                         sol.d_star * (1.0 + 2.0 * FD_STEP_REL)):
        raise ValueError(f"d*={sol.d_star!r}: the bulk stencil "
                         f"d*(1 +- {2.0 * FD_STEP_REL:g}) leaves the d box")
    # the two stencils share d* and d*(1 +- h); the curve memoizes them
    curve = relaxed_energy_curve(sol, pot, units)
    v0 = sol.d_star**3 / math.sqrt(2.0)
    b_h = v0 * _curvature_wrt_volume(curve, sol.d_star, FD_STEP_REL)
    b_h2 = v0 * _curvature_wrt_volume(curve, sol.d_star, FD_STEP_REL / 2.0)
    rel = abs(b_h - b_h2) / abs(b_h2) if b_h2 != 0.0 else math.inf
    return BulkModulusResult(value=b_h2,
                             value_kbar=units.pressure_to_kbar(b_h2),
                             richardson_rel_diff=rel,
                             reduced_confidence=rel > 0.01,
                             n_evaluations=curve.n_evaluations)


def solve_solid(pot: TwoYukawaParams, units: UnitSystem,
                opts: OptimizeOptions = OptimizeOptions()) -> SolidSolution:
    """minimize_solid plus the bulk modulus, as one record."""
    sol = minimize_solid(pot, units, opts)
    return replace(sol, bulk=bulk_modulus(sol, pot, units))


def minimum_certificate(sol: SolidSolution, pot: TwoYukawaParams,
                        units: UnitSystem) -> bool:
    """True iff +-1% moves in lam* and d* never lower the energy."""
    u_of = _objective(pot, units)
    u0 = u_of(sol.lambda_star, sol.d_star)
    for flam, fd in ((1.01, 1.0), (0.99, 1.0), (1.0, 1.01), (1.0, 0.99)):
        if u_of(sol.lambda_star * flam, sol.d_star * fd) < u0:
            return False
    return True
