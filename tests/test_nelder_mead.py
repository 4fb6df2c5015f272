"""The in-house simplex against scipy's Nelder-Mead, bit for bit.

optimize._nelder_mead must retrace scipy.optimize.minimize(method=
"Nelder-Mead") with the same options: the same best point and value, the
same iteration and evaluation counts, the same final simplex and the same
exit.  scipy is imported here only, as the reference.
"""

import math
import random

import numpy as np
import pytest

from varsolid import TwoYukawaParams, UnitSystem
from varsolid.optimize import (ENERGY_TOL, MAX_ITER, PARAM_TOL, _nelder_mead,
                               _objective, _unit_shells)

#: as in test_optimize: no bound solid exists at this mass
LIGHT_UNITS = UnitSystem(sigma_m=3.6e-10, epsilon_K=170.0, mass_u=8.3798e-11)

DEFAULT_START = (math.log(50.0), 1.1)

#: scipy's OptimizeResult.status -> the cap that stopped _nelder_mead
CAPS = {0: None, 1: "maxfev", 2: "maxiter"}


def _bits(values):
    return [float(v).hex() for v in values]


def _both(fun, x0, xatol=PARAM_TOL, fatol=ENERGY_TOL, maxiter=MAX_ITER,
          maxfev=None):
    """(_nelder_mead result, scipy result) from the same start and options."""
    from scipy.optimize import minimize
    maxfev = 4 * maxiter if maxfev is None else maxfev
    got = _nelder_mead(fun, x0, xatol, fatol, maxiter, maxfev)
    # scipy's termination test subtracts inf from inf when two vertices
    # are +inf, which numpy reports
    with np.errstate(invalid="ignore"):
        ref = minimize(fun, x0=list(x0), method="Nelder-Mead",
                       options={"xatol": xatol, "fatol": fatol,
                                "maxiter": maxiter, "maxfev": maxfev})
    return got, ref


def _assert_same(got, ref):
    assert _bits(got.x) == _bits(ref.x)
    assert float(got.fun).hex() == float(ref.fun).hex()
    assert (got.nit, got.nfev) == (ref.nit, ref.nfev)
    vertices, values = ref.final_simplex
    assert [_bits(v) for v in got.vertices] == [_bits(v) for v in vertices]
    assert _bits(got.values) == _bits(values)
    assert got.cap == CAPS[ref.status]


def _solid_objective(pot, units):
    """The function minimize_solid hands the simplex: u over (ln lam, d)."""
    u_of = _objective(pot, units, _unit_shells(12.0))
    return lambda x: u_of(math.exp(x[0]), x[1])


def test_default_start_matches_scipy(potential, krypton_units):
    got, ref = _both(_solid_objective(potential, krypton_units), DEFAULT_START)
    _assert_same(got, ref)
    assert (got.nit, got.nfev, got.cap) == (52, 102, None)


def _seeded_starts(count, seed=1):
    """Starts drawn as the perfbench solve workload draws them."""
    starts = []
    for k in range(1, count + 1):
        r = random.Random(seed * 1_000_003 + k)
        lam = math.exp(r.uniform(math.log(30.0), math.log(200.0)))
        starts.append((math.log(lam), r.uniform(1.0, 1.25)))
    return starts


@pytest.mark.parametrize("x0", _seeded_starts(20))
def test_seeded_starts_match_scipy(x0, potential, krypton_units):
    _assert_same(*_both(_solid_objective(potential, krypton_units), x0))


def test_unbound_system_matches_scipy(potential):
    # the simplex runs into the lower lam wall, where the objective is +inf,
    # and stops at the iteration cap
    got, ref = _both(_solid_objective(potential, LIGHT_UNITS), DEFAULT_START)
    _assert_same(got, ref)
    assert got.cap == "maxiter"


def test_lambda_wall_matches_scipy(krypton_units):
    # with b = 1e300 the simplex walks lam to the 1e6 wall and converges there
    got, ref = _both(_solid_objective(TwoYukawaParams(b=1e300), krypton_units),
                     DEFAULT_START)
    _assert_same(got, ref)
    assert got.cap is None


def test_iteration_cap_matches_scipy(potential, krypton_units):
    got, ref = _both(_solid_objective(potential, krypton_units), DEFAULT_START,
                     maxiter=3)
    _assert_same(got, ref)
    assert (got.nit, got.cap) == (3, "maxiter")


def _walled_rosenbrock(x):
    """Rosenbrock's valley, NaN beyond a = 1.5 and +inf below b = -1."""
    a, b = x
    if a > 1.5:
        return math.nan
    if b < -1.0:
        return math.inf
    return (1.0 - a) ** 2 + 100.0 * (b - a * a) ** 2


@pytest.mark.parametrize("x0", [(0.0, 0.0), (1.45, 2.1), (2.0, 0.0), (0.0, -2.0)])
@pytest.mark.parametrize("maxiter, maxfev", [(400, 2), (400, 5), (400, 6),
                                             (2, 1000), (400, 1000)])
def test_nan_inf_zero_start_and_budget_match_scipy(x0, maxiter, maxfev):
    # a zero coordinate takes the 0.00025 step; from (1.45, 2.1) one start
    # vertex is NaN and sorts last, and a budget of 5 or 6 runs out inside
    # a shrink; from (2, 0) every vertex is NaN, from (0, -2) every one +inf
    _assert_same(*_both(_walled_rosenbrock, x0, 1e-8, 1e-8, maxiter, maxfev))
