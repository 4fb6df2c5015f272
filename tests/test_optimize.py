"""Two-parameter minimization of the solid and the bulk modulus."""

import math

import numpy as np
import pytest

from varsolid import (ConvergenceError, OptimizeOptions, OrbitalParams,
                      TwoYukawaParams, UnitSystem, bulk_modulus,
                      enumerate_shells, minimize_solid, minimum_certificate,
                      solve_solid)
from varsolid.optimize import (FD_STEP_REL, NEWTON_MAX_STEPS, SEARCH_BOX, _RelaxedCurve,
                               _curvature_wrt_volume, _objective, relaxed_energy_curve,
                               unit_shells)
from test_contract import cases_test

#: a mass 12 orders of magnitude lighter than Krypton's: the kinetic term
#: wins, and no bound solid exists
LIGHT_UNITS = UnitSystem(sigma_m=3.6e-10, epsilon_K=170.0, mass_u=8.3798e-11)

#: the default-start optimum (lambda*, d*, U, B) in natural units
RECORDED_OPTIMUM = {"lambda_star": 91.195498437583, "d_star": 1.0977610864951037,
                    "u_min": -7.9819948057972585, "bulk": 67.357917087803}

SQ2 = math.sqrt(2.0)


def test_optimum_matches_reference_values(solid):
    assert solid.lambda_star == pytest.approx(91.33, rel=0.01)
    assert solid.d_star_angstrom == pytest.approx(3.953, rel=0.005)
    assert solid.u_min_cal_per_mole == pytest.approx(-2690.0, rel=0.01)


def test_default_solve_reproduces_recorded_optimum(solid):
    got = {"lambda_star": solid.lambda_star, "d_star": solid.d_star,
           "u_min": solid.u_min, "bulk": solid.bulk.value}
    for key, want in RECORDED_OPTIMUM.items():
        assert got[key] == pytest.approx(want, rel=1e-9), key


def test_default_solve_counts(solid):
    # the simplex's iterations and evaluations and the relaxed curve's
    # evaluations, 121 in all: a change in any of them moves the optimum's
    # rounding, and fails here before the stdout digest does
    got = (solid.iterations, solid.n_evaluations, solid.bulk.n_evaluations)
    assert got == (52, 102, 19), f"(iterations, evaluations, bulk evaluations) = {got}"


def test_one_pair_energy_call_per_energy_evaluation(potential, krypton_units,
                                                    monkeypatch):
    # a shell sum is one array call of the kernel, made through the
    # module-level binding in varsolid.energy
    from varsolid import energy, optimize
    counts = {"pair": 0, "energy": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(energy, "pair_energy", counted("pair", energy.pair_energy))
    monkeypatch.setattr(optimize, "energy_per_particle",
                        counted("energy", optimize.energy_per_particle))
    sol = minimize_solid(potential, krypton_units, OptimizeOptions())
    assert counts["energy"] == sol.n_evaluations > 0
    assert counts["pair"] == counts["energy"]


def test_solve_enumerates_shells_at_most_once(potential, krypton_units,
                                              monkeypatch):
    # the unit shells are read-only, so one enumeration serves the
    # minimization, the bulk modulus and every later solve
    from varsolid import optimize
    calls = []

    def counted(*args):
        calls.append(args)
        return enumerate_shells(*args)

    monkeypatch.setattr(optimize, "enumerate_shells", counted)
    optimize.unit_shells.cache_clear()
    solve_solid(potential, krypton_units, OptimizeOptions())
    assert len(calls) == 1
    solve_solid(potential, krypton_units, OptimizeOptions(lambda_init=80.0))
    assert len(calls) == 1


def test_solution_invariants(solid):
    assert solid.u_min < 0.0
    assert solid.lambda_star > 0.0
    assert solid.d_star > 0.5
    assert solid.iterations > 0
    assert solid.n_evaluations >= solid.iterations
    assert solid.final_simplex_size < 1e-6


def test_local_minimum_certificate(solid, potential, krypton_units):
    assert minimum_certificate(solid, potential, krypton_units)


def test_minimizer_is_deterministic(potential, krypton_units):
    a = minimize_solid(potential, krypton_units, OptimizeOptions())
    b = minimize_solid(potential, krypton_units, OptimizeOptions())
    assert a.lambda_star == b.lambda_star
    assert a.d_star == b.d_star
    assert a.u_min == b.u_min


def test_bulk_modulus_matches_reference(solid, krypton_units):
    assert solid.bulk is not None
    assert solid.bulk.value_kbar == pytest.approx(33.4, rel=0.05)
    assert solid.bulk.richardson_rel_diff < 0.01
    assert not solid.bulk.reduced_confidence
    assert solid.bulk.value > 0.0
    assert solid.bulk.value_kbar == pytest.approx(
        krypton_units.pressure_to_kbar(solid.bulk.value), rel=1e-14)


def _frozen_curve(solid, potential, krypton_units):
    """u(d) at fixed lam = lam*, the curve the relaxed one must lie under."""
    u_of = _objective(potential, krypton_units)
    return lambda d: u_of(solid.lambda_star, d)


def test_bulk_modulus_quadratic_injection(solid):
    # u(v) = (v - v0)^2 gives B = v d2u/dv2 = 2 v0 at the stationary volume,
    # through the stencil and step that bulk_modulus reports
    v0 = solid.d_star**3 / SQ2

    def u_of_d(d):
        return (d**3 / SQ2 - v0) ** 2

    b = v0 * _curvature_wrt_volume(u_of_d, solid.d_star, FD_STEP_REL / 2.0)
    assert b == pytest.approx(2.0 * v0, rel=1e-6)


def test_frozen_curvature_exceeds_relaxed(solid, potential, krypton_units):
    # relaxing lambda along the compression curve can only flatten it
    v0 = solid.d_star**3 / SQ2
    frozen = v0 * _curvature_wrt_volume(
        _frozen_curve(solid, potential, krypton_units), solid.d_star,
        FD_STEP_REL / 2.0)
    relaxed = bulk_modulus(solid, potential, krypton_units)
    assert relaxed.value == solid.bulk.value
    assert frozen >= relaxed.value > 0.0


def test_energy_curves_agree_at_the_optimum(solid, potential, krypton_units):
    u_rel = relaxed_energy_curve(solid, potential, krypton_units)
    u_frz = _frozen_curve(solid, potential, krypton_units)
    assert u_rel(solid.d_star) == pytest.approx(solid.u_min, abs=1e-9)
    assert u_frz(solid.d_star) == pytest.approx(solid.u_min, abs=1e-11)
    # slightly off the optimum, the relaxed curve lies at or below the frozen
    d = solid.d_star * 1.02
    assert u_rel(d) <= u_frz(d) + 1e-12


def test_iteration_cap_raises_with_best_point(potential, krypton_units,
                                             monkeypatch):
    from varsolid import optimize
    monkeypatch.setattr(optimize, "MAX_ITER", 3)
    with pytest.raises(ConvergenceError) as info:
        minimize_solid(potential, krypton_units, OptimizeOptions())
    assert info.value.best_u is not None
    assert info.value.best_lambda is not None


def test_unbound_problem_raises(potential):
    # a mass 12 orders of magnitude lighter makes the kinetic term dominate:
    # no bound solid exists and the minimizer must say so, not return junk
    with pytest.raises(ConvergenceError):
        minimize_solid(potential, LIGHT_UNITS, OptimizeOptions())


def test_perturbed_start_reaches_same_optimum(potential, krypton_units, solid):
    opts = OptimizeOptions(lambda_init=70.0, d_init=1.3)
    sol = minimize_solid(potential, krypton_units, opts)
    assert sol.lambda_star == pytest.approx(solid.lambda_star, rel=1e-4)
    assert sol.d_star == pytest.approx(solid.d_star, rel=1e-5)


def test_objective_perturbation_from_quoted_point(potential, krypton_units,
                                                  solid):
    # energy at (lam*, d* +- 1%) strictly above the minimum
    from varsolid import LatticeKind, energy_per_particle, enumerate_shells

    def u(lam, d):
        shells = enumerate_shells(LatticeKind.FCC, d, 12.0 * d)
        return energy_per_particle(OrbitalParams(lam), potential, shells,
                                   krypton_units).total

    u0 = u(solid.lambda_star, solid.d_star)
    assert u(solid.lambda_star, solid.d_star * 1.01) > u0
    assert u(solid.lambda_star, solid.d_star * 0.99) > u0


test_optimize_options_reject_bad_values = cases_test(
    "test_optimize_options_reject_bad_values")


@pytest.mark.parametrize("field", ["param_tol", "energy_tol", "fd_step_rel",
                                   "relaxed_bulk", "max_iter",
                                   "shell_cutoff_factor"])
def test_optimize_options_have_no_tolerance_switches(field):
    # the tolerances, the iteration cap, the stencil step and the shell
    # cutoff are constants, and the bulk modulus always runs the relaxed curve
    with pytest.raises(TypeError):
        OptimizeOptions(**{field: 1.0})


def test_minimum_on_the_search_box_edge_raises(krypton_units):
    # with b = 1e300 the simplex walks lam to the 1e6 wall and stops there
    # as if converged; that is not a minimum
    with pytest.raises(ConvergenceError, match="edge of the search box") as info:
        minimize_solid(TwoYukawaParams(b=1e300), krypton_units)
    assert info.value.best_lambda == pytest.approx(SEARCH_BOX["lambda"][1],
                                                   rel=1e-4)


def _scan_ln_lambda(potential, units, d, lo, hi, num):
    """(ln lam, u) on an even grid of ln lam at spacing d."""
    u_of = _objective(potential, units)
    ts = np.linspace(lo, hi, num)
    return ts, np.array([u_of(math.exp(t), d) for t in ts.tolist()])


def test_relaxed_curve_finds_the_minimum_beyond_the_old_bracket(solid, potential,
                                                                krypton_units):
    # at d = 1.3 the relaxed lam lies ~0.87 below ln lam*; a bounded search
    # over ln lam* +- 0.7 returned its edge, -4.86680, as if converged
    t_star = math.log(solid.lambda_star)
    ts, us = _scan_ln_lambda(potential, krypton_units, 1.3, t_star - 3.0, t_star + 1.0, 801)
    i = int(np.argmin(us))
    assert 0 < i < len(ts) - 1
    u = relaxed_energy_curve(solid, potential, krypton_units)(1.3)
    assert u <= us[i]
    # the grid step is 0.005 in ln lam, so the scan misses the minimum by
    # at most u_tt (0.0025)^2 / 2 with u_tt ~ 2
    assert u >= us[i] - 1e-5
    assert u == pytest.approx(-4.87733, abs=1e-5)
    edge = _objective(potential, krypton_units)(
        math.exp(t_star - 0.7), 1.3)
    assert u < edge - 0.01


def test_spacing_without_an_interior_minimum_raises(solid, potential):
    # with LIGHT_UNITS the energy at d = 1.1 falls all the way to the
    # lower lam wall, so no relaxed energy exists there
    lo, hi = (math.log(x) for x in SEARCH_BOX["lambda"])
    ts, us = _scan_ln_lambda(potential, LIGHT_UNITS, 1.1, lo + 1e-6, hi - 1e-6, 401)
    assert int(np.argmin(us)) == 0
    curve = relaxed_energy_curve(solid, potential, LIGHT_UNITS)
    with pytest.raises(ConvergenceError, match="d=1.1") as info:
        curve(1.1)
    assert info.value.best_d == 1.1
    assert info.value.u_t is not None and info.value.u_t > 0.0
    assert SEARCH_BOX["lambda"][0] < info.value.best_lambda < solid.lambda_star
    assert curve.n_evaluations <= 30


#: ln lam where the scripted Newton runs below start
T0 = math.log(10.0)


@pytest.mark.parametrize("script, trials, message, best_t, u_t", [
    # a non-finite first row: no point is accepted, so the error carries the
    # lam tried and no slope
    ([(math.nan, 0.0, 0.0)], [0.0],
     "non-finite energy or derivative at lam=10", 0.0, None),
    # a non-finite row after an accepted point
    ([(0.0, -1.0, 1.0), (math.nan, 0.0, 0.0)], [0.0, 0.5],
     "non-finite energy or derivative at lam=16.4872; last accepted lam=10 with u_t=-1",
     0.0, -1.0),
    # the capped Newton step +0.5 raises u and |u_t|, so the step is halved
    # from the accepted point; the next point has no descent step
    ([(0.0, -1.0, 1.0), (1.0, -2.0, 1.0), (-1.0, 0.0, -1.0)], [0.0, 0.5, 0.25],
     "no descent step exists (u_t = 0, u_tt = -1); last accepted lam=12.8403 with u_t=0",
     0.25, 0.0),
    # not convex (u_tt < 0): a step of NEWTON_MAX_STEP against the slope
    ([(0.0, 1.0, -1.0), (-1.0, 0.0, -1.0)], [0.0, -0.5],
     "no descent step exists (u_t = 0, u_tt = -1); last accepted lam=6.06531 with u_t=0",
     -0.5, 0.0),
    # steps of 1e-6, each lowering u, until the evaluation budget is spent
    ([(-k, -1.0, 1e6) for k in range(NEWTON_MAX_STEPS)],
     [k * 1e-6 for k in range(NEWTON_MAX_STEPS)],
     f"no convergence in {NEWTON_MAX_STEPS} energy evaluations; "
     "last accepted lam=10.0003 with u_t=-1", (NEWTON_MAX_STEPS - 1) * 1e-6, -1.0),
], ids=["non-finite-first", "non-finite", "backtrack", "not-convex", "step-budget"])
def test_relaxed_curve_exits(script, trials, message, best_t, u_t):
    # script[k] is the k-th evaluation's (u, u_t, u_tt), in t = ln lam
    tried = []

    def rows(lam, d):
        u, slope, curvature = script[len(tried)]
        tried.append(math.log(lam) - T0)
        return u, slope / lam, (curvature - slope) / (lam * lam)

    curve = _RelaxedCurve(rows, 1.0, 10.0)
    with pytest.raises(ConvergenceError) as info:
        curve(1.0)
    assert str(info.value) == f"lam re-optimization failed at d=1: {message}"
    assert tried == pytest.approx(trials, abs=1e-12)
    assert curve.n_evaluations == len(script)
    assert info.value.best_d == 1.0
    assert info.value.best_lambda == pytest.approx(10.0 * math.exp(best_t), rel=1e-12)
    assert info.value.u_t == (None if u_t is None else pytest.approx(u_t, abs=1e-12))


def test_relaxed_curve_is_memoized_and_counts_evaluations(solid, potential,
                                                         krypton_units):
    curve = relaxed_energy_curve(solid, potential, krypton_units)
    assert curve.n_evaluations == 0
    u = curve(solid.d_star * 1.01)
    n = curve.n_evaluations
    assert 1 <= n <= 6
    assert curve(solid.d_star * 1.01) == u
    assert curve.n_evaluations == n
    with pytest.raises(ValueError, match="d must lie"):
        curve(SEARCH_BOX["d"][1])


def test_bulk_evaluation_count_is_the_energy_calls_it_made(solid, potential,
                                                          krypton_units,
                                                          monkeypatch):
    from varsolid import optimize
    calls = []
    energy_per_particle = optimize.energy_per_particle

    def counted(*args, **kwargs):
        calls.append(kwargs.get("order"))
        return energy_per_particle(*args, **kwargs)

    monkeypatch.setattr(optimize, "energy_per_particle", counted)
    bulk = bulk_modulus(solid, potential, krypton_units)
    # 7 distinct stencil spacings, a few Newton steps each
    assert bulk.n_evaluations == len(calls) <= 24
    assert set(calls) == {2}
    assert bulk.value == solid.bulk.value
    assert solid.bulk.n_evaluations == bulk.n_evaluations
