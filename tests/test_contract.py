"""One fail-closed contract over every public callable.

ROWS holds a row per callable and numeric argument: a call with a probe at
the argument and valid base values elsewhere, and the probes valid there.
The argument may be a field of a record the callable takes (lam of
OrbitalParams, b and m of TwoYukawaParams, the scales of UnitSystem).
test_contract tries every row at PROBES, and at ARRAY where the argument
takes arrays.  A valid probe returns only finite values, or raises the
row's documented error (ConvergenceError of the solver, QuadratureError of a
quadrature oracle); any other probe raises ValueError naming the argument.
A warning that escapes a probe fails the row.  Each public callable has
rows, or a reason in NOT_PROBED.  The lattice builders' size ceilings are
probed in a child process capped at 1 GB of address space.

CASES holds the checks that are not such a probe (sample counts such as 999
and True, array shapes, unnormalized weights, values by the edge of the
doubles), keyed by the test id each runs as, in the module of its callable
(`cases_test`).
"""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import varsolid
from varsolid import (ConvergenceError, LatticeKind, LatticeShells, OptimizeOptions,
                      OrbitalParams, QuadratureError, SuperpositionSpec, TwoYukawaParams,
                      UnitSystem, boson_energy, boson_solve, build_cluster, bulk_modulus,
                      com_statistics, density_fourier, energy_per_particle, enumerate_shells,
                      fermion_solve, fermion_tf_energy, free_spread, galilean_boost,
                      kinetic_per_particle, make_krypton_units, mc_com_variance,
                      mc_momentum_axis_variance, mc_pair_energy, mc_pair_integral,
                      minimize_solid, minimum_certificate, pair_energy, pair_energy_quadrature,
                      pair_energy_realspace_reference, radial_transform_check, same_site_W,
                      sample_exponential_cloud, solve_solid, superposition_spread, two_yukawa,
                      two_yukawa_fourier)
from varsolid.oracle import (coulomb_self_energy_quadrature,
                             density_power_integral_quadrature, exp_density_sampler,
                             mc_pair_energies)
from test_golden import GOLDEN

PROBES = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1.0, "0": 0.0,
          "5e-324": 5e-324, "1e308": 1e308}
#: the probe of an argument that takes arrays: 10^4 values across the doubles
ARRAY = np.geomspace(1e-300, 1e300, 10_000)

POT, UNITS = TwoYukawaParams(), make_krypton_units()
SHELLS = enumerate_shells(LatticeKind.FCC, 1.0, 2.0)
STATS = com_statistics(50.0, 100.0)
SOL = minimize_solid(POT, UNITS)
SITES = build_cluster(1.0, 13)
SQRT_HALF = math.sqrt(0.5)
TWO = [[0.0, 0.0, 0.0], [9.0, 0.0, 0.0]]  # two branch displacements 9 apart
C, Q = (ConvergenceError,), (QuadratureError,)


p, v = OrbitalParams, TwoYukawaParams  # short names for the calls below


def u(sigma_m=3.6e-10, epsilon_K=170.0, mass_u=83.798):
    return UnitSystem(sigma_m, epsilon_K, mass_u)


#: the valid probes of the scales of a UnitSystem a callable takes
SCALES = {"sigma_m": "", "epsilon_K": "1e308", "mass_u": "1e308"}


class Row(NamedTuple):
    name: str  # the public name
    arg: str
    call: Callable  # call(x) puts x at arg
    valid: frozenset  # PROBES keys, and "array"
    match: str  # what the ValueError's message must match
    raises: tuple  # the documented error a valid probe may raise


def rows(name, call, raises=(), **valid):
    """A row per keyword argument of call, whose defaults are the base
    values; each valid spec is the valid probes or (those, match)."""
    specs = {arg: spec if isinstance(spec, tuple) else (spec, rf"\b{arg}\b")
             for arg, spec in valid.items()}
    return [Row(name, arg, lambda x, arg=arg: call(**{arg: x}), frozenset(ok.split()),
                match, raises) for arg, (ok, match) in specs.items()]


ROWS = [
    # records
    *rows("OrbitalParams", OrbitalParams, lam="5e-324 1e308"),
    *rows("TwoYukawaParams", TwoYukawaParams, b="5e-324 1e308", m="5e-324", n=""),
    *rows("UnitSystem", u, **SCALES),
    *rows("OptimizeOptions", OptimizeOptions, lambda_init="", d_init=""),
    # model
    *rows("density_fourier", lambda k=1.0, lam=91.2: density_fourier(p(lam), k),
          k=("0 5e-324 1e308 inf array", "wavenumber"), lam="5e-324 1e308"),
    *rows("two_yukawa", lambda r=1.1, b=2.026, m=2.69: two_yukawa(r, v(b, m)),
          r="1e308 inf array", b="5e-324 1e308", m="5e-324"),
    *rows("two_yukawa_fourier", lambda k=1.0, b=2.026, m=2.69: two_yukawa_fourier(k, v(b, m)),
          k=("0 5e-324 1e308 inf array", "wavenumber"), b="5e-324", m="5e-324"),
    *rows("pair_energy", lambda s=1.1, order=0, lam=91.2, b=2.026, m=2.69:
          pair_energy(p(lam), v(b, m), s, order),
          s=("0 5e-324 1e308 array", "separation"), order="0", lam="", b="5e-324", m="5e-324"),
    # energy
    *rows("kinetic_per_particle", lambda lam=91.2, **s: kinetic_per_particle(p(lam), u(**s)),
          lam="5e-324", **SCALES),
    *rows("energy_per_particle", lambda lam=91.2, b=2.026, m=2.69, order=0, **s:
          energy_per_particle(p(lam), v(b, m), SHELLS, u(**s), order),
          lam="", b="5e-324", m="5e-324", order="0", **SCALES),
    *rows("same_site_W", lambda lam=91.2, b=2.026, m=2.69:
          same_site_W(p(lam), v(b, m), SHELLS, UNITS), lam="", b="", m="5e-324"),
    # lattice
    *rows("LatticeShells", lambda spacing=1.0: SHELLS.scaled(spacing), spacing="5e-324"),
    *rows("LatticeShells", lambda spacing_d=1.0, distances_r=1.0:
          LatticeShells(spacing_d, [distances_r], [12]),
          spacing_d=("5e-324 1e308", "spacing"), distances_r=("0 5e-324 1e308", "distances")),
    *rows("enumerate_shells", lambda spacing=1.0, max_distance=2.0:
          enumerate_shells(LatticeKind.FCC, spacing, max_distance), spacing="", max_distance=""),
    *rows("build_cluster", lambda spacing=1.0, N=5: build_cluster(spacing, N),
          spacing="5e-324", N=("", "cluster size")),
    # observables
    *rows("com_statistics", lambda lam=1.0, N=100.0: com_statistics(lam, N), lam="", N="1e308"),
    *rows("galilean_boost", lambda velocity=1.0, **s:
          galilean_boost(STATS, [velocity, 0.0, 0.0], u(**s)), velocity="-1 0 5e-324", **SCALES),
    *rows("free_spread", lambda time=1.0, **s: free_spread(STATS, time, u(**s)),
          time="0 5e-324", **SCALES),
    *rows("SuperpositionSpec", lambda displacements=0.0, cutoff_a=1.0:
          SuperpositionSpec([[0.0, 0.0, 0.0], [9.0, displacements, 0.0]],
                            [SQRT_HALF, SQRT_HALF], cutoff_a),
          displacements=("-1 0 5e-324", "displacement"), cutoff_a="5e-324"),
    *rows("SuperpositionSpec", lambda weights: SuperpositionSpec([[0.0] * 3], [weights], 1.0),
          weights=("-1", "weight")),
    *rows("superposition_spread", lambda lam=1.0, N=100.0:
          superposition_spread(SuperpositionSpec([[0.0] * 3], [1.0], 1.0), lam, N),
          lam="", N="1e308"),
    # optimize
    *rows("minimize_solid", lambda b=2.026, m=2.69, **s: minimize_solid(v(b, m), u(**s)),
          C, b="5e-324", m="5e-324", **SCALES),
    *rows("minimize_solid", lambda lambda_init: minimize_solid(
        POT, UNITS, OptimizeOptions(lambda_init=lambda_init)), lambda_init=""),
    *rows("solve_solid", lambda b=2.026, d_init=1.1:
          solve_solid(v(b), UNITS, OptimizeOptions(d_init=d_init)), C, b="5e-324", d_init=""),
    *rows("bulk_modulus", lambda b=2.026, m=2.69: bulk_modulus(SOL, v(b, m), UNITS),
          C, b="5e-324", m="5e-324"),
    *(row for f in (bulk_modulus, minimum_certificate)
      for row in rows(f.__name__, lambda lam=SOL.lambda_star, d=SOL.d_star, f=f: f(
          dataclasses.replace(SOL, lambda_star=lam, d_star=d), POT, UNITS),
          lam=("", "lambda"), d="")),
    # oracle: Monte Carlo
    *rows("sample_exponential_cloud", lambda rate: sample_exponential_cloud(
        rate, 100, np.random.default_rng(0)), rate="1e308"),
    *rows("mc_momentum_axis_variance", lambda beta: mc_momentum_axis_variance(beta, 1000),
          beta="5e-324"),
    *rows("mc_com_variance", lambda lam=7.0, sites=0.0:
          mc_com_variance(lam, [[sites, 0.0, 0.0], [9.0, 0.0, 0.0]], 1000),
          lam=("1e308", r"\b(lam|rate)\b"), sites="-1 0 5e-324 1e308"),
    *rows("mc_pair_integral", lambda separation: mc_pair_integral(
        exp_density_sampler(1.0), lambda r: r, separation, 1000, 0), separation="-1 0 5e-324"),
    *rows("mc_pair_energy", lambda separation=1.1, lam=91.2, b=2.026, m=2.69:
          mc_pair_energy(p(lam), v(b, m), separation, samples=1000),
          separation="-1 0 5e-324", lam="1e308", b="5e-324", m="5e-324"),
    # the second of two points
    *rows("mc_pair_energies", lambda separation=1.1, lam=91.2: mc_pair_energies(
        [(p(60.0), 0.0), (p(lam), separation)], POT, samples=1000),
          separation="-1 0 5e-324", lam="1e308"),
    # oracle: quadrature
    *rows("radial_transform_check", lambda k: radial_transform_check(lambda r: np.exp(-r), k),
          Q, k=("0 5e-324 1e308", "wavenumber")),
    # an entry of an array of wavenumbers: each must be > 0
    *rows("radial_transform_check", lambda ks: radial_transform_check(
        lambda r: np.exp(-r), np.array([0.5, ks, 2.0])), Q, ks=("5e-324 1e308", "wavenumber")),
    *rows("pair_energy_quadrature", lambda s=0.0, lam=91.2, b=2.026, m=2.69:
          pair_energy_quadrature(p(lam), v(b, m), s),
          Q, s=("0 5e-324", r"separation must|s makes k\*s leave the doubles"), lam="5e-324",
          b="5e-324", m="5e-324"),
    *rows("pair_energy_realspace_reference", lambda s=1.1, lam=91.2, b=2.026, m=2.69:
          pair_energy_realspace_reference(p(lam), v(b, m), s),
          Q, s=("0 1e308", r"separation|\bs="), b="5e-324", m="5e-324",
          lam=("", r"lam must|lam makes the integration range 760/lam leave|lam\^3 leave")),
    *rows("coulomb_self_energy_quadrature", coulomb_self_energy_quadrature, Q, rate="5e-324 1e308"),
    *rows("density_power_integral_quadrature", lambda rate=1.0, mass=1.0, power=1.0:
          density_power_integral_quadrature(rate, mass, power),
          Q, rate="5e-324 1e308", mass="5e-324 1e308", power="5e-324 1e308"),
    # selfgrav
    *rows("boson_energy", lambda beta=1.0, N=10, **kw: boson_energy(beta, N, **kw),
          beta="0 5e-324", N="", kappa="-1 0 5e-324", mu="1e308"),
    *rows("boson_solve", lambda N=10, **kw: boson_solve(N, **kw), N="", kappa="", mu=""),
    *rows("fermion_tf_energy", lambda gamma=1.0, N=10, **kw: fermion_tf_energy(gamma, N, **kw),
          gamma="5e-324", N="", q="1e308", kappa="-1 0 5e-324", mu="1e308",
          e_coeff="5e-324 1e308"),
    *rows("fermion_solve", lambda N=10, **kw: fermion_solve(N, **kw),
          N="", q="", kappa="", mu="", e_coeff=""),
]

NOT_PROBED = {
    "ConvergenceError": "an exception: takes a message",
    "QuadratureError": "an exception: takes a message",
    "LatticeKind": "an enum: takes a lattice name",
    "make_krypton_units": "takes no argument",
    **dict.fromkeys(("BosonSolution", "BulkModulusResult", "ComStatistics", "EnergyBreakdown",
                     "FermionSolution", "McEstimate", "SameSiteW", "SolidSolution"),
                    "a result record: probed through the callable that returns it"),
}


def finite(out) -> bool:
    """Every number in out (a number, array, sequence or dataclass) is finite."""
    if dataclasses.is_dataclass(out):
        return all(finite(getattr(out, f.name)) for f in dataclasses.fields(out))
    if isinstance(out, (tuple, list)):
        return all(map(finite, out))
    return out is None or bool(np.isfinite(out).all())


def outcome(row: Row, probe: str) -> str | None:
    """What is wrong with row's call at probe, or None."""
    valid = probe in row.valid
    try:
        out = row.call(ARRAY if probe == "array" else PROBES[probe])
    except ValueError as exc:
        if valid or not re.search(row.match, str(exc)):
            return f"ValueError: {exc}"
        return None
    except row.raises as exc:
        return None if valid else f"{exc!r}, not ValueError"
    return None if valid and finite(out) else f"returned {out!r}"


@pytest.mark.filterwarnings("error")  # a warning that escapes a probe fails its row
@pytest.mark.parametrize("row", ROWS, ids=[f"{row.name}-{row.arg}" for row in ROWS])
def test_contract(row):
    probes = [*PROBES, *(["array"] if "array" in row.valid else [])]
    assert {probe: why for probe in probes if (why := outcome(row, probe))} == {}


def test_every_public_callable_has_a_row():
    public = {name for name in varsolid.__all__ if callable(getattr(varsolid, name))}
    probed = {row.name for row in ROWS}
    assert public - probed == NOT_PROBED.keys()
    assert probed - public == {"coulomb_self_energy_quadrature",
                               "density_power_integral_quadrature", "mc_pair_energies"}


def test_lattice_builders_fail_closed_on_size():
    # each call once built its integer box first (~0.5 TB at a ratio of 1e3);
    # in a child capped at 1 GB of address space, one that does again fails
    # in seconds.  One BLAS thread keeps numpy's own reservation small
    code = """import resource
resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
from varsolid import LatticeKind, build_cluster, enumerate_shells
for call in (lambda: enumerate_shells(LatticeKind.FCC, 1.0, 1e3),
             lambda: enumerate_shells(LatticeKind.FCC, 1e-6, 1.0),
             lambda: build_cluster(1.0, 10**7), lambda: build_cluster(1.0, 10**9)):
    try:
        print("returned", call())
    except ValueError as exc:
        print(exc)"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=60, env={**os.environ, "OPENBLAS_NUM_THREADS": "1",
                                          "PYTHONPATH": str(Path(varsolid.__file__).parents[1])})
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [
        "max_distance 1000.0 is more than 50 spacings 1.0",
        "max_distance 1.0 is more than 50 spacings 1e-06",
        "cluster size N=10000000 is above 1000000", "cluster size N=1000000000 is above 1000000"]


def _raises(call, match=""):
    return call, match


def _rng():
    return np.random.default_rng(0)


#: test id -> [(call, expect)]: a str expect is what the ValueError's message
#: matches ("" for any message), any other the value call returns
CASES = {
    # test_model.py
    "test_orbital_params_validation": [_raises(lambda: OrbitalParams(0.0), "lam")],
    "test_two_yukawa_rejects_nonpositive_r": [
        *(_raises(lambda r=r: two_yukawa(r, POT)) for r in (0.0, -1.0, math.nan,
                                                             np.array([1.1, math.nan]))),
        # b (e^n - e^m)/r overflowed the divide, with a warning, and gave inf
        *(_raises(lambda r=r: two_yukawa(r, POT), "two_yukawa at r=5e-324 leaves the doubles")
          for r in (5e-324, np.array([1.1, 5e-324]))),
        (lambda: two_yukawa(math.inf, POT), 0.0),
        (lambda: math.isfinite(two_yukawa(1e-300, POT)), True)],
    **{f"test_fourier_transforms_reject_negative_or_nan_k[{id}]": [
        _raises(lambda bad=bad: density_fourier(OrbitalParams(7.3), bad), "wavenumber"),
        _raises(lambda bad=bad: two_yukawa_fourier(bad, POT), "wavenumber")]
       for id, bad in (("-1.0", -1.0), ("nan", math.nan), ("bad2", [0.5, math.nan]),
                       ("bad3", [0.5, -0.1]))},
    "test_two_yukawa_params_validation": [
        _raises(lambda: TwoYukawaParams(m=5.0, n=2.0)), _raises(lambda: TwoYukawaParams(b=-1.0)),
        *(_raises(lambda m=m, n=n: TwoYukawaParams(m=m, n=n), r"e\^n")  # e^n overflows
          for m, n in ((800.0, 900.0), (2.69, 710.0))),
        (lambda: TwoYukawaParams(m=700.0, n=709.0).n, 709.0),
        *(_raises(lambda f=f, x=x: TwoYukawaParams(**{f: x}), "finite")
          for f in ("b", "m", "n") for x in (math.nan, math.inf))],
    "test_pair_energy_rejects_negative_s": [_raises(lambda: pair_energy(p(5.0), POT, -0.1))],
    **{f"test_pair_energy_array_rejects_non_finite_or_negative[{lam}-{bad}]": [
        _raises(lambda lam=lam, bad=bad: pair_energy(p(lam), POT, np.array([1.0, bad, 2.0])))]
       for lam in (91.33, 2.69) for bad in (math.nan, math.inf, -math.inf, -0.1)},
    # a weight e^n ~ 1e304 times a steep orbital leaves the doubles: the float
    # branch warned of an overflow and returned inf, and the window inf silently
    **{f"test_pair_energy_fails_closed_past_the_doubles[{id}-{order}]": [_raises(
        lambda lam=lam, n=n, s=s, order=order: pair_energy(
            p(lam), TwoYukawaParams(n=n), s, order=order), rf"lam={lam!r} with n={n!r}")]
       for lam, n, s, id in ((1e3, 709.0, 0.0, "float-709"), (1e6, 700.0, 0.0, "float-700"),
                             (716.09, 709.0, [0.0, 0.01], "window-709"))
       for order in (0, 1, 2)},
    # lam^5 underflows (192 pi lam^5 was 0.0, and 0/0 a NaN) or lam^8 overflows
    **{f"test_pair_energy_rejects_a_lam_beyond_the_doubles[{lam!r}]": [
        _raises(lambda lam=lam: pair_energy(p(lam), POT, np.array([1.0, 2.0])), "lam")]
       for lam in (5e-324, 1e-300, 1e308)},
    # test_oracle.py
    "test_sampler_rejects_bad_rate": [_raises(lambda: sample_exponential_cloud(0.0, 100, _rng()))],
    **{f"test_mc_boundaries_fail_closed[{id}]": [_raises(call, match)] for id, call, match in (
        ("cloud-rate-nan", lambda: sample_exponential_cloud(math.nan, 100, _rng()), "rate"),
        ("cloud-rate-inf", lambda: sample_exponential_cloud(math.inf, 100, _rng()), "rate"),
        ("beta-nan", lambda: mc_momentum_axis_variance(math.nan, samples=1000), "beta"),
        ("beta-inf", lambda: mc_momentum_axis_variance(math.inf, samples=1000), "beta"),
        *((f"momentum-samples-{id}", lambda n=n: mc_momentum_axis_variance(4.0, samples=n),
           "samples") for id, n in (("1", 1), ("0", 0), ("999", 999), ("float", 1000.5))),
        ("pair-samples-float", lambda: mc_pair_integral(
            exp_density_sampler(1.0), lambda r: r, 0.0, samples=2000.0, seed=0), "samples"),
        *((f"separation-{id}", lambda s=s: mc_pair_energy(p(50.0), POT, s, samples=1000),
           "separation") for id, s in (("nan", math.nan), ("inf", math.inf))),
        # verify_com_on_cluster, mc_com_variance's forerunner, warned and gave
        # a NaN error at 1 sample and raised TypeError at samples=True
        *((f"com-{arg}-{id}", lambda kw={arg: x}: mc_com_variance(
            **{"lam": 7.0, "sites": SITES, "samples": 1000, **kw}), arg)
          for arg, id, x in (
              ("samples", "1", 1), ("samples", "999", 999), ("samples", "true", True),
              ("samples", "float", 2000.0), ("lam", "nan", math.nan), ("lam", "inf", math.inf),
              ("lam", "0", 0.0), ("lam", "negative", -7.0), ("sites", "empty", np.zeros((0, 3))),
              ("sites", "1d", np.zeros(3)), ("sites", "2-columns", np.zeros((4, 2))),
              ("sites", "3d", np.zeros((2, 2, 3))), ("sites", "nan", [[0.0, 0.0, math.nan]]),
              ("sites", "inf", [[0.0, -math.inf, 0.0]]))),
        # the draws (inf positions), their squares or the distances (overflow
        # warnings) left the doubles
        ("cloud-rate-tiny", lambda: sample_exponential_cloud(5e-324, 3, _rng()), "rate=5e-324"),
        ("com-rate-tiny", lambda: mc_com_variance(5e-324, np.zeros((1, 3)), 1000),
         "rate=5e-324"),
        ("com-squares", lambda: mc_com_variance(1e-200, np.zeros((1, 3)), 1000), "lam=1e-200"),
        ("momentum-squares", lambda: mc_momentum_axis_variance(1e200, 1000), r"beta=1e\+200"),
        ("momentum-draws", lambda: mc_momentum_axis_variance(1e308, 1000), r"beta=1e\+308"),
        ("pair-separation-huge", lambda: mc_pair_energy(p(50.0), POT, 1e308, samples=1000),
         r"separation=1e\+308"),
        ("integral-separation-huge", lambda: mc_pair_integral(
            exp_density_sampler(1.0), lambda r: r, -1e308, samples=1000, seed=0),
         r"separation=-1e\+308"))},
    # the quadrature oracles reject what pair_energy rejects, by name and
    # value; at -1 the real-space reference once returned 2.82e12 and the
    # Fourier one the value at +1
    **{f"test_quadrature_boundaries_fail_closed[{name}-s-{id}]": [_raises(
        lambda f=f, s=s: f(p(50.0), POT, s), f"separation must be finite and >= 0, got {s}")]
       for name, f in (("realspace", pair_energy_realspace_reference),
                       ("fourier", pair_energy_quadrature))
       for id, s in (("negative", -1.0), ("nan", math.nan))},
    **{f"test_quadrature_boundaries_fail_closed[power-{arg}-{id}]": [_raises(
        lambda args=args: density_power_integral_quadrature(*args),
        f"{arg} must be positive and finite, got {args[index]}")]
       for arg, id, index, args in (
           ("rate", "nan", 0, (math.nan, 1.0, 1.0)), ("mass", "nan", 1, (1.0, math.nan, 1.0)),
           ("power", "nan", 2, (1.0, 1.0, math.nan)), ("rate", "negative", 0, (-1.0, 1.0, 1.0)),
           ("mass", "negative", 1, (1.0, -1.0, 5.0 / 3.0)))},
    "test_transform_rejects_negative_k": [
        _raises(lambda: radial_transform_check(lambda r: np.exp(-r), -1.0))],
    # a bad entry first or last in an array of wavenumbers, named with its
    # index; 0 is the scalar volume branch only
    **{f"test_transform_rejects_a_bad_entry[{id}-{at}]": [_raises(
        lambda ks=[bad, 1.0, 2.0][::1 if at == "first" else -1]: radial_transform_check(
            lambda r: np.exp(-r), np.array(ks)),
        rf"wavenumber must be finite and > 0 in an array, got {bad} at index "
        rf"{0 if at == 'first' else 2}")]
       for id, bad in (("nan", math.nan), ("inf", math.inf), ("-inf", -math.inf),
                       ("negative", -0.5), ("0", 0.0))
       for at in ("first", "last")},
    **{f"test_transform_rejects_a_bad_array[{id}]": [_raises(
        lambda ks=ks: radial_transform_check(lambda r: np.exp(-r), ks), "wavenumbers must be")]
       for id, ks in (("empty", np.zeros(0)), ("2d", np.ones((2, 2))))},
    "test_coulomb_quadrature_rejects_bad_rate": [
        _raises(lambda: coulomb_self_energy_quadrature(-1.0))],
    # test_observables.py
    "test_com_statistics_rejects_bad_input": [
        _raises(lambda: com_statistics(0.0, 10)), _raises(lambda: com_statistics(5.0, 0)),
        # (nan, 10) once returned NaNs, (5, inf) a NaN product
        *(_raises(lambda lam=lam, n=n: com_statistics(lam, n), "finite")
          for lam, n in ((math.nan, 10), (math.inf, 10), (5.0, math.inf), (5.0, math.nan))),
        # lam^2 N underflows to 0 (once a ZeroDivisionError) or overflows (once
        # an infinite omega and a NaN product)
        *(_raises(lambda lam=lam, n=n: com_statistics(lam, n), "lam=.*N=")
          for lam, n in ((1e-200, 3), (1e300, 3), (1e-160, 1.0))),
        # math.isfinite(10**400) raised a bare OverflowError
        _raises(lambda: com_statistics(91.0, 10**400), "N is an int beyond the doubles"),
        (lambda: com_statistics(91.0, 10**300).chi, 4.0 / (91.0 * 91.0 * 1e300))],
    "test_free_spread_rejects_negative_time": [
        _raises(lambda: free_spread(com_statistics(10.0, 10), -1.0, UNITS))],
    # each once returned inf or NaN, caught only by the CLI's JSON writer
    "test_boost_and_spread_reject_non_finite_results": [
        _raises(lambda: galilean_boost(com_statistics(1e6, 3), [math.nan, 1.0, 1.0], UNITS),
                "mean momentum"),
        _raises(lambda: galilean_boost(com_statistics(1.0, 1e300), [1e300, 0.0, 0.0], UNITS),
                "mean momentum"),
        *(_raises(lambda t=t: free_spread(com_statistics(1.0, 1e300), t, UNITS), "spread")
          for t in (1e300, math.inf, math.nan))],
    "test_unnormalized_weights_rejected": [
        _raises(lambda: SuperpositionSpec(TWO, [1.0, 1.0], 1.0))],
    # their squares once overflowed the mixture variance to infinity
    **{f"test_huge_or_non_finite_displacements_rejected[{far!r}]": [_raises(
        lambda far=far: SuperpositionSpec([[0.0] * 3, [far, 0.0, 0.0]], [SQRT_HALF] * 2, 1.0),
        "displacements must be finite")] for far in (1e300, -1e151, math.inf, math.nan)},
    "test_non_finite_weights_rejected": [
        _raises(lambda: SuperpositionSpec(TWO, [math.nan, SQRT_HALF], 1.0), "normalized")],
    # test_selfgrav.py
    "test_boson_energy_rejects_negative_or_nan_beta": [
        _raises(lambda: boson_energy(-1.0, 10), "beta"),
        _raises(lambda: boson_energy(math.nan, 10), "beta")],
    # an infinite rate once gave inf - inf = NaN, and 1e308 a bare
    # OverflowError from rate**2; 1e200 overflows it as well.  A finite
    # energy keeps its value
    **{f"test_energies_fail_closed_past_the_doubles[{rate!r}-{f.__name__}-{name}]": [
        _raises(lambda f=f, rate=rate: f(rate, 10), re.escape(f"{name}={rate!r}")),
        (lambda f=f: math.isfinite(f(1e100, 10)), True)]
       for rate in (math.inf, 1e308, 1e200)
       for f, name in ((boson_energy, "beta"), (fermion_tf_energy, "gamma"))},
    "test_boson_solve_rejects_small_n": [_raises(lambda: boson_solve(1))],
    "test_tf_energy_rejects_nonpositive_gamma": [
        _raises(lambda: fermion_tf_energy(0.0, 10)),
        _raises(lambda: fermion_tf_energy(math.nan, 10))],
    "test_fermion_solve_rejects_small_n": [_raises(lambda: fermion_solve(1))],
    # test_lattice.py
    "test_enumerate_shells_rejects_bad_arguments": [
        # an infinite cutoff once reached math.floor as an OverflowError
        *(_raises(lambda d=d, top=top: enumerate_shells(LatticeKind.FCC, d, top))
          for d, top in ((0.0, 1.0), (1.0, 0.5), (1.0, math.inf), (1.0, math.nan),
                         (math.inf, 2.0), (math.nan, 2.0))),
        # a ratio max_distance/d whose square leaves the doubles once escaped
        # as a bare OverflowError; these fail before any grid is built
        *(_raises(lambda d=d, top=top: enumerate_shells(LatticeKind.FCC, d, top),
                  f"spacing {d!r} is too small")
          for d, top in ((5e-324, 1.0), (1e-200, 1.0), (1.0, 1e300))),
        # a non-finite rescaling was once accepted and failed later in pair_energy
        *(_raises(lambda bad=bad: SHELLS.scaled(bad),
                  f"spacing must be positive and finite, got {bad}")
          for bad in (math.nan, math.inf, 0.0, -1.0))],
    "test_cluster_rejects_nonpositive_n": [
        # NaN and inf once grew the search radius until memory ran out, and 2.5
        # escaped as a TypeError from slicing
        *(_raises(lambda bad=bad: build_cluster(1.0, bad), "cluster size must be an integer >= 1")
          for bad in (0, -3, math.nan, math.inf, -math.inf, 2.5, 13.0, True, np.bool_(True))),
        (lambda: build_cluster(1.0, np.int64(13)).shape, (13, 3)),
        # a non-finite spacing once reached math.ceil as "cannot convert float
        # NaN to integer"
        *(_raises(lambda bad=bad: build_cluster(bad, 5),
                  f"spacing must be positive and finite, got {bad}")
          for bad in (math.nan, math.inf, 0.0))],
    # test_energy.py: 1e308 once raised a bare OverflowError from lam**2, and
    # 5e-324 gave NaN with an invalid-value warning
    **{f"test_energy_layer_rejects_a_lam_beyond_the_doubles[{lam!r}]": [
        _raises(lambda lam=lam: energy_per_particle(
            p(lam), POT, enumerate_shells(LatticeKind.FCC, 1.0, 12.0), UNITS), "lam"),
        (lambda lam=lam: kinetic_per_particle(p(lam), UNITS), "lam" if lam > 1.0 else 0.0)]
       for lam in (1e308, 5e-324)},
    "test_empty_shells_rejected": [
        _raises(lambda: energy_per_particle(p(5.0), POT, LatticeShells(1.0, (), ()), UNITS))],
    # test_units.py: math.isfinite raised a bare OverflowError at an int that
    # no double holds
    **{f"test_check_positive_rejects_an_int_beyond_the_doubles[{name}]": [
        _raises(call, f"{arg} must be positive and finite")]
       for name, arg, call in (
           ("OrbitalParams", "lam", lambda: OrbitalParams(10**400)),
           ("build_cluster", "spacing", lambda: build_cluster(10**400, 5)),
           ("com_statistics", "lam", lambda: com_statistics(10**400, 5)),
           ("UnitSystem", "sigma_m", lambda: u(sigma_m=10**400)))},
    # test_units.py
    **{f"test_nonpositive_parameters_rejected[bad{i}]": [_raises(lambda s=s: UnitSystem(*s))]
       for i, s in enumerate((
           (0.0, 170.0, 83.798), (3.6e-10, -1.0, 83.798), (3.6e-10, 170.0, 0.0),
           (3.6e-10, math.inf, 83.798),
           (1e298, 170.0, 83.798),  # sigma^2 overflows
           (1e-310, 170.0, 83.798),  # sigma^2 underflows
           (1.0, 1e308, 1e308)))},  # the coupling underflows to 0
    # test_optimize.py
    **{f"test_optimize_options_reject_bad_values[{field}-{x!r}]": [
        _raises(lambda field=field, x=x: OptimizeOptions(**{field: x}), field)]
       for field, x in (("lambda_init", math.nan), ("lambda_init", -1.0), ("d_init", math.inf),
                        ("d_init", 0.0), ("lambda_init", 1e300), ("lambda_init", 1e6),
                        ("lambda_init", 1e-2), ("d_init", 0.3), ("d_init", 20.0))},
}


def cases_test(test: str) -> Callable:
    """The test `test`: its CASES, parametrized by their ids if they have one."""
    def run(id) -> None:
        for call, expect in CASES[f"{test}[{id}]" if id else test]:
            if isinstance(expect, str):
                with pytest.raises(ValueError, match=expect or None):
                    call()
            else:
                assert call() == expect

    def run_all() -> None:
        run(None)

    ids = [key[len(test) + 1:-1] for key in CASES if key.startswith(f"{test}[")]
    return pytest.mark.parametrize("id", ids)(run) if ids else run_all


def test_every_case_runs_in_a_test():
    # as do the GOLDEN records named for a test id; test_golden runs the rest
    bound = {found for path in Path(__file__).parent.glob("test_*.py") for found in re.findall(
        r'^(test_\w+) = (cases|golden)_test\(\s*"\1"\)$', path.read_text(), re.M)}
    tests = {(key.partition("[")[0], "cases") for key in CASES}
    tests |= {(key.partition("[")[0], "golden") for key in GOLDEN if key.startswith("test_")}
    assert tests == bound
