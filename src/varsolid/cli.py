"""Command-line front end: config ingestion, dispatch, JSON/CSV emission.

Commands
--------
optimize        minimize the solid, report (lam*, d*, U, B) plus the
                same-site penalty and an experimental comparison block
observables     CoM statistics for --lambda and --N, optional boost/time
superposition   spreads of a translated superposition (branch file)
selfgrav        boson or fermion scaling table over an N list
sweep           1-D energy scan over lambda or d
verify          run every oracle cross-check, emit a pass/fail table

Exit codes: 0 success, 1 input error, 2 convergence failure,
3 verification mismatch.  All outputs are deterministic for a fixed config
(sorted JSON keys, seeded RNG, no timestamps), so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np
from scipy import integrate

from . import energy as energy_mod
from . import oracle
from .lattice import LatticeKind, enumerate_shells
from .model import (OrbitalParams, TwoYukawaParams, density_fourier,
                    pair_energy, two_yukawa, two_yukawa_fourier)
from .observables import (SuperpositionSpec, branch_overlap, com_statistics,
                          free_spread, galilean_boost, superposition_spread)
from .optimize import (ConvergenceError, OptimizeOptions, SolidSolution,
                       bulk_modulus, minimize_solid)
from .oracle import QuadratureError
from .selfgrav import boson_energy, boson_solve, fermion_solve, fermion_tf_energy
from .units import UnitSystem, make_krypton_units

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONVERGENCE = 2
EXIT_VERIFY = 3

#: measured properties of solid Krypton (0 K extrapolation), echoed next to
#: the model's optimum by the `optimize` command
EXPERIMENT_KRYPTON = {"d_angstrom": 3.992, "u_cal_per_mole": -2666.0,
                      "bulk_modulus_kbar": 34.3}


class CliInputError(ValueError):
    """Bad command line, config, or output destination."""


@dataclass(frozen=True)
class RunConfig:
    """Flat configuration; the defaults reproduce the Krypton solid run."""

    b: float = 2.026
    m: float = 2.69
    n: float = 14.70
    epsilon_K: float = 170.0
    sigma_angstrom: float = 3.6
    mass_u: float = 83.798
    lambda_init: float = 50.0
    d_init: float = 1.1
    param_tol: float = 1e-7
    max_iter: int = 600
    shell_cutoff_factor: float = 12.0
    quad_rtol: float = 1e-10
    relaxed_bulk: bool = True
    fd_step_rel: float = 1e-2
    n_list: tuple[int, ...] = (100, 10_000, 1_000_000)
    seed: int = 20260815
    mc_samples: int = 200_000

    def __post_init__(self) -> None:
        for name in ("b", "m", "n", "epsilon_K", "sigma_angstrom", "mass_u",
                     "lambda_init", "d_init", "shell_cutoff_factor", "fd_step_rel"):
            if not getattr(self, name) > 0.0:
                raise CliInputError(f"config field {name} must be positive")
        for name in ("param_tol", "quad_rtol"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise CliInputError(f"config field {name} must lie in (0, 1)")
        if self.max_iter < 1 or self.mc_samples < 1000:
            raise CliInputError("max_iter must be >= 1 and mc_samples >= 1000")
        if any(n < 2 for n in self.n_list):
            raise CliInputError("every entry of n_list must be >= 2")

    @classmethod
    def from_file(cls, path: str | None) -> "RunConfig":
        if path is None:
            return cls()
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise CliInputError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CliInputError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise CliInputError("config must be a JSON object of snake_case keys")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise CliInputError(f"unknown config keys: {sorted(unknown)}")
        if "n_list" in raw:
            raw["n_list"] = tuple(int(x) for x in raw["n_list"])
        try:
            return cls(**raw)
        except TypeError as exc:
            raise CliInputError(f"malformed config: {exc}") from exc

    def units(self) -> UnitSystem:
        return UnitSystem(sigma_m=self.sigma_angstrom * 1e-10,
                          epsilon_K=self.epsilon_K, mass_u=self.mass_u)

    def potential(self) -> TwoYukawaParams:
        return TwoYukawaParams(b=self.b, m=self.m, n=self.n)

    def optimizer_options(self) -> OptimizeOptions:
        return OptimizeOptions(lambda_init=self.lambda_init, d_init=self.d_init,
                               param_tol=self.param_tol, max_iter=self.max_iter,
                               shell_cutoff_factor=self.shell_cutoff_factor,
                               relaxed_bulk=self.relaxed_bulk,
                               fd_step_rel=self.fd_step_rel)


# ----------------------------------------------------------------------
# output helpers
# ----------------------------------------------------------------------

def _write_json(payload: dict[str, Any], path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliInputError(f"cannot write output {path}: {exc}") from exc


def _write_csv(rows: list[dict[str, Any]], path: str) -> None:
    if not rows:
        raise CliInputError("no rows to write as CSV")
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            for row in rows:
                writer.writerow({k: (f"{v:.17g}" if isinstance(v, float) else v)
                                 for k, v in row.items()})
    except OSError as exc:
        raise CliInputError(f"cannot write CSV {path}: {exc}") from exc


def _solution_payload(sol: SolidSolution, cfg: RunConfig,
                      units: UnitSystem) -> dict[str, Any]:
    p_star = OrbitalParams(sol.lambda_star)
    shells = enumerate_shells(LatticeKind.FCC, sol.d_star,
                              cfg.shell_cutoff_factor * sol.d_star)
    w = energy_mod.same_site_W(p_star, cfg.potential(), shells, units)
    payload: dict[str, Any] = {
        "lambda_star_per_sigma": sol.lambda_star,
        "d_star_sigma": sol.d_star,
        "d_star_angstrom": sol.d_star_angstrom,
        "u_min_epsilon": sol.u_min,
        "u_cal_per_mole": sol.u_min_cal_per_mole,
        "same_site_W_epsilon": w.W,
        "same_site_W_over_potential": w.ratio,
        "iterations": sol.iterations,
        "n_evaluations": sol.n_evaluations,
        "final_simplex_size": sol.final_simplex_size,
        "experiment_reference": dict(EXPERIMENT_KRYPTON),
    }
    if sol.bulk is not None:
        payload.update({
            "bulk_modulus_epsilon_sigma3": sol.bulk.value,
            "bulk_modulus_kbar": sol.bulk.value_kbar,
            "bulk_richardson_rel_diff": sol.bulk.richardson_rel_diff,
            "bulk_reduced_confidence": sol.bulk.reduced_confidence,
        })
    return payload


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _cmd_optimize(args: argparse.Namespace, cfg: RunConfig) -> int:
    units = cfg.units()
    opts = cfg.optimizer_options()
    sol = minimize_solid(cfg.potential(), units, opts)
    sol = dataclasses.replace(sol, bulk=bulk_modulus(sol, cfg.potential(),
                                                     units, opts))
    _write_json(_solution_payload(sol, cfg, units), args.output)
    return EXIT_OK


def _cmd_observables(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.lam is None or args.N is None:
        raise CliInputError("observables needs --lambda and --N")
    if args.N < 1:
        raise CliInputError(f"--N must be >= 1, got {args.N}")
    units = cfg.units()
    stats = com_statistics(args.lam, args.N)
    payload: dict[str, Any] = {
        "lambda_per_sigma": args.lam,
        "N": args.N,
        "chi_sigma2": stats.chi,
        "omega_hbar2_per_sigma2": stats.omega,
        "product_hbar": stats.product,
    }
    if args.boost is not None:
        boosted = galilean_boost(stats, _parse_vector(args.boost), units)
        payload["mean_P_hbar_per_sigma"] = list(boosted.mean_P)
    if args.time is not None:
        if args.time < 0:
            raise CliInputError("--time must be >= 0")
        payload["chi_sigma2_at_time"] = free_spread(stats, args.time, units)
        payload["time_natural"] = args.time
    _write_json(payload, args.output)
    return EXIT_OK


def _parse_vector(text: str) -> np.ndarray:
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise CliInputError(f"bad 3-vector {text!r}: {exc}") from exc
    if len(parts) != 3:
        raise CliInputError(f"expected 3 comma-separated numbers, got {text!r}")
    return np.array(parts)


def _cmd_superposition(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.branches is None or args.lam is None or args.N is None:
        raise CliInputError("superposition needs --branches, --lambda and --N")
    try:
        with open(args.branches, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read branch file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"branch file is not valid JSON: {exc}") from exc
    try:
        weights = [complex(w[0], w[1]) if isinstance(w, list) else complex(w)
                   for w in raw["weights"]]
        spec = SuperpositionSpec(displacements=np.array(raw["displacements"]),
                                 weights=np.array(weights),
                                 cutoff_a=float(raw["cutoff_a"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise CliInputError(f"bad superposition spec: {exc}") from exc
    spread = superposition_spread(spec, args.lam, args.N)
    payload = {
        "lambda_per_sigma": args.lam,
        "N": args.N,
        "branches": len(spec.weights),
        "min_separation_sigma": spec.min_separation(),
        "branch_overlap_bound": branch_overlap(spec, args.lam),
        "intrinsic_chi_sigma2": com_statistics(args.lam, args.N).chi,
        "variance_sigma2": [float(v) for v in spread],
    }
    _write_json(payload, args.output)
    return EXIT_OK


def _cmd_selfgrav(args: argparse.Namespace, cfg: RunConfig) -> int:
    n_list = cfg.n_list if args.n_list is None else tuple(
        int(float(x)) for x in args.n_list.split(","))
    if any(n < 2 for n in n_list):
        raise CliInputError("every N must be >= 2")
    rows: list[dict[str, Any]] = []
    if args.kind == "boson":
        for n in n_list:
            s = boson_solve(n, kappa=args.kappa, mu=args.mu)
            rows.append({"N": n, "beta_star": s.beta_star, "energy": s.energy,
                         "chi": s.chi, "product_hbar": s.product_hbar})
    elif args.kind == "fermion":
        for n in n_list:
            s = fermion_solve(n, q=args.q, kappa=args.kappa, mu=args.mu,
                              e_coeff=args.e_coeff)
            rows.append({"N": n, "gamma_star": s.gamma_star, "energy": s.energy,
                         "chi": s.chi, "f_factor": s.f_factor})
    else:
        raise CliInputError(f"unknown selfgrav kind {args.kind!r}")
    payload = {"kind": args.kind, "kappa": args.kappa, "mu": args.mu,
               "rows": rows}
    _write_json(payload, args.output)
    if args.csv:
        _write_csv(rows, args.csv)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> int:
    if args.param not in ("lambda", "d"):
        raise CliInputError(f"--param must be lambda or d, got {args.param!r}")
    try:
        lo_s, hi_s, num_s = args.range.split(":")
        lo, hi, num = float(lo_s), float(hi_s), int(num_s)
    except ValueError as exc:
        raise CliInputError(f"--range must be lo:hi:num, got {args.range!r}") from exc
    if not (math.isfinite(hi) and 0 < lo < hi and num >= 2):
        raise CliInputError("need finite 0 < lo < hi and num >= 2")
    units = cfg.units()
    pot = cfg.potential()
    unit_shells = enumerate_shells(LatticeKind.FCC, 1.0, cfg.shell_cutoff_factor)
    rows = []
    for value in np.linspace(lo, hi, num):
        lam = float(value) if args.param == "lambda" else cfg.lambda_init
        d = float(value) if args.param == "d" else cfg.d_init
        breakdown = energy_mod.energy_per_particle(
            OrbitalParams(lam), pot, unit_shells.scaled(d), units)
        rows.append({"lambda_per_sigma": lam, "d_sigma": d,
                     "u_epsilon": breakdown.total,
                     "u_cal_per_mole": units.energy_to_cal_per_mole(breakdown.total)})
    payload = {"param": args.param, "rows": rows}
    _write_json(payload, args.output)
    if args.csv:
        _write_csv(rows, args.csv)
    return EXIT_OK


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def _verify_checks(cfg: RunConfig) -> list[dict[str, Any]]:
    units = cfg.units()
    pot = cfg.potential()
    rng = np.random.default_rng(cfg.seed)
    checks: list[dict[str, Any]] = []

    def record(name: str, value: float, reference: float, tol: float,
               mode: str = "rel") -> None:
        if mode == "rel":
            err = abs(value - reference) / max(abs(reference), 1e-300)
        else:
            err = abs(value - reference)
        checks.append({"check": name, "value": value, "reference": reference,
                       "error": err, "tolerance": tol,
                       "passed": bool(err <= tol)})

    # potential transform against direct sine quadrature
    worst_k, worst = 0.0, 0.0
    for k in rng.uniform(0.05, 60.0, 20):
        got = oracle.radial_transform_check(lambda r: float(two_yukawa(r, pot)),
                                            float(k), rtol=cfg.quad_rtol)
        want = two_yukawa_fourier(float(k), pot)
        rel = abs(got - want) / abs(want)
        if rel > worst:
            worst_k, worst = float(k), rel
    checks.append({"check": "two_yukawa_fourier vs sine quadrature (20 k)",
                   "value": worst, "reference": 0.0, "error": worst,
                   "tolerance": 1e-9, "passed": bool(worst <= 1e-9),
                   "worst_k": worst_k})

    # density transform
    lam0 = 91.33
    p0 = OrbitalParams(lam0)
    got = oracle.radial_transform_check(
        lambda r: lam0**3 * math.exp(-lam0 * r) / (8.0 * math.pi), 10.0,
        rtol=cfg.quad_rtol)
    record("density_fourier vs sine quadrature (k=10)", got,
           density_fourier(p0, 10.0), 1e-9)

    # Plancherel: (1/2 pi^2) int k^2 n~^2 dk = int n^2 d^3r = lam^3/(64 pi)
    plancherel, _ = integrate.quad(
        lambda k: k * k * (1.0 + (k / lam0) ** 2) ** -4, 0.0, np.inf,
        epsabs=1e-13, epsrel=1e-12, limit=400)
    record("Plancherel norm of site density", plancherel / (2.0 * math.pi**2),
           lam0**3 / (64.0 * math.pi), 1e-9)

    # pair energy: closed form vs real-space quadrature and vs Fourier QAGS
    worst = 0.0
    for lam, s in ((91.33, 0.0), (91.33, 1.0981), (91.33, 2.1962), (50.0, 1.3),
                   (14.7, 1.0981), (200.0, 0.9)):
        cf = pair_energy(OrbitalParams(lam), pot, s)
        ref = oracle.pair_energy_realspace_reference(OrbitalParams(lam), pot, s)
        worst = max(worst, abs(cf - ref) / max(abs(ref), 1e-300))
    checks.append({"check": "pair_energy closed form vs real-space quadrature",
                   "value": worst, "reference": 0.0, "error": worst,
                   "tolerance": 1e-9, "passed": bool(worst <= 1e-9)})

    qval, qerr = oracle.pair_energy_quadrature(p0, pot, 0.0, rtol=cfg.quad_rtol)
    w0 = pair_energy(p0, pot, 0.0)
    record("same-site W vs Fourier quadrature", qval, w0,
           max(1e-8, 3.0 * qerr / abs(w0)))

    # Monte Carlo pair energies
    for i, (lam, s) in enumerate(((91.33, 1.0981), (60.0, 0.0), (120.0, 1.6))):
        est = oracle.mc_pair_energy(OrbitalParams(lam), pot, s,
                                    samples=cfg.mc_samples,
                                    seed=cfg.seed + 1 + i)
        cf = pair_energy(OrbitalParams(lam), pot, s)
        dev = abs(est.mean - cf) / est.std_error
        checks.append({"check": f"pair_energy MC lam={lam} s={s}",
                       "value": est.mean, "reference": cf, "error": dev,
                       "tolerance": 3.0, "passed": bool(dev <= 3.0),
                       "unit": "standard errors"})

    # Coulomb and Thomas-Fermi coefficient pins
    record("Coulomb self-energy of e^{-2r} cloud",
           oracle.coulomb_self_energy_quadrature(2.0), 5.0 * 2.0 / 16.0, 1e-9)
    from .selfgrav import C_KIN
    got = oracle.density_power_integral_quadrature(3.0, 7.0, 5.0 / 3.0)
    record("Thomas-Fermi kinetic coefficient", got,
           C_KIN * 7.0 ** (5.0 / 3.0) * 3.0**2, 1e-9)

    # momentum variance pin: per-axis <p^2> of e^{-beta r} orbital
    beta = 45.665
    est = oracle.mc_momentum_axis_variance(beta, samples=cfg.mc_samples,
                                           seed=cfg.seed + 17)
    dev = abs(est.mean - beta**2 / 3.0) / est.std_error
    checks.append({"check": "per-axis momentum variance (hbar beta)^2/3",
                   "value": est.mean, "reference": beta**2 / 3.0, "error": dev,
                   "tolerance": 4.0, "passed": bool(dev <= 4.0),
                   "unit": "standard errors"})

    # uncertainty product identity
    worst = 0.0
    for _ in range(100):
        lam = float(rng.uniform(0.5, 500.0))
        n = int(rng.integers(1, 10**9))
        worst = max(worst, abs(com_statistics(lam, n).product - 1.0 / math.sqrt(3.0)))
    checks.append({"check": "uncertainty product hbar/sqrt(3) (100 draws)",
                   "value": worst, "reference": 0.0, "error": worst,
                   "tolerance": 1e-12, "passed": bool(worst <= 1e-12)})

    # self-gravitating minima: closed forms vs scalar minimization.  A
    # function-value minimizer cannot localize the argmin of a quadratic
    # better than ~sqrt(eps) relative, so the tolerance is 1e-6, not 1e-12.
    from scipy.optimize import minimize_scalar
    b_sol = boson_solve(1000, kappa=0.7, mu=1.3)
    num = minimize_scalar(lambda b: boson_energy(b, 1000, kappa=0.7, mu=1.3),
                          bounds=(0.5 * b_sol.beta_star, 2.0 * b_sol.beta_star),
                          method="bounded", options={"xatol": 1e-12})
    record("boson beta* closed form vs minimization", b_sol.beta_star,
           float(num.x), 1e-6)
    f_sol = fermion_solve(1000, kappa=0.7, mu=1.3)
    num = minimize_scalar(lambda g: fermion_tf_energy(g, 1000, kappa=0.7, mu=1.3),
                          bounds=(0.5 * f_sol.gamma_star, 2.0 * f_sol.gamma_star),
                          method="bounded", options={"xatol": 1e-12})
    record("fermion gamma* closed form vs minimization", f_sol.gamma_star,
           float(num.x), 1e-6)

    return checks


def _cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    checks = _verify_checks(cfg)
    all_passed = all(c["passed"] for c in checks)
    payload = {"all_passed": all_passed, "checks": checks}
    _write_json(payload, args.output)
    if args.csv:
        _write_csv(checks, args.csv)
    return EXIT_OK if all_passed else EXIT_VERIFY


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise CliInputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="varsolid",
        description="Variational exponential-orbital solver for a two-Yukawa "
                    "model solid, with center-of-mass statistics and "
                    "self-gravitating scaling laws.",
        epilog="CSV columns: selfgrav -> N, beta_star|gamma_star, energy, chi, "
               "product_hbar|f_factor; sweep -> lambda_per_sigma, d_sigma, "
               "u_epsilon, u_cal_per_mole; verify -> check, value, reference, "
               "error, tolerance, passed.  Floats carry 17 significant digits.")
    parser.add_argument("--config", help="JSON config file (defaults: Krypton)")
    parser.add_argument("--output", help="JSON output path (default: stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("optimize", help="minimize the solid and report the optimum")

    p_obs = sub.add_parser("observables", help="CoM statistics for (lambda, N)")
    p_obs.add_argument("--lambda", dest="lam", type=float,
                       help="orbital decay rate in 1/sigma")
    p_obs.add_argument("--N", type=float, help="number of particles")
    p_obs.add_argument("--boost", help="velocity 3-vector vx,vy,vz (natural units)")
    p_obs.add_argument("--time", type=float,
                       help="free-evolution time (natural units)")

    p_sup = sub.add_parser("superposition", help="translated-superposition spreads")
    p_sup.add_argument("--branches", help="JSON file: displacements, weights, cutoff_a")
    p_sup.add_argument("--lambda", dest="lam", type=float)
    p_sup.add_argument("--N", type=float)

    p_sg = sub.add_parser("selfgrav", help="self-gravitating scaling tables")
    p_sg.add_argument("--kind", required=True, choices=("boson", "fermion"))
    p_sg.add_argument("--N-list", "--n-list", dest="n_list",
                      help="comma-separated N values")
    p_sg.add_argument("--kappa", type=float, default=1.0)
    p_sg.add_argument("--mu", type=float, default=1.0)
    p_sg.add_argument("--q", type=int, default=2)
    p_sg.add_argument("--e-coeff", type=float, default=5.0)
    p_sg.add_argument("--csv", help="also write the table as CSV")

    p_sw = sub.add_parser("sweep", help="energy scan over lambda or d")
    p_sw.add_argument("--param", required=True)
    p_sw.add_argument("--range", required=True, help="lo:hi:num")
    p_sw.add_argument("--csv", help="also write the table as CSV")

    p_ver = sub.add_parser("verify", help="run all oracle cross-checks")
    p_ver.add_argument("--csv", help="also write the check table as CSV")

    return parser


_HANDLERS = {
    "optimize": _cmd_optimize,
    "observables": _cmd_observables,
    "superposition": _cmd_superposition,
    "selfgrav": _cmd_selfgrav,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def run(argv: Sequence[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig.from_file(args.config)
    return _HANDLERS[args.command](args, cfg)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        return run(sys.argv[1:] if argv is None else list(argv))
    except CliInputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:  # a rejected model value, or a non-finite result
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, QuadratureError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
