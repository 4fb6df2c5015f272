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
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from . import energy as energy_mod
from .model import OrbitalParams, TwoYukawaParams
from .observables import (SuperpositionSpec, com_statistics, free_spread,
                          galilean_boost, superposition_spread)
from .optimize import (SEARCH_BOX, ConvergenceError, OptimizeOptions,
                       SolidSolution, in_search_box, solve_solid, unit_shells)
from .oracle import QuadratureError, verify_checks
from .selfgrav import boson_solve, fermion_solve
from .units import (KRYPTON_EPSILON_K, KRYPTON_MASS_U, KRYPTON_SIGMA_M,
                    UnitSystem)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CONVERGENCE = 2
EXIT_VERIFY = 3

#: measured properties of solid Krypton (0 K extrapolation), echoed next to
#: the model's optimum by the `optimize` command
EXPERIMENT_KRYPTON = {"d_angstrom": 3.992, "u_cal_per_mole": -2666.0,
                      "bulk_modulus_kbar": 34.3}

#: the most points a sweep takes: at ~6 ms a point in the degeneracy
#: window, ~0.2 ms elsewhere, a sweep at the ceiling ends within a minute
MAX_SWEEP_POINTS = 10**4

#: CSV columns of the verify table, as the --help epilog documents them
VERIFY_COLUMNS = ("check", "value", "reference", "error", "tolerance", "passed")


class CliInputError(ValueError):
    """Bad command line, config, or output destination."""


@dataclass(frozen=True)
class RunConfig:
    """Flat configuration; the defaults reproduce the Krypton solid run.

    Potential, unit and optimizer defaults are the library's own
    (`TwoYukawaParams`, `units.KRYPTON_*`, `OptimizeOptions`), and those
    objects validate their fields.  Every field is a float and takes a
    finite int or float (stored as float), never a bool.  The values no run
    varies are constants, not fields: the shell sum's 12 d cutoff
    (`optimize.unit_shells`), the Nelder-Mead cap `optimize.MAX_ITER`, the
    verify battery's `oracle.VERIFY_SEED` and `oracle.VERIFY_MC_SAMPLES`;
    the selfgrav N list is its `--N-list` flag.
    """

    b: float = TwoYukawaParams.b
    m: float = TwoYukawaParams.m
    n: float = TwoYukawaParams.n
    epsilon_K: float = KRYPTON_EPSILON_K
    sigma_angstrom: float = KRYPTON_SIGMA_M * 1e10
    mass_u: float = KRYPTON_MASS_U
    lambda_init: float = OptimizeOptions.lambda_init
    d_init: float = OptimizeOptions.d_init

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            object.__setattr__(self, f.name, _typed(f.name, getattr(self, f.name)))
        try:
            self.units()
            self.potential()
            self.optimizer_options()
        except ValueError as exc:
            raise CliInputError(f"config: {exc}") from exc

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
        return cls(**raw)

    def units(self) -> UnitSystem:
        return UnitSystem(sigma_m=self.sigma_angstrom * 1e-10,
                          epsilon_K=self.epsilon_K, mass_u=self.mass_u)

    def potential(self) -> TwoYukawaParams:
        return TwoYukawaParams(b=self.b, m=self.m, n=self.n)

    def optimizer_options(self) -> OptimizeOptions:
        return OptimizeOptions(self.lambda_init, self.d_init)


def _typed(name: str, value: Any) -> float:
    """`value` of the RunConfig field `name` as a finite float; an int is
    widened, and a bool is refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            value = math.inf
        if math.isfinite(value):
            return value
    raise CliInputError(f"config field {name} must be a finite number, "
                        f"got {type(value).__name__}")


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


def _write_csv(rows: list[dict[str, Any]], path: str,
               columns: Sequence[str] | None = None) -> None:
    """Rows as CSV; `columns` (default: the first row's keys) are written
    and any other key of a row is left out.  Every caller has a row."""
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(columns or rows[0]),
                                    extrasaction="ignore")
            writer.writeheader()
            for row in rows:
                writer.writerow({k: (f"{v:.17g}" if isinstance(v, float) else v)
                                 for k, v in row.items()})
    except OSError as exc:
        raise CliInputError(f"cannot write CSV {path}: {exc}") from exc


def _solution_payload(sol: SolidSolution, cfg: RunConfig,
                      units: UnitSystem) -> dict[str, Any]:
    shells = unit_shells().scaled(sol.d_star)
    w = energy_mod.same_site_W(OrbitalParams(sol.lambda_star), cfg.potential(),
                               shells, units)
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
            "bulk_n_evaluations": sol.bulk.n_evaluations,
        })
    return payload


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def _cmd_optimize(args: argparse.Namespace, cfg: RunConfig) -> int:
    units = cfg.units()
    sol = solve_solid(cfg.potential(), units, cfg.optimizer_options())
    _write_json(_solution_payload(sol, cfg, units), args.output)
    return EXIT_OK


def _cmd_observables(args: argparse.Namespace, cfg: RunConfig) -> int:
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
        payload["chi_sigma2_at_time"] = free_spread(stats, args.time, units)
        payload["time_natural"] = args.time
    _write_json(payload, args.output)
    return EXIT_OK


def _parse_vector(text: str) -> list[float]:
    """Comma-separated numbers; galilean_boost refuses any but three."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError as exc:
        raise CliInputError(f"bad 3-vector {text!r}: {exc}") from exc


def _cmd_superposition(args: argparse.Namespace, cfg: RunConfig) -> int:
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
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise CliInputError(f"bad superposition spec: {exc}") from exc
    spread = superposition_spread(spec, args.lam, args.N)
    payload = {
        "lambda_per_sigma": args.lam,
        "N": args.N,
        "branches": len(spec.weights),
        "min_separation_sigma": spec.min_separation() if len(spec.weights) > 1 else None,
        "intrinsic_chi_sigma2": com_statistics(args.lam, args.N).chi,
        "variance_sigma2": [float(v) for v in spread],
    }
    _write_json(payload, args.output)
    return EXIT_OK


def _cmd_selfgrav(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        n_list = tuple(int(float(x)) for x in args.n_list.split(","))
    except (ValueError, OverflowError) as exc:  # not a number, NaN or infinite
        raise CliInputError(f"--N-list needs finite numbers: {exc}") from exc
    rows: list[dict[str, Any]] = []
    if args.kind == "boson":
        for n in n_list:
            s = boson_solve(n, kappa=args.kappa, mu=args.mu)
            rows.append({"N": n, "beta_star": s.beta_star, "energy": s.energy,
                         "chi": s.chi, "product_hbar": s.product_hbar})
    else:  # argparse's choices admit only boson and fermion
        for n in n_list:
            s = fermion_solve(n, q=args.q, kappa=args.kappa, mu=args.mu,
                              e_coeff=args.e_coeff)
            rows.append({"N": n, "gamma_star": s.gamma_star, "energy": s.energy,
                         "chi": s.chi, "f_factor": s.f_factor})
    payload = {"kind": args.kind, "kappa": args.kappa, "mu": args.mu,
               "rows": rows}
    _write_json(payload, args.output)
    if args.csv:
        _write_csv(rows, args.csv)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        lo_s, hi_s, num_s = args.range.split(":")
        lo, hi, num = float(lo_s), float(hi_s), int(num_s)
    except ValueError as exc:
        raise CliInputError(f"--range must be lo:hi:num, got {args.range!r}") from exc
    if not (in_search_box(args.param, lo, hi) and lo < hi and 2 <= num <= MAX_SWEEP_POINTS):
        raise CliInputError(f"need lo < hi in {SEARCH_BOX[args.param]} and "
                            f"2 <= num <= {MAX_SWEEP_POINTS}")
    units = cfg.units()
    pot = cfg.potential()
    shells = unit_shells()
    rows = []
    for value in np.linspace(lo, hi, num):
        lam = float(value) if args.param == "lambda" else cfg.lambda_init
        d = float(value) if args.param == "d" else cfg.d_init
        breakdown = energy_mod.energy_per_particle(
            OrbitalParams(lam), pot, shells.scaled(d), units)
        rows.append({"lambda_per_sigma": lam, "d_sigma": d,
                     "u_epsilon": breakdown.total,
                     "u_cal_per_mole": units.energy_to_cal_per_mole(breakdown.total)})
    payload = {"param": args.param, "rows": rows}
    _write_json(payload, args.output)
    if args.csv:
        _write_csv(rows, args.csv)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace, cfg: RunConfig) -> int:
    checks = verify_checks(cfg.potential())
    all_passed = all(c["passed"] for c in checks)
    payload = {"all_passed": all_passed, "checks": checks}
    _write_json(payload, args.output)
    if args.csv:
        _write_csv(checks, args.csv, VERIFY_COLUMNS)
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
    p_obs.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="orbital decay rate in 1/sigma")
    p_obs.add_argument("--N", type=float, required=True, help="number of particles")
    p_obs.add_argument("--boost", help="velocity 3-vector vx,vy,vz (natural units)")
    p_obs.add_argument("--time", type=float,
                       help="free-evolution time (natural units)")

    p_sup = sub.add_parser("superposition", help="translated-superposition spreads")
    p_sup.add_argument("--branches", required=True,
                       help="JSON file: displacements, weights, cutoff_a")
    p_sup.add_argument("--lambda", dest="lam", type=float, required=True)
    p_sup.add_argument("--N", type=float, required=True)

    p_sg = sub.add_parser("selfgrav", help="self-gravitating scaling tables")
    p_sg.add_argument("--kind", required=True, choices=("boson", "fermion"))
    p_sg.add_argument("--N-list", "--n-list", dest="n_list",
                      default="100,10000,1000000",
                      help="comma-separated N values (default: %(default)s)")
    p_sg.add_argument("--kappa", type=float, default=1.0)
    p_sg.add_argument("--mu", type=float, default=1.0)
    p_sg.add_argument("--q", type=int, default=2)
    p_sg.add_argument("--e-coeff", type=float, default=5.0)
    p_sg.add_argument("--csv", help="also write the table as CSV")

    p_sw = sub.add_parser("sweep", help="energy scan over lambda or d")
    p_sw.add_argument("--param", required=True, choices=("lambda", "d"))
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
    except ValueError as exc:  # CliInputError, a rejected value or a non-finite result
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ConvergenceError, QuadratureError) as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
