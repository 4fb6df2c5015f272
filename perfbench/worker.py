"""One benchmark worker process: set up one workload, then time its operations.

Started by perfbench/run.py in a fresh interpreter, one at a time:

    python3 perfbench/worker.py --workload solve --seed 1 --seconds 8 \
        --start-op 0 [--spans PATH]

The worker imports varsolid from `src/` next to `perfbench/`, makes the
untimed warm-up call, reports when it returned (the end of set-up), and then
runs operations k = start-op, start-op + 1, ... one at a time until
--seconds have passed: a closed loop with one caller.  Every operation's
output is checked.  Between operations it times a calibration, and scales
each operation's time to reference speed by it.  With --spans the run is
split in two halves, untraced and traced, and the traced half writes its
spans to PATH.  The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import marshal
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: the default-start optimum recorded at the commit that added the benchmark;
#: (lambda*, d*, U, B) in natural units
REFERENCE = {"lambda_star": 91.195498437583, "d_star": 1.0977610864951037,
             "u_min": -7.9819948057972585, "bulk": 67.357917087803}
#: the ROADMAP accuracy rule, for the default start
DEFAULT_RTOL = dict.fromkeys(REFERENCE, 1e-9)
#: seeded starts stop wherever Nelder-Mead's param_tol (1e-7 on ln lam and d)
#: lets them; over 240 starts the largest deviations were 1.4e-7 (lambda*),
#: 1e-8 (d*), 2e-15 (U) and 2.5e-7 (B, whose stencil amplifies the offset)
SEEDED_RTOL = {"lambda_star": 1e-6, "d_star": 1e-6, "u_min": 1e-12, "bulk": 2e-6}
#: tolerance of the `verify` command's pair-energy check
ORACLE_RTOL = 1e-9

#: the calibration kernel runs between operations at most this often
CAL_EVERY_S = 0.5
#: an operation is normalized by the calibration samples taken from this long
#: before it starts until this long after it ends
CAL_REACH_S = 1.5
#: compiled once, unmarshalled and run by every kernel call, as an import does
_CAL_CODE = marshal.dumps(compile("\n".join(
    f"def f{i}(a, b={i}, *c, **d):\n    return {{'v': [a, b, {i}.5, 'k{i}'], 'i': {i}}}\n"
    f"class C{i}:\n    a = {i}\n    def m(self, y):\n        return y + {i}\n"
    for i in range(100)), "<calibration>", "exec"))


def calibration_kernel() -> int:
    """A fixed mix of bytecode interpretation, unmarshalling and allocation,
    the kinds of work varsolid and its imports do.  No change to varsolid
    touches it, so its time tracks only the speed of the machine."""
    total = 0
    for i in range(4000):
        total += i * i % 7
    exec(marshal.loads(_CAL_CODE), {})  # noqa: S102  (the benchmark's own code)
    return total + len(sorted(str(i * 7919 % 100003) for i in range(4000)))


#: `cold_start`'s time at reference speed
COLD_REF_S = 0.25


def cold_start() -> float:
    """Time a cold interpreter that imports numpy and mpmath: the start-up a
    fresh varsolid process pays, which an in-process kernel does not track.
    No change to varsolid touches it."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, mpmath"], cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=120, check=True)
    return time.perf_counter() - t0


def normalize(windows: dict[int, tuple[float, float, float]],
              samples: list[tuple[float, float]], ref_s: float) -> dict[int, float]:
    """Scale each operation's time to reference speed, by the median
    calibration sample near it.  `Run.loop` samples at most CAL_EVERY_S
    before each operation starts, so every operation has one in reach."""
    out = {}
    for k, (start, end, dt) in windows.items():
        near = [c for t, c in samples if start - CAL_REACH_S <= t <= end + CAL_REACH_S]
        out[k] = dt * ref_s / statistics.median(near)
    return out


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _seeded(seed: int, k: int) -> random.Random:
    return random.Random(seed * 1_000_003 + k)


class Workload:
    """One kind of operation: `prepare(k)` makes input k from the seed
    (untimed), `call` is timed, `check` returns a failure reason or None.

    `prefix` operations are the same for every seed; the traced run takes
    its exact counters over them.
    """

    prefix = 1
    #: the calibration's time at reference speed: a scaled time is the time
    #: the operation would take on a machine where `calibrate` returns this
    cal_ref_s = 0.004
    #: pin the worker to one core, so the kernel samples the core the
    #: operations run on
    pinned = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def calibrate(self) -> float:
        """One calibration sample: the median of three kernel times."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            calibration_kernel()
            times.append(time.perf_counter() - t0)
        return sorted(times)[1]

    def prepare(self, k: int):
        return None

    def finish(self, inputs: dict) -> dict[int, str]:
        """Untimed checks after the loop, keyed by operation."""
        return {}

    def extra(self) -> dict:
        return {}


class Solve(Workload):
    """Repeated in-process solve_solid from seeded starting points."""

    prefix = 1  # the default start: its counters do not depend on the seed

    def setup(self) -> None:
        from varsolid import model, optimize, units
        self.optimize = optimize
        self.pot = model.TwoYukawaParams()
        self.units = units.make_krypton_units()
        self.default = optimize.OptimizeOptions()
        warm = self.call(self.default)
        reason = self.check(0, self.default, warm)
        if reason:
            raise RuntimeError(f"warm-up solve: {reason}")

    def prepare(self, k: int):
        if k == 0:
            return self.default
        r = _seeded(self.seed, k)
        return replace(self.default,
                       lambda_init=math.exp(r.uniform(math.log(30.0), math.log(200.0))),
                       d_init=r.uniform(1.0, 1.25))

    def call(self, opts):
        return self.optimize.solve_solid(self.pot, self.units, opts)

    def check(self, k: int, opts, sol) -> str | None:
        got = {"lambda_star": sol.lambda_star, "d_star": sol.d_star,
               "u_min": sol.u_min, "bulk": sol.bulk.value}
        rtol = DEFAULT_RTOL if opts == self.default else SEEDED_RTOL
        for key, want in REFERENCE.items():
            if not _rel(got[key], want) <= rtol[key]:
                return f"{key} = {got[key]!r}, recorded {want!r}, rtol {rtol[key]}"
        return None


class Sweep(Workload):
    """energy_per_particle at seeded (lambda, d), a quarter of them in the
    degeneracy window, as `varsolid sweep` evaluates them."""

    prefix = 8  # two whole blocks: the same branch mix for every seed
    block = 4  # one window point in every block of four

    def setup(self) -> None:
        from varsolid import energy, lattice, model, optimize, oracle, units
        self.energy, self.model, self.oracle = energy, model, oracle
        self.pot = model.TwoYukawaParams()
        self.units = units.make_krypton_units()
        self.window = model.DEGENERACY_WINDOW
        self.checked = 0
        self.unit_shells = lattice.enumerate_shells(
            lattice.LatticeKind.FCC, 1.0,
            optimize.OptimizeOptions().shell_cutoff_factor)
        for point in ((5.0, 1.1), (self.pot.m, 1.1)):  # one per branch
            if not math.isfinite(self.call(point)):
                raise RuntimeError(f"warm-up point {point} is not finite")

    def in_window(self, lam: float) -> bool:
        am, an = self.pot.m / self.pot.sigma, self.pot.n / self.pot.sigma
        return min(abs(lam - am) / am, abs(lam - an) / an) < self.window

    def prepare(self, k: int) -> tuple[float, float]:
        r = _seeded(self.seed, k)
        d = r.uniform(0.9, 1.5)
        if k % self.block == 0:
            # alternate the two exponents; stay strictly inside the window
            alpha = (self.pot.m if (k // self.block) % 2 == 0 else self.pot.n) / self.pot.sigma
            return alpha * (1.0 + 0.999 * self.window * r.uniform(-1.0, 1.0)), d
        while True:
            lam = r.uniform(1.0, 30.0)
            if not self.in_window(lam):
                return lam, d

    def call(self, point: tuple[float, float]) -> float:
        lam, d = point
        return self.energy.energy_per_particle(
            self.model.OrbitalParams(lam), self.pot,
            self.unit_shells.scaled(d), self.units).total

    def check(self, k: int, point, total: float) -> str | None:
        return None if math.isfinite(total) else f"u({point}) = {total!r}"

    def finish(self, inputs: dict) -> dict[int, str]:
        """Check pair energies of a seeded quarter of the in-window points,
        at the first two shell distances, against the real-space oracle."""
        failures = {}
        window_ops = sorted(k for k, (lam, _) in inputs.items() if self.in_window(lam))
        chosen = [k for k in window_ops if _seeded(self.seed, -k - 1).random() < 0.25]
        for k in chosen or window_ops[:1]:
            lam, d = inputs[k]
            p = self.model.OrbitalParams(lam)
            for s in (d, d * math.sqrt(2.0)):
                got = self.model.pair_energy(p, self.pot, s)
                want = self.oracle.pair_energy_realspace_reference(p, self.pot, s)
                if not _rel(got, want) <= ORACLE_RTOL:
                    failures[k] = f"pair_energy({lam!r}, {s!r}) = {got!r}, oracle {want!r}"
        self.checked = len(chosen or window_ops[:1])
        return failures

    def extra(self) -> dict:
        return {"oracle_checked_points": self.checked}


class Cli(Workload):
    """Cold `python -m varsolid optimize` then `verify`: one user session.

    The traced run calls `cli.main` in-process instead, since spans cannot
    reach into a child interpreter; its stdout must match the cold runs'.
    """

    prefix = 1  # one session; the default config makes it deterministic
    commands = ("optimize", "verify")
    #: the commands run in fresh interpreters, so a cold start calibrates them
    cal_ref_s = COLD_REF_S
    pinned = False  # each command, like a user's, runs on the core it is given

    def calibrate(self) -> float:
        return cold_start()

    def __init__(self, seed: int, in_process: bool = False) -> None:
        super().__init__(seed)  # C12 pins stdout byte for byte: the seed is unused
        self.in_process = in_process
        self.times: dict[str, list[float]] = {c: [] for c in self.commands}
        self.reference: dict[str, bytes] = {}
        self.verify_json: dict | None = None

    def _cold(self, command: str) -> tuple[int, bytes]:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run([sys.executable, "-m", "varsolid", command],
                              cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=120, check=False)
        return proc.returncode, proc.stdout

    def _in_process(self, command: str) -> tuple[int, bytes]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main([command])
        return rc, buf.getvalue().encode("utf-8")

    def setup(self) -> None:
        # the untimed warm-up is one cold `optimize`; the traced run also needs
        # the cold `verify` output to compare its in-process output against
        for command in self.commands if self.in_process else self.commands[:1]:
            rc, out = self._cold(command)
            if rc != 0:
                raise RuntimeError(f"warm-up `varsolid {command}` exited {rc}")
            self.reference[command] = out
        if self.in_process:
            from varsolid import cli
            self.cli = cli
            reason = self.check(-1, None, self.call(None))
            if reason:
                raise RuntimeError(f"warm-up in-process session: {reason}")
            for command in self.commands:
                self.times[command].clear()

    def call(self, _):
        run = self._in_process if self.in_process else self._cold
        outcome = {}
        for command in self.commands:
            t0 = time.perf_counter()
            outcome[command] = run(command)
            self.times[command].append(time.perf_counter() - t0)
        return outcome

    def check(self, k: int, _, outcome) -> str | None:
        for command, (rc, out) in outcome.items():
            if rc != 0:
                return f"`varsolid {command}` exited {rc}"
            if out != self.reference.setdefault(command, out):
                return f"`varsolid {command}` stdout differs from the first run"
        self.verify_json = json.loads(outcome["verify"][1])
        if self.verify_json.get("all_passed") is not True:
            return "`varsolid verify` reports all_passed false"
        return None

    def extra(self) -> dict:
        out: dict = {"command_s": self.times,
                     "stdout_sha256": {c: hashlib.sha256(b).hexdigest()
                                       for c, b in self.reference.items()}}
        if self.verify_json is not None:
            checks = self.verify_json["checks"]
            out["oracle.max_margin"] = max(c["error"] / c["tolerance"] for c in checks)
            out["oracle.checks_passed_ratio"] = sum(bool(c["passed"]) for c in checks) / len(checks)
        return out


class Run:
    """Operation outcomes of one worker: times, inputs, failures, attempts."""

    def __init__(self, wl, calibrated: bool = False) -> None:
        self.wl = wl
        self.attempted = 0
        self.failures: list[str] = []
        self.inputs: dict = {}
        self.calibrated = calibrated
        self.cal: list[tuple[float, float]] = []  # (monotonic midpoint, sample)
        self.windows: dict[int, tuple[float, float, float]] = {}  # start, end, time

    def loop(self, first: int, deadline: float, tracer=None, op_offset: int = 0,
             min_ops: int = 0) -> dict[int, float]:
        """Run operations first, first + 1, ... until the deadline has passed
        and at least min_ops ran; return the time of each that succeeded."""
        durations: dict[int, float] = {}
        k = first
        while time.monotonic() < deadline or k - first < min_ops:
            if self.calibrated and (not self.cal
                                    or time.monotonic() - self.cal[-1][0] >= CAL_EVERY_S):
                self.calibrate()
            x = self.wl.prepare(k)
            self.attempted += 1
            ctx = tracer.operation(op_offset + k) if tracer else contextlib.nullcontext()
            try:
                with ctx:
                    start = time.monotonic()
                    t0 = time.perf_counter()
                    out = self.wl.call(x)
                    dt = time.perf_counter() - t0
            except Exception as exc:  # an operation that raises counts as failed
                self.failures.append(f"op {k}: {type(exc).__name__}: {exc}")
            else:
                reason = self.wl.check(k, x, out)
                if reason:
                    self.failures.append(f"op {k}: {reason}")
                else:
                    durations[k] = dt
                    self.windows[k] = (start, start + dt, dt)
                self.inputs[k] = x
            k += 1
        if self.calibrated:
            self.calibrate()
        return durations

    def calibrate(self) -> None:
        t0 = time.monotonic()
        sample = self.wl.calibrate()
        self.cal.append(((t0 + time.monotonic()) / 2.0, sample))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("solve", "sweep", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--start-op", type=int, default=0)
    ap.add_argument("--spans", help="trace the second half and write spans here")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    traced = args.spans is not None
    wl = {"solve": Solve, "sweep": Sweep,
          "cli": lambda seed: Cli(seed, in_process=traced)}[args.workload](args.seed)
    if not traced and wl.pinned:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        wl.setup()
    except Exception as exc:
        print(json.dumps({"setup_error": f"{type(exc).__name__}: {exc}"}))
        return 1
    t_ready = time.monotonic()

    run = Run(wl, calibrated=not traced)
    result: dict = {"t_ready": t_ready}
    if not traced:
        # set-up starts a fresh interpreter on every workload
        result["setup_scale"] = COLD_REF_S / cold_start()
        durations = run.loop(args.start_op, t_ready + args.seconds)
        result.update(normalized=list(normalize(run.windows, run.cal,
                                                wl.cal_ref_s).values()),
                      calibration_s=[c for _, c in run.cal])
    else:
        import spans
        half = args.seconds / 2.0
        untraced = run.loop(0, time.monotonic() + half)
        tracer = spans.Tracer()
        replaced = spans.install(tracer)
        t_traced = time.monotonic()
        durations = run.loop(0, 0.0, tracer, min_ops=wl.prefix)
        run.loop(0, 0.0, tracer, op_offset=spans.REPEAT_OFFSET, min_ops=wl.prefix)
        durations.update(run.loop(wl.prefix, t_traced + half, tracer))
        spans.uninstall(replaced)
        first = spans.exact_counters(tracer, range(wl.prefix))
        repeat = spans.exact_counters(
            tracer, range(spans.REPEAT_OFFSET, spans.REPEAT_OFFSET + wl.prefix))
        if first != repeat:
            run.failures.append(f"counters did not repeat: {first} != {repeat}")
        layers, absent = spans.layer_metrics(tracer, wl.prefix)
        common = sorted(set(untraced) & set(durations))
        if common:
            layers["trace.overhead_ratio"] = (
                statistics.median(durations[k] for k in common)
                / statistics.median(untraced[k] for k in common))
        else:
            absent["trace.overhead_ratio"] = "no operation ran both untraced and traced"
        tracer.write(args.spans)
        result.update(layers=layers, absent=absent, counters=first,
                      spans=len(tracer.name), untraced_ops=len(untraced))

    run.failures.extend(f"op {k}: {reason}" for k, reason in wl.finish(run.inputs).items())
    package = sys.modules.get("varsolid")  # cold cli workers never import it
    if package and Path(package.__file__).resolve().parent != SRC / "varsolid":
        run.failures.append(f"varsolid was imported from {package.__file__}")
    usage = resource.RUSAGE_CHILDREN if isinstance(wl, Cli) and not traced \
        else resource.RUSAGE_SELF
    result.update(durations=list(durations.values()), attempted=run.attempted,
                  failures=run.failures,
                  maxrss_kb=resource.getrusage(usage).ru_maxrss, extra=wl.extra())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
