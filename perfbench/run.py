"""varsolid benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from any directory; the package is imported from `src/` beside
`perfbench/`.  `--trace 0` measures the end-to-end metrics of
BENCHMARK.json: the timed work is split over three fresh worker processes
that run one after the other, so set-up is measured three times.
`--trace 1` runs one worker whose second half is traced and reports the
per-layer metrics, plus an import profile from `python -X importtime`.
`--workload all` runs every workload and names the metrics after the
workload they come from.

Human-readable lines come first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  The full record
(provenance, sample counts, tail percentiles, absent metrics) is written to
perfbench/out/.  The exit code is 0 only when every correctness gate held.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("solve", "sweep", "cli")
WORKERS = 3  # set-up is measured once per worker; the reported value is the median
DEADLINE_S = 170.0  # every run must end within 180 s
#: tails need at least this many samples beyond the reported percentile
TAIL_BEYOND = 10

sys.path.insert(0, str(HERE))
import spans  # noqa: E402  (the benchmark's own module, beside this file)

#: one thread per process: the reference machine has 2 cores, and BLAS
#: threads would make each run measure the scheduler
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
           MKL_NUM_THREADS="1")


_running: list[subprocess.Popen] = []  # workers to stop if this run is stopped


def _stop_workers(signum, _frame) -> None:
    for proc in _running:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    sys.exit(128 + signum)


def _remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def _worker(argv: list[str], deadline: float) -> tuple[float, dict]:
    """Start one worker; return its start time and its JSON result."""
    t_spawn = time.monotonic()
    # a session of its own, so a timeout also stops the worker's children
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    _running.append(proc)
    try:
        out, _ = proc.communicate(timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return t_spawn, {"setup_error": "worker ran past the run's deadline"}
    finally:
        _running.remove(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 and not lines:
        return t_spawn, {"setup_error": f"worker exited {proc.returncode}"}
    return t_spawn, json.loads(lines[-1])


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Tail latency: the highest nearest-rank percentile with TAIL_BEYOND
    samples above it, but never below p90.

    Returns (value, percentile, samples beyond).  Below 100 samples the p90
    floor applies and fewer than TAIL_BEYOND samples lie beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, math.ceil(0.9 * n))  # 1-based
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def run_timed(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups, measured_setups, durations, normalized, failures, rss = [], [], [], [], [], []
    calibration = []
    attempted, start_op = 0, 0
    extras = []
    for _ in range(WORKERS):
        t_spawn, res = _worker(["--workload", workload, "--seed", str(seed),
                                "--seconds", str(seconds / WORKERS),
                                "--start-op", str(start_op)], deadline)
        if "setup_error" in res:
            failures.append(f"set-up: {res['setup_error']}")
            attempted += 1
            break
        measured_setups.append(res["t_ready"] - t_spawn)
        setups.append(measured_setups[-1] * res["setup_scale"])
        durations += res["durations"]
        normalized += res["normalized"]
        calibration += res["calibration_s"]
        failures += res["failures"]
        attempted += res["attempted"]
        start_op += res["attempted"]
        rss.append(res["maxrss_kb"])
        extras.append(res["extra"])

    record: dict = {"attempted": attempted, "failures": failures, "extra": extras}
    if workload == "cli" and extras:
        hashes = {json.dumps(e["stdout_sha256"], sort_keys=True) for e in extras}
        if len(hashes) != 1:
            failures.append(f"cli stdout differs between workers: {sorted(hashes)}")
    if not durations or len(setups) < WORKERS:
        return record
    value, pct, beyond = tail(durations)
    # setup_s and op_* at reference speed (see worker.py), measured_* and
    # ops_per_s by the wall clock
    record["metrics"] = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(rss) / 1024.0,
        "op_p50_s": statistics.median(normalized),
        "op_mean_s": statistics.fmean(normalized),
        "op_tail_s": tail(normalized)[0],
        "measured_setup_s": statistics.median(measured_setups),
        "measured_p50_s": statistics.median(durations),
        "measured_tail_s": value,
        "ops_per_s": len(durations) / math.fsum(durations),
    }
    record["samples"] = {"ops": len(durations), "setups": setups,
                         "tail_percentile": pct, "tail_beyond": beyond,
                         "calibrations": len(calibration),
                         "calibration_p50_s": statistics.median(calibration),
                         "op_s": durations, "op_ref_s": normalized}
    if workload == "cli":
        for command in ("optimize", "verify"):
            times = [t for e in extras for t in e["command_s"][command]]
            record["metrics"][f"cli_{command}_p50_s"] = statistics.median(times)
            record["samples"][f"cli_{command}_runs"] = len(times)
        for key in ("oracle.max_margin", "oracle.checks_passed_ratio"):
            if key in extras[-1]:
                record["metrics"][key] = extras[-1][key]
    return record


def _import_probe(workload: str, deadline: float) -> dict[str, float]:
    module = "varsolid.cli" if workload == "cli" else "varsolid"
    env = dict(ENV, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", f"import {module}"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=_remaining(deadline), check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"import {module} failed: {proc.stderr.strip()[-300:]}")
    return spans.import_profile(proc.stderr)


def run_traced(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    OUT.mkdir(exist_ok=True)
    span_path = OUT / f"spans-{workload}.json.gz"  # the latest traced run
    _, res = _worker(["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--spans", str(span_path)], deadline)
    if "setup_error" in res:
        return {"attempted": 1, "failures": [f"set-up: {res['setup_error']}"]}
    metrics = dict(res["layers"])
    absent = dict(res["absent"])
    imports, import_absent = spans.median_import_metrics(
        [_import_probe(workload, deadline) for _ in range(3)])
    metrics.update(imports)
    absent.update(import_absent)
    extra = res["extra"]
    for key in ("oracle.max_margin", "oracle.checks_passed_ratio"):
        if key in extra:
            metrics[key] = extra[key]
        else:
            absent[key] = "`varsolid verify` does not run on this workload"
    return {"attempted": res["attempted"], "failures": res["failures"],
            "metrics": metrics, "absent": absent, "counters": res["counters"],
            "samples": {"spans": res["spans"], "traced_ops": len(res["durations"]),
                        "untraced_ops": res["untraced_ops"]},
            "spans_file": str(span_path.relative_to(ROOT)), "extra": extra}


def provenance(seed: int) -> dict:
    def version(dist: str) -> str | None:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10, check=False)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_commit": commit, "src_sha256": digest.hexdigest(), "seed": seed,
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "mpmath": version("mpmath"),
            "nproc": os.cpu_count(), "cpu_model": cpu}


def _declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            deadline: float) -> dict:
    run = run_traced if trace else run_timed
    record = run(workload, seed, seconds, deadline)
    record.update(workload=workload, trace=int(trace), seconds=seconds,
                  provenance=provenance(seed))
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return record


#: names of the end-to-end metrics per workload, as the benchmark's docs use them
ALIASES = {
    "solve": {"op_p50_s": "solve_p50_s", "op_tail_s": "solve_tail_s"},
    "sweep": {"op_p50_s": "sweep_p50_s", "op_tail_s": "sweep_tail_s",
              "ops_per_s": "sweep_points_per_s"},
    "cli": {"cli_optimize_p50_s": "cli_optimize_p50_s",
            "cli_verify_p50_s": "cli_verify_p50_s"},
}


def main() -> int:
    ap = argparse.ArgumentParser(description="varsolid benchmark")
    ap.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _stop_workers)
    signal.signal(signal.SIGINT, _stop_workers)
    if not (ROOT / "src" / "varsolid" / "__init__.py").is_file():
        print(f"error: no varsolid source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    benchmark = _declared()
    seconds = args.seconds or benchmark["run_seconds"]
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    for extra_metric, unit in (("op_tail_s", "s"), ("measured_setup_s", "s"),
                               ("measured_p50_s", "s"),
                               ("measured_tail_s", "s"), ("ops_per_s", "1/s"),
                               ("cli_optimize_p50_s", "s"),
                               ("cli_verify_p50_s", "s"), ("oracle.max_margin", "ratio"),
                               ("oracle.checks_passed_ratio", "ratio"),
                               ("model.pair_energy.window.p50_us", "us")):
        units.setdefault(extra_metric, unit)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(workloads)
    attempted = failed = 0
    gates_held = True
    reported: dict[str, dict] = {}
    missing: list[str] = []
    for workload in workloads:
        record = run_one(workload, args.seed, seconds, bool(args.trace), deadline)
        attempted += record["attempted"]
        # a run-level gate (stdout across workers, counter repeat) can fail on
        # top of the operations it covers; it never makes failed exceed attempted
        failed += min(len(record["failures"]), record["attempted"])
        gates_held = gates_held and not record["failures"]
        for reason in record["failures"][:20]:
            print(f"[{workload}] FAILED {reason}")
        metrics = record.get("metrics", {})
        samples = {k: v for k, v in record.get("samples", {}).items()
                   if k not in ("op_s", "op_ref_s")}
        print(f"[{workload}] {record['attempted']} operations, "
              f"{len(record['failures'])} failed; {samples}")
        for name, value in sorted(metrics.items()):
            alias = ALIASES[workload].get(name, "")
            print(f"[{workload}] {name} = {value:.6g} {units.get(name, '')}"
                  + (f"  ({alias})" if alias else ""))
        for name, reason in sorted(record.get("absent", {}).items()):
            print(f"[{workload}] {name} absent: {reason}")
        missing += [f"{workload}:{m['name']}" for m in declared if m["name"] not in metrics]
        if len(workloads) == 1:  # exactly the metrics BENCHMARK.json declares
            reported.update({m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                             for m in declared if m["name"] in metrics})
        else:  # every metric, under the name the docs give it
            reported.update({ALIASES[workload].get(n, f"{workload}.{n}"):
                             {"value": v, "unit": units.get(n, "")}
                             for n, v in metrics.items()})
    for name in missing:
        print(f"no value for {name}")
    correct = gates_held
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
