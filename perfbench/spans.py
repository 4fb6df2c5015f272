"""In-memory span tracer for the varsolid benchmark.

Spans are recorded from outside the package: each public function at a layer
boundary is replaced, in every `varsolid` module that binds it, by a wrapper
that opens a span on entry and closes it on return.  `from x import f`
copies `f` into the importing module, so a boundary is wrapped wherever the
same function object is found, not only in its home module.

A span is (name, start, end, parent span, operation id).  Spans live in
compact arrays while the run goes and are written out once at the end.  The
self time of a span is its duration minus the durations of its direct
children; spans nest on one thread, so children never overlap.
"""

from __future__ import annotations

import array
import contextlib
import functools
import gzip
import importlib
import json
import statistics
import sys
import time

#: oracle functions the `verify` command calls; each gets its own span
ORACLE_FUNCTIONS = (
    "radial_transform_check", "pair_energy_realspace_reference",
    "pair_energy_quadrature", "mc_pair_energy", "mc_momentum_axis_variance",
    "coulomb_self_energy_quadrature", "density_power_integral_quadrature",
)

#: (span name, home module, attribute) of every wrapped boundary
BOUNDARIES = (
    ("lattice.enumerate_shells", "varsolid.lattice", "enumerate_shells"),
    ("model.pair_energy", "varsolid.model", "pair_energy"),
    ("energy.energy_per_particle", "varsolid.energy", "energy_per_particle"),
    ("optimize.solve_solid", "varsolid.optimize", "solve_solid"),
    ("optimize.minimize_solid", "varsolid.optimize", "minimize_solid"),
    ("optimize.bulk_modulus", "varsolid.optimize", "bulk_modulus"),
    *((f"oracle.{fn}", "varsolid.oracle", fn) for fn in ORACLE_FUNCTIONS),
    ("cli.main", "varsolid.cli", "main"),
)

#: bindings that `from x import f` creates and that must carry the wrapper
REQUIRED_BINDINGS = (
    ("varsolid.energy", "pair_energy"),
    ("varsolid.optimize", "energy_per_particle"),
    ("varsolid.cli", "pair_energy"),
    *(("varsolid.oracle", fn) for fn in ORACLE_FUNCTIONS),
)

#: operation ids at or above this mark belong to the repeat pass of the
#: counter prefix; they are compared, never timed
REPEAT_OFFSET = 1_000_000

_OPTIMIZE_PHASES = ("optimize.minimize_solid", "optimize.bulk_modulus")


class Tracer:
    """Span and counter store for one process; `op` tags every span."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.op = array.array("i")
        self._stack = [-1]
        self.op_id = -1
        self.counts: dict[tuple[int, str], int] = {}
        self.absent: dict[str, str] = {}
        self.wrapped: dict[tuple[str, str], str] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, value: int) -> None:
        k = (self.op_id, key)
        self.counts[k] = self.counts.get(k, 0) + value

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """One workload operation, as the root span of everything it calls."""
        self.op_id = op_id
        idx = self.open(self.name_id("op"))
        try:
            yield
        finally:
            self.close(idx)
            self.op_id = -1

    def write(self, path: str) -> None:
        """Spans as one gzipped JSON document of parallel columns."""
        columns = (("name", self.name), ("start_ns", self.start),
                   ("end_ns", self.end), ("parent", self.parent), ("op", self.op))
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write('{"names":' + json.dumps(self.names))
            for key, column in columns:  # in chunks: a list of every span is large
                fh.write(f',"{key}":[')
                for i in range(0, len(column), 1 << 16):
                    fh.write(("," if i else "") + ",".join(map(str, column[i:i + (1 << 16)])))
                fh.write("]")
            fh.write("}")


def _pair_energy_wrapper(tracer: Tracer, fn, window: float):
    """Span per pair-energy call, named by the branch its arguments select."""
    float_id = tracer.name_id("model.pair_energy.float")
    window_id = tracer.name_id("model.pair_energy.window")
    last = [None, None, float_id]  # potential, lam, span id: lam repeats per shell sum

    @functools.wraps(fn)
    def wrapper(p, pot, *rest, **kwargs):
        if p.lam != last[1] or pot is not last[0]:
            am, an = pot.m / pot.sigma, pot.n / pot.sigma
            gap = min(abs(p.lam - am) / am, abs(p.lam - an) / an)
            last[:] = [pot, p.lam, window_id if gap < window else float_id]
        idx = tracer.open(last[2])
        try:
            return fn(p, pot, *rest, **kwargs)
        finally:
            tracer.close(idx)
    return wrapper


def _span_wrapper(tracer: Tracer, name: str, fn, before=None, after=None):
    """Span per call; `before` sees the arguments and `after` the result."""
    span_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before:
            before(*args, **kwargs)
        idx = tracer.open(span_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after:
            after(result)
        return result
    return wrapper


def _wrapper(tracer: Tracer, name: str, fn, window: float):
    if name == "model.pair_energy":
        return _pair_energy_wrapper(tracer, fn, window)
    if name == "energy.energy_per_particle":
        return _span_wrapper(tracer, name, fn, before=lambda p, pot, shells, *_, **__:
                             tracer.count("lattice.shells_summed", len(shells.shells)))
    if name == "optimize.minimize_solid":
        return _span_wrapper(tracer, name, fn, after=lambda sol: tracer.count(
            "optimize.minimize_solid.iterations", sol.iterations))
    return _span_wrapper(tracer, name, fn)


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every boundary in every loaded varsolid module.

    Returns the replaced bindings so `uninstall` can restore them.  A
    boundary whose home module or function is gone is recorded in
    `tracer.absent` and left alone.
    """
    found = []
    for name, home, attr in BOUNDARIES:  # import every home before scanning
        try:
            found.append((name, getattr(importlib.import_module(home), attr)))
        except (ImportError, AttributeError):
            tracer.absent[name] = f"{home}.{attr} does not exist"
    window = getattr(sys.modules["varsolid.model"], "DEGENERACY_WINDOW", None)
    replaced = []
    for name, fn in found:
        if name == "model.pair_energy" and window is None:
            tracer.absent[name] = "varsolid.model.DEGENERACY_WINDOW does not exist"
            continue
        wrapper = _wrapper(tracer, name, fn, window)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "varsolid" and not mod_name.startswith("varsolid."):
                continue
            for binding, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, binding, wrapper)
                    replaced.append((mod, binding, fn))
                    tracer.wrapped[(mod_name, binding)] = name
    for mod_name, binding in REQUIRED_BINDINGS:
        if (mod_name, binding) not in tracer.wrapped and mod_name in sys.modules \
                and hasattr(sys.modules[mod_name], binding):
            raise RuntimeError(f"{mod_name}.{binding} was not wrapped")
    return replaced


def uninstall(replaced: list[tuple[object, str, object]]) -> None:
    for mod, binding, fn in replaced:
        setattr(mod, binding, fn)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

def _columns(tracer: Tracer):
    """Zero-copy numpy views of the span arrays (name, start, end, parent, op)."""
    import numpy as np
    return (np.frombuffer(tracer.name, dtype=np.int32),
            np.frombuffer(tracer.start, dtype=np.int64),
            np.frombuffer(tracer.end, dtype=np.int64),
            np.frombuffer(tracer.parent, dtype=np.int32),
            np.frombuffer(tracer.op, dtype=np.int32))


def exact_counters(tracer: Tracer, ops: range) -> dict[str, int]:
    """Integer counters over the given operations; these must repeat exactly."""
    import numpy as np
    name, _, _, parent, op = _columns(tracer)
    mask = (op >= ops.start) & (op < ops.stop)
    calls = np.bincount(name[mask], minlength=len(tracer.names))
    out = {f"{n}.calls": int(c) for n, c in zip(tracer.names, calls) if c}
    phase_ids = {tracer.name_id(n): n for n in _OPTIMIZE_PHASES}
    energy_id = tracer.name_id("energy.energy_per_particle")
    for i in np.flatnonzero(mask & (name == energy_id)):
        par = parent[i]
        while par >= 0 and name[par] not in phase_ids:
            par = parent[par]
        if par >= 0:
            key = phase_ids[int(name[par])] + ".evals"
            out[key] = out.get(key, 0) + 1
    for (k, key), value in tracer.counts.items():
        if k in ops:
            out[key] = out.get(key, 0) + value
    return out


def layer_metrics(tracer: Tracer, prefix: int) -> tuple[dict[str, float], dict[str, str]]:
    """Per-layer metrics of one traced run, and the reason for each absent one.

    Counts are per workload operation over the first `prefix` operations,
    which every traced run of every seed makes identically.  Times are per
    operation over all timed traced operations.
    """
    import numpy as np
    counters = exact_counters(tracer, range(prefix))
    name, start, end, parent, op = _columns(tracer)
    dur = end - start
    has_parent = parent >= 0
    own = dur - np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
    timed = (op >= 0) & (op < REPEAT_OFFSET)
    n_ops = len(np.unique(op[timed]))
    n_names = len(tracer.names)
    self_ns = dict(zip(tracer.names, np.bincount(name[timed], weights=own[timed],
                                                 minlength=n_names)))
    total_ns = dict(zip(tracer.names, np.bincount(name[timed], weights=dur[timed],
                                                  minlength=n_names)))

    metrics: dict[str, float] = {}
    absent: dict[str, str] = {}

    def per_op_count(metric: str, key: str, boundary: str) -> None:
        if boundary in tracer.absent:
            absent[metric] = tracer.absent[boundary]
        else:
            metrics[metric] = counters.get(key, 0) / prefix

    def per_op_seconds(metric: str, table: dict[str, int], names: tuple[str, ...],
                       boundary: str) -> None:
        if boundary in tracer.absent:
            absent[metric] = tracer.absent[boundary]
        else:
            metrics[metric] = float(sum(table.get(n, 0) for n in names)) / n_ops / 1e9

    def median_of(metric: str, span: str, scale: float, boundary: str) -> None:
        if boundary in tracer.absent:
            absent[metric] = tracer.absent[boundary]
        else:
            sample = dur[timed & (name == tracer.name_id(span))]
            if sample.size:
                metrics[metric] = float(np.median(sample)) / scale
            else:
                absent[metric] = f"no {span} call on this workload"

    lat = "lattice.enumerate_shells"
    per_op_count(f"{lat}.calls", f"{lat}.calls", lat)
    per_op_seconds(f"{lat}.self_s", self_ns, (lat,), lat)
    energy = "energy.energy_per_particle"
    evals = counters.get(f"{energy}.calls", 0)
    if energy in tracer.absent:
        absent["lattice.shells_per_eval"] = tracer.absent[energy]
    elif evals:
        metrics["lattice.shells_per_eval"] = counters["lattice.shells_summed"] / evals
    else:
        absent["lattice.shells_per_eval"] = "no energy evaluation on this workload"

    for branch in ("float", "window"):
        span = f"model.pair_energy.{branch}"
        per_op_count(f"{span}.calls", f"{span}.calls", "model.pair_energy")
        per_op_seconds(f"{span}.self_s", self_ns, (span,), "model.pair_energy")
        median_of(f"{span}.p50_us", span, 1e3, "model.pair_energy")

    per_op_count(f"{energy}.calls", f"{energy}.calls", energy)
    per_op_seconds(f"{energy}.self_s", self_ns, (energy,), energy)
    median_of(f"{energy}.p50_s", energy, 1e9, energy)

    for phase in _OPTIMIZE_PHASES:
        per_op_seconds(f"{phase}.s", total_ns, (phase,), phase)
        per_op_count(f"{phase}.evals", f"{phase}.evals", phase)
    per_op_count("optimize.minimize_solid.iterations",
                 "optimize.minimize_solid.iterations", "optimize.minimize_solid")
    per_op_seconds("optimize.self_s", self_ns,
                   ("optimize.solve_solid",) + _OPTIMIZE_PHASES,
                   "optimize.minimize_solid")

    for fn in ORACLE_FUNCTIONS:
        span = f"oracle.{fn}"
        per_op_count(f"{span}.calls", f"{span}.calls", span)
        per_op_seconds(f"{span}.self_s", self_ns, (span,), span)
    per_op_seconds("cli.main.s", total_ns, ("cli.main",), "cli.main")
    return metrics, absent


def import_profile(stderr: str) -> dict[str, float]:
    """Self import time in seconds, summed by top-level package.

    Parses `python -X importtime` lines: `import time: self | cumulative | name`.
    """
    by_package: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header line
        top = fields[2].strip().split(".")[0]
        by_package[top] = by_package.get(top, 0.0) + int(fields[0]) / 1e6
    return by_package


def median_import_metrics(profiles: list[dict[str, float]]) -> tuple[dict[str, float], dict[str, str]]:
    metrics: dict[str, float] = {}
    absent: dict[str, str] = {}
    metrics["import.total_s"] = statistics.median(sum(p.values()) for p in profiles)
    for package, metric in (("scipy", "import.scipy_s"), ("mpmath", "import.mpmath_s"),
                            ("numpy", "import.numpy_s"),
                            ("varsolid", "import.varsolid_self_s")):
        if all(package in p for p in profiles):
            metrics[metric] = statistics.median(p[package] for p in profiles)
        else:
            absent[metric] = f"{package} is not imported"
    return metrics, absent
