"""Command-line interface: config handling, exit codes, determinism, and
format guarantees (bit-exact JSON round trips, 17-digit CSV floats)."""

import csv
import dataclasses
import gc
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import varsolid
from varsolid import OptimizeOptions, TwoYukawaParams, make_krypton_units
from varsolid.cli import (EXIT_CONVERGENCE, EXIT_INPUT, EXIT_OK,
                          CliInputError, RunConfig, main)
from test_golden import golden_test


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

def test_default_config_is_krypton():
    cfg = RunConfig()
    assert cfg.b == 2.026 and cfg.m == 2.69 and cfg.n == 14.70
    assert cfg.epsilon_K == 170.0 and cfg.sigma_angstrom == 3.6
    assert cfg.mass_u == pytest.approx(83.798)
    assert cfg.units().coupling == pytest.approx(2.6274373245919075e-4,
                                                 rel=1e-12)
    # the defaults have one home, the library objects
    assert cfg.potential() == TwoYukawaParams()
    assert cfg.optimizer_options() == OptimizeOptions()
    assert cfg.units() == make_krypton_units()


def test_config_rejects_unknown_keys(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"lambda_initial": 3.0}))
    with pytest.raises(CliInputError):
        RunConfig.from_file(str(p))


#: a branch file whose displacements once overflowed the mixture variance,
#: caught only by the JSON writer
HUGE_BRANCHES = {"displacements": [[0, 0, 0], [1e300, 0, 0]],
                 "weights": [0.7071067811865476, 0.7071067811865476],
                 "cutoff_a": 1.0}
#: a weight [re] without its imaginary part; once a raw IndexError
SHORT_WEIGHT_BRANCHES = {"displacements": [[0, 0, 0]], "weights": [[1]], "cutoff_a": 1.0}
#: a weight whose square overflows float64
HUGE_WEIGHT_BRANCHES = {"displacements": [[0, 0, 0]], "weights": [1e300], "cutoff_a": 1.0}


def _with_branch_files(argv, tmp_path):
    """argv with every dict written to a branch file and replaced by its path."""
    out = []
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            path = tmp_path / f"branches{i}.json"
            path.write_text(json.dumps(arg))
            arg = str(path)
        out.append(arg)
    return out


#: configs that were once accepted, or escaped as a raw traceback
FAIL_OPEN_CONFIGS = ({"shell_cutoff_factor": math.inf}, {"relaxed_bulk": "no"},
                     {"max_iter": 2.5}, {"b": math.nan}, {"m": 800, "n": 900},
                     {"lambda_init": 1e300})


def test_config_rejects_bad_values(tmp_path):
    for field, value in (("b", -1.0), ("shell_cutoff_factor", math.inf),
                         ("shell_cutoff_factor", 41.0), ("d_init", True),
                         ("b", math.nan), ("m", "2.69"), ("n", None),
                         ("mass_u", [2.5]), ("sigma_angstrom", 1e308),
                         ("lambda_init", 10**400)):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({field: value}))
        with pytest.raises(CliInputError):
            RunConfig.from_file(str(p))


@pytest.mark.parametrize("key, value", [("relaxed_bulk", True),
                                        ("fd_step_rel", 0.01),
                                        ("param_tol", 1e-7),
                                        ("quad_rtol", 1e-10),
                                        ("mc_samples", 200_000),
                                        ("seed", 20260815),
                                        ("n_list", [100, 10_000, 1_000_000]),
                                        ("max_iter", 600),
                                        ("shell_cutoff_factor", 12.0)])
def test_removed_config_keys_exit_1(tmp_path, capsys, key, value):
    # the solver tolerances, the iteration cap, the stencil step, the shell
    # cutoff and the verify seed and budgets are constants now, the
    # selfgrav N list is a flag, and the bulk modulus is always the relaxed
    # one: even the old defaults are refused
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    assert run_cli("--config", str(cfg), "optimize") == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: unknown config keys")
    assert key in err


def test_config_ints_widen_to_float_fields(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"lambda_init": 80, "d_init": 1}))
    cfg = RunConfig.from_file(str(p))
    assert type(cfg.lambda_init) is float and cfg.lambda_init == 80.0
    assert type(cfg.d_init) is float and cfg.d_init == 1.0


@pytest.mark.parametrize("bad", FAIL_OPEN_CONFIGS)
def test_fail_open_config_exits_1_with_no_output(tmp_path, capsys, bad):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(bad))
    for command in (("optimize",), ("sweep", "--param", "d", "--range", "1:2:2")):
        assert run_cli("--config", str(cfg), *command) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error:")


def _has_annotated_types(cfg):
    # every RunConfig field is a float
    return all(f.type == "float" and type(value := getattr(cfg, f.name)) is float
               and math.isfinite(value) for f in dataclasses.fields(cfg))


_CONFIG_KEYS = [f.name for f in dataclasses.fields(RunConfig)] + ["lambda_initial"]
_JSON_VALUES = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=True, allow_infinity=True)
                | st.sampled_from([1e308, -1e308, math.nan, math.inf])
                | st.text(max_size=5)
                | st.lists(st.integers(-5, 10**7) | st.floats() | st.text(max_size=2),
                           max_size=4))


@given(raw=st.dictionaries(st.sampled_from(_CONFIG_KEYS), _JSON_VALUES, max_size=4))
@example(raw=FAIL_OPEN_CONFIGS[0])
@example(raw=FAIL_OPEN_CONFIGS[1])
@example(raw=FAIL_OPEN_CONFIGS[2])
@example(raw=FAIL_OPEN_CONFIGS[3])
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_config_boundary_fuzz(tmp_path, raw):
    # any JSON object gives a well-typed RunConfig or a CliInputError
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(raw))
    try:
        cfg = RunConfig.from_file(str(p))
    except CliInputError:
        return
    assert _has_annotated_types(cfg), cfg


def test_config_partial_override(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"lambda_init": 80.0, "d_init": 1.2}))
    cfg = RunConfig.from_file(str(p))
    assert cfg.lambda_init == 80.0
    assert cfg.d_init == 1.2
    assert cfg.b == 2.026  # defaults retained


def test_malformed_json_exits_1(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text("{not json")
    assert run_cli("--config", str(p), "observables", "--lambda", "5",
                   "--N", "10") == EXIT_INPUT


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------

def test_unknown_command_exits_1(capsys):
    assert run_cli("frobnicate") == EXIT_INPUT
    assert "input error" in capsys.readouterr().err


def test_missing_arguments_exit_1():
    assert run_cli("observables") == EXIT_INPUT
    assert run_cli("observables", "--lambda", "5") == EXIT_INPUT
    assert run_cli("sweep", "--param", "lambda", "--range", "bogus") == EXIT_INPUT
    assert run_cli("selfgrav", "--kind", "boson", "--N-list", "1") == EXIT_INPUT


@pytest.mark.parametrize("argv", [("sweep", "--param", "x", "--range", "1:2:2"),
                                  ("selfgrav", "--kind", "x")])
def test_argparse_refuses_a_fixed_choice_it_does_not_list(argv, capsys):
    assert run_cli(*argv) == EXIT_INPUT
    assert "invalid choice: 'x'" in capsys.readouterr().err


def test_successful_observables_exits_0(tmp_path, capsys):
    out = tmp_path / "obs.json"
    code = run_cli("--output", str(out), "observables",
                   "--lambda", "91.33", "--N", "1e21")
    assert code == EXIT_OK
    payload = read_json(out)
    assert payload["product_hbar"] == pytest.approx(1.0 / math.sqrt(3.0),
                                                    abs=1e-12)
    assert payload["chi_sigma2"] == pytest.approx(4.0 / (91.33**2 * 1e21),
                                                  rel=1e-12)


@pytest.mark.parametrize("argv", [
    ("observables", "--lambda", "nan", "--N", "10"),
    ("observables", "--lambda", "inf", "--N", "10"),
    ("selfgrav", "--kind", "boson", "--kappa", "nan", "--N-list", "2,3"),
    ("sweep", "--param", "lambda", "--range", "1:inf:3"),
    ("selfgrav", "--kind", "fermion", "--kappa", "-1"),
    ("sweep", "--param", "lambda", "--range", "1:1e300:3"),
    ("sweep", "--param", "d", "--range", "0.2:2:3"),
    # lam^2 N underflows to 0 (once a ZeroDivisionError traceback) or
    # overflows to infinity (once caught only by the JSON writer)
    ("observables", "--lambda", "1e-200", "--N", "3"),
    ("observables", "--lambda", "1e300", "--N", "3"),
    # a boost or a time whose result is not finite
    ("observables", "--lambda", "1e6", "--N", "3", "--boost", "nan,1,1"),
    ("observables", "--lambda", "1", "--N", "1e300", "--boost", "1e300,0,0"),
    ("observables", "--lambda", "1", "--N", "1e300", "--time", "1e300"),
    ("observables", "--lambda", "1", "--N", "3", "--time", "inf"),
    # displacements whose squares overflow
    ("superposition", "--branches", HUGE_BRANCHES, "--lambda", "50", "--N", "100"),
    ("superposition", "--branches", SHORT_WEIGHT_BRANCHES, "--lambda", "50", "--N", "100"),
])
def test_non_finite_or_rejected_input_exits_1_with_no_output(argv, capsys, tmp_path):
    # no NaN/Infinity reaches stdout and no ValueError escapes as a traceback
    assert run_cli(*_with_branch_files(argv, tmp_path)) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error:")


def test_unbound_system_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mass_u": 8.3798e-11}))
    assert run_cli("--config", str(cfg), "optimize") == EXIT_CONVERGENCE
    assert "convergence failure" in capsys.readouterr().err


def test_minimum_on_the_box_edge_exits_2(tmp_path, capsys):
    # b = 1e300 drives lam* to the 1e6 wall; it was once reported as the
    # optimum, and its energy overflowed in the unit conversions
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"b": 1e300}))
    assert run_cli("--config", str(cfg), "optimize") == EXIT_CONVERGENCE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("convergence failure: the minimum lies on the edge "
                          "of the search box")


def test_small_lambda_config_fails_closed(tmp_path, capsys):
    # lam below both potential exponents: the pair energy once overflowed
    # e^{(alpha - lam) s} at the far shells and ended in a raw traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lambda_init": 1.0}))
    assert run_cli("--config", str(cfg), "optimize") == EXIT_CONVERGENCE
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("convergence failure:")
    assert run_cli("--config", str(cfg), "sweep", "--param", "d",
                   "--range", "4:5:2") == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["d_sigma"] for row in rows] == [4.0, 5.0]
    assert all(math.isfinite(row["u_epsilon"]) for row in rows)


def test_unwritable_output_exits_1(tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    assert run_cli("--output", str(target), "observables",
                   "--lambda", "5", "--N", "3") == EXIT_INPUT


# ----------------------------------------------------------------------
# output formats
# ----------------------------------------------------------------------

def test_json_round_trip_bit_exact(tmp_path):
    out = tmp_path / "obs.json"
    run_cli("--output", str(out), "observables", "--lambda", "91.33",
            "--N", "1e6", "--time", "3.5")
    text = out.read_text()
    payload = json.loads(text)
    # serializing the parsed payload reproduces the file byte-for-byte
    assert json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
    # and the floats inside are full precision
    chi = 4.0 / (91.33**2 * 1e6)
    assert payload["chi_sigma2"] == chi


def test_deterministic_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code = run_cli("--output", str(path), "selfgrav", "--kind", "fermion",
                       "--N-list", "4,64,4096")
        assert code == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_csv_has_full_precision(tmp_path):
    out = tmp_path / "sweep.json"
    table = tmp_path / "sweep.csv"
    code = run_cli("--output", str(out), "sweep", "--param", "d",
                   "--range", "1.05:1.15:3", "--csv", str(table))
    assert code == EXIT_OK
    payload = read_json(out)
    with open(table, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 == len(payload["rows"])
    for got, want in zip(rows, payload["rows"]):
        # 17 significant digits survive the round trip exactly
        assert float(got["u_epsilon"]) == want["u_epsilon"]
        assert float(got["d_sigma"]) == want["d_sigma"]


test_window_sweep_stdout_is_recorded = golden_test("test_window_sweep_stdout_is_recorded")


test_default_optimize_stdout_is_recorded = golden_test("test_default_optimize_stdout_is_recorded")


def test_selfgrav_default_n_list(capsys):
    assert run_cli("selfgrav", "--kind", "boson") == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["N"] for r in rows] == [100, 10_000, 1_000_000]


def test_selfgrav_boson_chi_column_decreases(tmp_path):
    out = tmp_path / "sg.json"
    run_cli("--output", str(out), "selfgrav", "--kind", "boson",
            "--N-list", "10,100,1000")
    rows = read_json(out)["rows"]
    chis = [r["chi"] for r in rows]
    assert chis == sorted(chis, reverse=True)
    # ~1/N^3 over a decade once N is large
    assert chis[1] / chis[2] == pytest.approx(1000.0, rel=0.05)


def test_superposition_command(tmp_path):
    branches = tmp_path / "branches.json"
    branches.write_text(json.dumps({
        "displacements": [[0.0, 0.0, 0.0], [5.0, 0.0, 0.0]],
        "weights": [[math.sqrt(0.5), 0.0], [math.sqrt(0.5), 0.0]],
        "cutoff_a": 1.0,
    }))
    out = tmp_path / "sup.json"
    code = run_cli("--output", str(out), "superposition", "--branches",
                   str(branches), "--lambda", "91.33", "--N", "1e6")
    assert code == EXIT_OK
    payload = read_json(out)
    assert set(payload) == {"N", "branches", "intrinsic_chi_sigma2",
                            "lambda_per_sigma", "min_separation_sigma",
                            "variance_sigma2"}
    assert payload["min_separation_sigma"] == 5.0
    chi = 4.0 / (91.33**2 * 1e6)
    assert payload["variance_sigma2"][0] == pytest.approx(chi + 25.0 / 4.0,
                                                          rel=1e-12)


@pytest.mark.parametrize("lam", ["1e-200", "1e300"])
def test_superposition_rejects_lambda_out_of_range(tmp_path, capsys, lam):
    # shares com_statistics with `observables`, so lam^2 N fails closed here too
    branches = tmp_path / "branches.json"
    branches.write_text(json.dumps({"displacements": [[0.0, 0.0, 0.0]],
                                    "weights": [1.0], "cutoff_a": 1.0}))
    assert run_cli("superposition", "--branches", str(branches),
                   "--lambda", lam, "--N", "3") == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: lam=")


def test_superposition_names_huge_displacements(tmp_path, capsys, recwarn):
    # once an overflow in the mixture variance, with numpy warnings, caught
    # only by the JSON writer
    argv = _with_branch_files(["superposition", "--branches", HUGE_BRANCHES,
                               "--lambda", "50", "--N", "100"], tmp_path)
    assert run_cli(*argv) == EXIT_INPUT
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("input error: bad superposition spec: displacements "
                          "must be finite")
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_superposition_rejects_overlapping_branches(tmp_path):
    branches = tmp_path / "branches.json"
    branches.write_text(json.dumps({
        "displacements": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        "weights": [[math.sqrt(0.5), 0.0], [math.sqrt(0.5), 0.0]],
        "cutoff_a": 1.0,
    }))
    assert run_cli("superposition", "--branches", str(branches),
                   "--lambda", "50", "--N", "100") == EXIT_INPUT


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    """One `verify --csv` run (about a second), shared by the tests below."""
    tmp = tmp_path_factory.mktemp("verify")
    out, table = tmp / "verify.json", tmp / "verify.csv"
    code = run_cli("--output", str(out), "verify", "--csv", str(table))
    return code, read_json(out), table


def test_verify_battery_passes(verify_run):
    code, payload, _ = verify_run
    assert code == EXIT_OK
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 15
    for check in payload["checks"]:
        assert check["passed"], check["check"]
        assert check["error"] <= check["tolerance"]
    # the self-gravity optima are quadratics' vertices, pinned to rounding
    vertex = [c for c in payload["checks"] if c["check"].endswith("vs parabola vertex")]
    assert [c["tolerance"] for c in vertex] == [1e-12, 1e-12]
    # the paper's CoM law, by Monte Carlo on an explicit 201-site cluster
    [com] = [c for c in payload["checks"] if c["check"].startswith("CoM variance")]
    assert com["check"] == "CoM variance 4/(lam^2 N), 201-site FCC cluster"
    assert com["reference"] == pytest.approx(4.0 / (91.33**2 * 201), rel=1e-15)
    assert (com["tolerance"], com["unit"]) == (4.0, "standard errors")


def test_verify_csv_has_the_documented_columns(verify_run):
    # the CSV header once came from the first row, so the `unit` key of a
    # later row aborted the write with exit 1
    code, payload, table = verify_run
    assert code == EXIT_OK
    with open(table, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    assert header == ["check", "value", "reference", "error", "tolerance",
                      "passed"]
    assert len(rows) == len(payload["checks"])
    for row, check in zip(rows, payload["checks"]):
        assert row[0] == check["check"]
        assert float(row[3]) == check["error"]


def test_optimize_payload_fields(tmp_path):
    # the numerical quality of the optimum itself is covered in
    # test_optimize and test_acceptance
    out = tmp_path / "opt.json"
    code = run_cli("--output", str(out), "optimize")
    assert code == EXIT_OK
    payload = read_json(out)
    assert payload["d_star_angstrom"] == pytest.approx(3.953, rel=0.005)
    assert payload["u_cal_per_mole"] == pytest.approx(-2690.0, rel=0.01)
    assert payload["bulk_modulus_kbar"] == pytest.approx(33.4, rel=0.05)
    assert payload["experiment_reference"] == {
        "d_angstrom": 3.992, "u_cal_per_mole": -2666.0,
        "bulk_modulus_kbar": 34.3}
    assert payload["same_site_W_over_potential"] > 1e6
    assert 0 < payload["bulk_n_evaluations"] <= 24


# ----------------------------------------------------------------------
# the process entry point
# ----------------------------------------------------------------------

def cold(*argv):
    """A fresh interpreter running `python *argv` on this source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(varsolid.__file__).parents[1])}
    return subprocess.run([sys.executable, *argv], capture_output=True, timeout=120,
                          env=env, check=False)


@pytest.mark.parametrize("command", ["optimize", "verify"])
def test_main_leaves_the_collector_alone(command, capsys):
    # tests, library callers and the traced benchmark run main in process
    frozen = gc.get_freeze_count()
    assert run_cli(command) == EXIT_OK
    assert gc.get_freeze_count() == frozen


def test_entry_freezes_the_imports_in_its_own_process():
    run = cold("-c", "import gc, sys\n"
                     "from varsolid.__main__ import entry\n"
                     "sys.argv = ['varsolid', 'optimize']\n"
                     "print(entry(), gc.get_freeze_count() > 0, file=sys.stderr)")
    assert run.returncode == 0, run.stderr
    assert run.stderr.decode().split() == ["0", "True"]


def test_python_m_varsolid_prints_what_main_prints(capsys):
    run = cold("-m", "varsolid", "optimize")
    assert run.returncode == EXIT_OK, run.stderr
    assert run_cli("optimize") == EXIT_OK
    assert run.stdout == capsys.readouterr().out.encode()


# ----------------------------------------------------------------------
# whole-CLI fuzz
# ----------------------------------------------------------------------

#: edge values: zero, tiny, negative, huge finite, non-finite, and wrong types
_EDGE_JSON = st.sampled_from([0, 1e-300, -1, -2.5, 1e300, -1e300, math.nan,
                              math.inf, -math.inf, "x", None, True, [1]])
_EDGE_ARG = (st.sampled_from(["0", "1e-300", "-1", "-2.5", "1e300", "nan",
                              "inf", "-inf", "x", ""])
             | st.sampled_from(["1", "2", "3", "91.33", "1e6"]))


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _argv_strategy():
    sweep_range = st.tuples(_EDGE_ARG | st.sampled_from(["1", "2.6", "14.0"]),
                            _EDGE_ARG | st.sampled_from(["1.2", "2.8", "15.4"]),
                            st.integers(-1, 5)).map(lambda t: f"{t[0]}:{t[1]}:{t[2]}")
    optimize = st.just(["optimize"])
    sweep = st.tuples(st.sampled_from(["lambda", "d", "x"]), sweep_range).map(
        lambda t: ["sweep", "--param", t[0], "--range", t[1]])
    observables = st.tuples(_EDGE_ARG, _EDGE_ARG,
                            st.none() | _EDGE_ARG,
                            st.none() | st.lists(_EDGE_ARG, min_size=3, max_size=3)).map(
        lambda t: (["observables", "--lambda", t[0], "--N", t[1]]
                   + ([] if t[2] is None else ["--time", t[2]])
                   + ([] if t[3] is None else ["--boost", ",".join(t[3])])))
    selfgrav = st.tuples(st.sampled_from(["boson", "fermion"]),
                         st.lists(_EDGE_ARG, min_size=1, max_size=3),
                         _EDGE_ARG, _EDGE_ARG, _EDGE_ARG, _EDGE_ARG).map(
        lambda t: ["selfgrav", "--kind", t[0], "--N-list", ",".join(t[1]),
                   "--kappa", t[2], "--mu", t[3], "--q", t[4], "--e-coeff", t[5]])
    branches = st.fixed_dictionaries({
        "displacements": st.lists(st.lists(_EDGE_JSON | st.sampled_from([0.0, 2.5, 1e150]),
                                           min_size=3, max_size=3),
                                  min_size=1, max_size=3),
        "weights": st.lists(_EDGE_JSON | st.sampled_from([0.7071067811865476, 1.0]),
                            min_size=1, max_size=3),
        "cutoff_a": _EDGE_JSON | st.just(1.0)})
    superposition = st.tuples(branches, _EDGE_ARG, _EDGE_ARG).map(
        lambda t: ["superposition", "--branches", t[0], "--lambda", t[1], "--N", t[2]])
    return optimize | sweep | observables | selfgrav | superposition


@given(argv=_argv_strategy(),
       raw=st.dictionaries(st.sampled_from(_CONFIG_KEYS), _EDGE_JSON, max_size=2))
@example(argv=["optimize"], raw={"m": 800, "n": 900})
@example(argv=["sweep", "--param", "d", "--range", "1:2:2"], raw={"m": 800, "n": 900})
@example(argv=["optimize"], raw={"lambda_init": 1e300})
@example(argv=["sweep", "--param", "d", "--range", "1:2:2"], raw={"lambda_init": 1e300})
@example(argv=["sweep", "--param", "lambda", "--range", "1:1e300:3"], raw={})
@example(argv=["sweep", "--param", "lambda", "--range", "14.0:15.4:5"], raw={})
@example(argv=["observables", "--lambda", "1e-200", "--N", "3"], raw={})
@example(argv=["optimize"], raw={"b": 1e300})
@example(argv=["superposition", "--branches", HUGE_BRANCHES, "--lambda", "50", "--N", "100"],
         raw={})
@example(argv=["superposition", "--branches", SHORT_WEIGHT_BRANCHES, "--lambda", "0", "--N", "0"],
         raw={})
@example(argv=["superposition", "--branches", HUGE_WEIGHT_BRANCHES, "--lambda", "0", "--N", "0"],
         raw={})
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_main_fuzz(tmp_path, capsys, argv, raw):
    # whatever the argv, config and branch file: a documented exit code, no
    # exception, and stdout either empty or strict JSON
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(raw))
    capsys.readouterr()
    code = main(["--config", str(cfg), *_with_branch_files(argv, tmp_path)])
    out, _ = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if out:
        json.loads(out, parse_constant=_reject_constant)
