"""Every recorded output in one table, GOLDEN, and one comparator.

A record is a name, a zero-argument thunk returning JSON-like data (a library
call, a command's exit code and parsed stdout, a script's output), and the
first 16 hex digits of the sha256 of its `canonical` lines: `path=value`, a
dict in sorted key order, a list or array by index, a float as float.hex.
Parsed values are compared, not whitespace (C12 compares rerun bytes).  A
record named for a test id runs under it in that test's module
(`golden_test`), its old parameters and float.hex pins kept in the id;
test_golden runs the rest.  Every warning is an error.  When an output is
meant to move, copy the digest its failing test prints into GOLDEN, and say
in CHANGES.md why it moved.
"""

import contextlib
import hashlib
import io
import json
import runpy
import sys
import warnings
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from varsolid import (DEGENERACY_WINDOW, LatticeKind, OrbitalParams, TwoYukawaParams,
                      enumerate_shells, pair_energy, radial_transform_check, two_yukawa)
from varsolid.cli import main
from varsolid.model import FAR_LAM_S

POT = TwoYukawaParams()
#: the 133 shell distances of the default 12 d cutoff, at d = 1
UNIT_SHELLS = enumerate_shells(LatticeKind.FCC, 1.0, 12.0).distances_r
#: the separations of the float-branch lam-row records
LAM_ROW_S = [0.0, 5e-324, 0.3, 1.1, 3.0, 20.0, 60.0]


def in_window(lam, pot=POT):
    return min(abs(lam - pot.m) / pot.m, abs(lam - pot.n) / pot.n) < DEGENERACY_WINDOW


def kernel(lam, s, pot=POT, orders=(0,)):
    """pair_energy of each order, of the array s and of each entry alone."""
    p = OrbitalParams(lam)
    return {"window": in_window(lam, pot), "far": lam * max(s) > FAR_LAM_S,
            **{f"order{k}": {"array": pair_energy(p, pot, np.array(s), order=k),
                             "float": [pair_energy(p, pot, x, order=k) for x in s]}
               for k in orders}}


def cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return {"exit": code, "stdout": json.loads(out.getvalue())}


def superposition():
    Path("branches.json").write_text(
        '{"displacements": [[0, 0, 0], [3, 0, 0]], "weights": [0.6, 0.8], "cutoff_a": 1.5}')
    return cli("superposition", "--branches", "branches.json", "--lambda", "91.33", "--N", "1e21")


def script(name, *argv):
    """The stdout lines of scripts/name run in process, then the JSON it wrote, if any."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), mock.patch.object(sys, "argv", [name, *argv]):
        runpy.run_path(str(Path(__file__).parents[1] / "scripts" / name), run_name="__main__")
    return [out.getvalue().splitlines(), *(json.loads(Path(a).read_text())
                                          for a in argv if a.endswith(".json"))]


WINDOW, LAM_ROWS = ("test_pair_energy_window_values_are_recorded_bitwise",
                    "test_float_branch_lam_rows_are_recorded_bitwise")
FAR, SWEEP = "test_far_separation_keeps_its_core_terms", "test_window_sweep_stdout_is_recorded"

GOLDEN = {
    # in the window: exact coincidence with each exponent, a 1e-12 gap, s = 0,
    # and lam on either side of each exponent
    **{f"{WINDOW}[{lam}-{s}-{pinned}]": (partial(kernel, lam, [s]), digest)
       for lam, s, pinned, digest in [
           (2.69, 1.1, "0x1.324bd632e7bb4p+13", "580c2980d5304928"),
           (14.7, 1.1, "0x1.a967afc19c03dp+6", "c1815cf5c1354d94"),
           (2.6900000000026902, 1.1, "0x1.324bd632e97b1p+13", "9c4cd167fd654ff2"),
           (14.6999999999853, 1.1, "0x1.a967afc1ab9cap+6", "935c1a3162eec836"),
           (2.69, 0.0, "0x1.a2881d944f4fep+14", "6966194e95eaebd6"),
           (14.7, 0.0, "0x1.57e8a815a493ap+21", "c7219e4edfbe6d62"),
           (2.6900000000026902, 0.0, "0x1.a2881d94549a5p+14", "f19f5ad9132cc7fc"),
           (2.7707, 1.5556349186104048, "0x1.24242f9a77b63p+12", "3448fc8cc32ad36a"),
           (14.258999999999999, 0.5, "0x1.a2a8ea4f6dc84p+16", "48f364997cde4179"),
           (2.5824, 3.0, "0x1.33255f433558bp+8", "1cd3c87d6e003fee"),
           (15.288, 2.0, "-0x1.3d7664ebe58bcp-4", "4c8ff78150b47c59")]},
    # the 133 shells at d = 1.1 with lam 1% above n
    "test_pair_energy_window_shell_array_is_recorded_bitwise": (
        partial(kernel, 14.70 * 1.01, (UNIT_SHELLS * 1.1).tolist()), "36683808639f34cc"),
    # past FAR_LAM_S the core terms keep their bits: ~1/s at lam = 1e30, and
    # e^{-1e-20 s}/s for a small m
    f"{FAR}[1e+30-pot0-s0-recorded0]": (
        partial(kernel, 1e30, [1e-9, 1e-21], POT, (0, 1, 2)), "2913dd12414a9918"),
    f"{FAR}[2.0-pot1-s1-recorded1]": (partial(
        kernel, 2.0, [1e21, 1.0], TwoYukawaParams(m=1e-20), (0, 1, 2)), "821bd6ab92fcb8b6"),
    # on each core path of the float branch: lam below both exponents,
    # between them, general expm1 for both, both expm1 saturated, s = 0, a
    # subnormal s and the search box's corners, alone and among LAM_ROW_S
    **{f"{LAM_ROWS}[{lam}-{s}-{d1}-{d2}]": (
        partial(kernel, lam, [s, *LAM_ROW_S], POT, (1, 2)), digest)
       for lam, s, d1, d2, digest in [
           (2.0, 1.1, "0x1.6a1d57d534a13p+12", "0x1.87e448c29ee46p+7", "b210f05c46a3c5c1"),
           (2.0, 60.0, "-0x1.65adb7fd3667cp-142", "0x1.41338a88f501fp-136", "b7552685b8b77701"),
           (8.0, 1.1, "-0x1.004f3b2cc2a86p+11", "0x1.583c9777a643cp+9", "b2dd1b897d6fa454"),
           (30.0, 1.1, "-0x1.a94fe0f42c5abp-4", "0x1.622f32541ae79p-6", "1b371ec7237fd3b5"),
           (30.0, 3.0, "0x1.d22e2cf632694p-18", "-0x1.7f0535ffb97f0p-21", "2cbd7c8ffd1e3ddb"),
           (91.2, 1.1, "-0x1.044ea5f8625a0p-10", "0x1.2cee1e932f71ap-15", "7ee28f3d86e42fd4"),
           (91.2, 0.0, "0x1.4e7c638522e32p+20", "0x1.525bf87b48345p+11", "da5203d86b3e3ec2"),
           (1.0, 5e-324, "0x1.080a80a03e457p+12", "0x1.0617d9102b2b6p+13", "61fd416694015c29"),
           (91.2, 5e-324, "0x1.4e7c638522e32p+20", "0x1.525bf87b48345p+11", "da5203d86b3e3ec2"),
           (500.0, 0.3, "-0x1.616ef02b1e28fp+1", "0x1.1038351cb3d24p-6", "4979c9fbf7c0108f"),
           (1e6, 0.3, "-0x1.79dbe006fcac9p-32", "0x1.29290ac45ae31p-50", "74af03cf46b9d4e6"),
           (0.01, 20.0, "0x1.af15f5bf133c7p-2", "0x1.4d17d04267819p+6", "e3000e4a4deaf55b")]},
    # every pair energy of the default solve is on the float branch
    "test_default_optimize_stdout_is_recorded": (partial(cli, "optimize"), "7b492e42aa8df091"),
    # all in the window, 14.7 exactly on n; the ids keep the stdout sha256
    **{f"{SWEEP}[{lams}-{sha256}]": (partial(cli, "sweep", "--param", "lambda", "--range", lams),
                                     digest) for lams, digest, sha256 in [
        ("2.6:2.8:5", "daeed7cc2a546159",
         "bd87d8604771990c76e1ccc0318569f59a496e6933a940eb558197f4a02bf1d7"),
        ("14.0:15.4:5", "1c36b4457e86aa1e",
         "5a78e161c9a775bd6e6641afa2c447d66f2c1d3cac77bb55a8460dda36c442d4")]},
    "verify": (partial(cli, "verify"), "7e2f874c44a51148"),
    # a number k takes the scalar path of the radial transform, one
    # quadrature per k, whatever an array of them takes
    "radial_transform_check-scalar": (lambda: [
        radial_transform_check(lambda r: two_yukawa(r, POT), k)
        for k in (0.0, 0.05, 1.7, 31.6, 60.0)], "a8c004557de2db9b"),
    "sweep-lambda": (
        partial(cli, "sweep", "--param", "lambda", "--range", "1:500:9"), "4c05f979d1fc9e41"),
    "sweep-d": (partial(cli, "sweep", "--param", "d", "--range", "0.5:3:6"), "bcc72cc71ca6d437"),
    "selfgrav-boson": (partial(cli, "selfgrav", "--kind", "boson"), "6245f779bb6ce04b"),
    "selfgrav-fermion": (partial(cli, "selfgrav", "--kind", "fermion"), "3e239837ac0a649e"),
    "superposition": (superposition, "5a05364ea7341a2e"),
    "observables": (partial(cli, "observables", "--lambda", "91.33", "--N", "1e21", "--time",
                            "1e10", "--boost", "1,0,0"), "088927ffe71c3fcd"),
    "run_krypton_report": (
        partial(script, "run_krypton_report.py", "--json", "kr.json"), "bc8a08bf376c0051"),
    "scaling_report": (partial(script, "scaling_report.py"), "84a8df0f0626e0bd"),
}


def canonical(obj, path=""):
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return [line for key in sorted(obj) for line in canonical(obj[key], f"{path}.{key}")]
    if isinstance(obj, (list, tuple)):
        return [line for i, x in enumerate(obj) for line in canonical(x, f"{path}[{i}]")]
    return [f"{path}={obj.hex() if isinstance(obj, float) else repr(obj)}"]


def assert_golden(got, want):
    lines = canonical(got)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
    assert digest == want, "\n".join([*lines, f"digest {digest}"])


def check(name):
    thunk, want = GOLDEN[name]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = thunk()
    assert_golden(got, want)


def golden_test(test):
    """The test `test`: its GOLDEN records, parametrized by their ids if they have one."""
    def run(id):
        check(f"{test}[{id}]")

    def run_one():
        check(test)

    ids = [key[len(test) + 1:-1] for key in GOLDEN if key.startswith(f"{test}[")]
    return pytest.mark.parametrize("id", ids)(run) if ids else run_one


@pytest.mark.parametrize("name", [name for name in GOLDEN if not name.startswith("test_")])
def test_golden(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the records' files
    check(name)
