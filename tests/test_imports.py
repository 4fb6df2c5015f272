"""The solver's own modules import no scipy; only the oracle battery does,
as the bare package, so that a process loads `scipy.integrate` when its
first quadrature runs and not before.  The package exposes no name that no
user path reaches."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import varsolid

PACKAGE = Path(varsolid.__file__).parent


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("module", ["model", "energy", "lattice", "optimize"])
def test_solver_module_imports_no_scipy(module):
    imported = list(_imported_modules(PACKAGE / f"{module}.py"))
    assert imported  # the walk sees the module's imports
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


def _scipy_imports(path):
    """(statement, at module level) of each import in `path` naming scipy."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            yield ast.unparse(node), node in tree.body


def test_only_oracle_imports_scipy_and_only_the_bare_package():
    # `from scipy import integrate` or `import scipy.integrate` at module
    # level would load scipy.integrate (~0.6 s) in every cold process;
    # scipy's module __getattr__ loads it at the first scipy.integrate.quad
    found = {path.stem: list(_scipy_imports(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem: imports for stem, imports in found.items() if imports} == {
        "oracle": [("import scipy", True)]}


#: what a cold process has loaded of scipy after `import varsolid.cli`,
#: after `optimize` and after `verify`, each command's stdout swallowed
_SCIPY_LOADED = """
import contextlib, io, json, sys
import varsolid, varsolid.cli as cli

def loaded():
    return [name for name in ("scipy", "scipy.integrate", "scipy.optimize",
                              "scipy.special") if name in sys.modules]

report = {"import": loaded()}
for command in ("optimize", "verify"):
    with contextlib.redirect_stdout(io.StringIO()):
        report[command + "_exit"] = cli.main([command])
    report[command] = loaded()
print(json.dumps(report))
"""


def test_only_verify_loads_scipy_integrate():
    # a child process: this one has imported scipy.integrate for the tests
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", _SCIPY_LOADED], capture_output=True,
                         text=True, timeout=120, env=env, check=False)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    # the benchmark's import contract: `import varsolid` loads scipy itself
    assert report["import"] == ["scipy"]
    assert report["optimize_exit"] == 0
    assert report["optimize"] == ["scipy"]
    assert report["verify_exit"] == 0
    assert "scipy.integrate" in report["verify"]


@pytest.mark.parametrize("name", ["branch_overlap", "orbital_overlap",
                                  "orbital_norm_constant"])
def test_deleted_names_are_not_public(name):
    # the branch-overlap bound was 0 for every spec SuperpositionSpec admits
    assert name not in varsolid.__all__
    assert not hasattr(varsolid, name)


@pytest.mark.parametrize("name", ["Cluster", "verify_com_on_cluster"])
def test_cluster_check_has_one_home(name):
    # the cluster Monte Carlo check is oracle.mc_com_variance, and a cluster
    # is the bare (N, 3) array that build_cluster returns
    assert name not in varsolid.__all__
    assert not hasattr(varsolid, name)
    assert "mc_com_variance" in varsolid.__all__


def test_observables_imports_neither_oracle_nor_lattice():
    tree = ast.parse((PACKAGE / "observables.py").read_text())
    relative = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert relative == {"units"}
