"""The solver's own modules import no scipy; only the oracle battery does,
as the bare package, and no command loads a scipy submodule: every
quadrature goes through `oracle._quad`'s numpy rules.  concurrent.futures
loads at the first Monte Carlo estimate only.  The package exposes no name
that no user path reaches."""

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
    # level would load scipy.integrate (~0.6 s) in every cold process
    found = {path.stem: list(_scipy_imports(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {stem: imports for stem, imports in found.items() if imports} == {
        "oracle": [("import scipy", True)]}


#: the level loops of the quadrature rules, each with its node budget
_RULES = {"_tanh_sinh", "_gauss_legendre"}


def _quadrature_names(path):
    """(module, top-level def, name) of each name in `path` that reaches
    scipy.integrate or IntegrationWarning, or that calls a rule in _RULES."""
    for top in ast.parse(path.read_text(), filename=str(path)).body:
        for node in ast.walk(top):
            if isinstance(node, (ast.Attribute, ast.Name)):
                name = ast.unparse(node)
                if "integrate" in name.split(".") or name.endswith("IntegrationWarning"):
                    yield path.stem, getattr(top, "name", None), name
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in _RULES:
                yield path.stem, getattr(top, "name", None), ast.unparse(node.func)


def test_every_quadrature_goes_through_one_gate():
    # oracle._quad is the one home of the rule for trusting a quadrature:
    # it alone runs the level rules, once each, and nothing names QUADPACK
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _quadrature_names(path)]
    assert sorted(found) == [("oracle", "_quad", "_gauss_legendre"),
                             ("oracle", "_quad", "_tanh_sinh")]


#: what a cold process has loaded of scipy and concurrent.futures after
#: `import varsolid.cli`, after `optimize` and after `verify`, each
#: command's stdout swallowed
_SCIPY_LOADED = """
import contextlib, io, json, sys
import varsolid, varsolid.cli as cli

def loaded():
    return [name for name in ("scipy", "scipy.integrate", "scipy.optimize",
                              "scipy.special", "concurrent.futures") if name in sys.modules]

report = {"import": loaded()}
for command in ("optimize", "verify"):
    with contextlib.redirect_stdout(io.StringIO()):
        report[command + "_exit"] = cli.main([command])
    report[command] = loaded()
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def cold_loaded():
    # a child process: this one has imported scipy.integrate for the tests
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-c", _SCIPY_LOADED], capture_output=True,
                         text=True, timeout=120, env=env, check=False)
    assert run.returncode == 0, run.stderr
    report = json.loads(run.stdout)
    assert (report["optimize_exit"], report["verify_exit"]) == (0, 0)
    return report


def test_no_command_loads_a_scipy_submodule(cold_loaded):
    # the benchmark's import contract: `import varsolid` loads scipy itself
    assert cold_loaded["import"][0] == "scipy"
    assert [name for stage in ("import", "optimize", "verify")
            for name in cold_loaded[stage] if name.startswith("scipy.")] == []


def test_only_a_monte_carlo_estimate_loads_concurrent_futures(cold_loaded):
    # its threads draw the blocks; a cold `optimize` pays nothing for them
    assert cold_loaded["import"] == cold_loaded["optimize"] == ["scipy"]
    assert cold_loaded["verify"] == ["scipy", "concurrent.futures"]


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
