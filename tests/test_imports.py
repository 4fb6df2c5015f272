"""The solver's own modules import no scipy; only the oracle battery does.
The package exposes no name that no user path reaches."""

import ast
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
