"""The solver's own modules import no scipy; only the oracle battery does."""

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
