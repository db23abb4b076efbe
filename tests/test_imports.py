"""Every module the package and its tests import is one they may rely on.

scipy and other packages may be installed where the tests run, but only
the dependencies pyproject.toml declares are promised: numpy and pyyaml
for the package, and pytest and hypothesis besides for the tests.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "evadapt").glob("*.py"))
TESTS = sorted((ROOT / "tests").glob("*.py"))

PACKAGE_DEPS = {"numpy", "yaml", "evadapt"}
TEST_DEPS = PACKAGE_DEPS | {"pytest", "hypothesis"} | {p.stem for p in TESTS}


def imported_modules(path: Path) -> set[str]:
    """The top-level names of every absolute import in the file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("path", SRC + TESTS,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_are_declared(path):
    allowed = TEST_DEPS if path.parent.name == "tests" else PACKAGE_DEPS
    undeclared = sorted(imported_modules(path) - allowed
                        - sys.stdlib_module_names)
    assert not undeclared, f"{path.name} imports undeclared {undeclared}"


def test_finds_imports_anywhere_in_a_file(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("import os.path\nfrom . import sibling\n"
                    "def f():\n    from scipy.linalg import expm\n")
    assert imported_modules(path) == {"os", "scipy"}
