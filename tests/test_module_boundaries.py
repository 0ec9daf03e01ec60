"""Module boundaries inside the package: no fisrul module imports another
module's private (underscore) name; a helper two modules share is public."""

import ast
from pathlib import Path

import pytest

import fisrul

PACKAGE = Path(fisrul.__file__).resolve().parent


def private_imports(path: Path) -> list[str]:
    """``line: module.name`` for each private fisrul name imported in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "fisrul"):
            found += [f"{node.lineno}: {node.module}.{alias.name}" for alias in node.names
                      if alias.name.startswith("_") and not alias.name.endswith("__")]
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_private_name(path):
    assert private_imports(path) == []


def test_rule_sees_a_private_import(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("from .clustering import TrainingTable, _BLOCK_BYTES\n"
                      "from . import __version__\n")
    assert private_imports(sample) == ["1: clustering._BLOCK_BYTES"]
