"""Static checks on the library source (the project installs no linter)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "symbreak"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads. `__future__` imports are
    directives, not names."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_import_check_finds_a_leftover():
    assert MODULES, "no library modules found"
    source = "from __future__ import annotations\nimport os.path\nfrom typing import Iterable, Optional\nx: Optional[int] = None\n"
    assert unused_imports(source) == ["Iterable", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_library_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
