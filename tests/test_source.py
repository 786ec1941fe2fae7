"""Static checks on the library source (the project installs no linter)."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from symbreak import constraints

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


def test_traced_names_resolve_in_the_library():
    # perfbench/tracing.py wraps these names by lookup: one that moved would
    # go untraced and read 0 in the benchmark's counters instead of failing.
    path = SRC.parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module_name, attribute, _ in tracing.SPANS:
        owner = importlib.import_module(f"symbreak.{module_name}")
        for name in attribute.split("."):
            owner = getattr(owner, name)
        assert callable(owner), (module_name, attribute)
    for class_name in tracing.KINDS:
        cls = getattr(constraints, class_name, None)
        assert isinstance(cls, type) and issubclass(cls, constraints.Constraint), class_name
