"""Every module under ``src/magorder`` and ``tests`` uses each name it
imports.  No linter is declared, so this stdlib ``ast`` scan is the guard;
``__init__.py`` files are exempt because their imports are re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for d in ("src/magorder", "tests")
                 for p in (ROOT / d).glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_scan_flags_an_unused_name():
    assert unused_imports("import os\nfrom a.b import c, d as e\ne()\n") \
        == [(1, "os"), (2, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
