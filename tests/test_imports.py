"""Every import in the package is used: a stdlib-only stand-in for a
linter's unused-import rule."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "powernet"


def unused_imports(source: str) -> list:
    """Names bound by an import in ``source`` and never read. A name listed
    in ``__all__`` counts as read; ``from __future__`` imports are skipped."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= {elt.value for elt in node.value.elts}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    source = "import os\nimport sys\nfrom math import pi, tau\nprint(sys.argv, tau)\n"
    assert unused_imports(source) == [(1, "os"), (3, "pi")]


def test_all_counts_as_use():
    assert unused_imports("from .a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
