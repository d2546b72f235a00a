"""Every import in the package is used, every private module-level
function and class is referenced, and no module reads another module's
private names: stdlib-only stand-ins for a linter's unused-import,
dead-code and private-access rules. Every function the benchmark tracer
wraps exists under the name it uses, and files are opened only by the one
input reader and the artifact writers."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "powernet"


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


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unreferenced_private_names(sources: dict) -> list:
    """(module, name) of each private module-level function or class in
    ``sources`` (module name -> source) that no code outside its own
    definition reads, by name or as an attribute, in any of the modules."""
    defined, used = [], set()
    for module, source in sorted(sources.items()):
        for node in ast.parse(source).body:
            names = {sub.id if isinstance(sub, ast.Name) else sub.attr
                     for sub in ast.walk(node)
                     if isinstance(sub, (ast.Name, ast.Attribute))}
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and is_private(node.name)):
                defined.append((module, node.name))
                names.discard(node.name)   # recursion is not a use
            used |= names
    return [(module, name) for module, name in defined if name not in used]


def test_detects_an_unreferenced_private_name():
    sources = {
        "a": "def _used():\n    pass\n\ndef _dead(n):\n    return _dead(n - 1)\n"
             "class _Gone:\n    pass\n\ndef public():\n    pass\n",
        "b": "from .a import _used\n_used()\n",
    }
    assert unreferenced_private_names(sources) == [("a", "_dead"), ("a", "_Gone")]


def test_attribute_and_cross_module_reads_count_as_references():
    sources = {"a": "def _helper():\n    pass\n\nclass _Trace:\n    pass\n",
               "b": "from . import a\nx: a._Trace = a._helper()\n"}
    assert unreferenced_private_names(sources) == []


def test_every_private_name_is_referenced():
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreferenced_private_names(sources) == []


def foreign_private_reads(source: str) -> list:
    """(line, name) of each private name that ``source``, a module of the
    package, reads from another module of the package: imported with
    ``from .x import _name`` or read as ``x._name``, where ``x`` is a
    module bound by ``from . import x`` or ``import powernet.x as x``."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "powernet"):
            found += [(node.lineno, alias.name) for alias in node.names
                      if is_private(alias.name)]
            if node.module in (None, "powernet"):   # the names are modules
                modules |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names
                        if alias.asname and alias.name.startswith("powernet.")}
    found += [(node.lineno, node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules and is_private(node.attr)]
    return sorted(found)


def test_detects_a_private_read_across_modules():
    source = ("from .model import _head, forward_batch\n"
              "from . import features as feat, metrics\n"
              "import powernet.dataio as dio\n"
              "from powernet.training import _loss\n"
              "feat._build_split(metrics.__name__, metrics._private)\n"
              "dio._csv_rows(self._own, forward_batch.__doc__)\n")
    assert foreign_private_reads(source) == [
        (1, "_head"), (4, "_loss"), (5, "_build_split"), (5, "_private"),
        (6, "_csv_rows")]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    assert foreign_private_reads(path.read_text()) == []


def layer_targets(source: str) -> list:
    """The "module.function" target of each ``Layer(...)`` call in
    ``source``."""
    return [node.args[0].value for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Layer" and node.args
            and isinstance(node.args[0], ast.Constant)]


def test_every_traced_layer_names_a_package_function():
    # Tracer.install looks each target up with getattr, so a function moved
    # or renamed away from its module would crash every traced run
    targets = layer_targets((ROOT / "bench" / "tracing.py").read_text())
    assert "baselines.fit_gbt" in targets
    missing = [target for target in targets
               if not hasattr(importlib.import_module(
                   "powernet." + target.split(".")[0]), target.split(".")[1])]
    assert missing == []


def test_grid_search_calls_fit_gbt_by_its_module_name():
    # the tracer rebinds module attributes, so baselines.fit_gbt shows in a
    # traced grid search only while gbt_grid_search looks the name up there
    tree = ast.parse((PACKAGE / "baselines.py").read_text())
    grid = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef)
                and node.name == "gbt_grid_search")
    assert any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "fit_gbt" for node in ast.walk(grid))


def open_calls(source: str) -> list:
    """The name of the module-level function or class holding each
    ``open(...)`` call in ``source``, or ``None`` for a call outside both."""
    found = []
    for node in ast.parse(source).body:
        name = (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                else None)
        found += [name for sub in ast.walk(node)
                  if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                  and sub.func.id == "open"]
    return found


def test_detects_an_open_call():
    source = ("def read(p):\n    with open(p) as fh:\n        return fh.read()\n"
              "class Report:\n    def write(self, p):\n        open(p, 'w')\n"
              "open('x')\n")
    assert open_calls(source) == ["read", "Report", None]


def test_files_are_opened_only_by_the_one_reader_and_the_writers():
    # every input goes through dataio.read_text and every artifact through
    # cli's writers; synth writes the fixture files it generates
    allowed = {("dataio.py", "read_text"), ("cli.py", "_write"),
               ("cli.py", "_write_csv"), ("synth.py", "write_weather_csv"),
               ("synth.py", "write_consumption_csv")}
    found = {(path.name, name) for path in PACKAGE.glob("*.py")
             for name in open_calls(path.read_text())}
    assert found <= allowed
    assert ("cli.py", "_write_csv") in found
