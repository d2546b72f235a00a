"""Every import in the package is used, every private module-level
function and class is referenced, every public function and class is
named outside the tests, and no module reads another module's private
names: stdlib-only stand-ins for a linter's unused-import, dead-code and
private-access rules. Every defaulted parameter of a public function is
passed by some caller, every function the benchmark tracer wraps exists
under the name it uses, files are opened only by the one input reader
and the artifact writers, and input the caller must fix is one error
class, ``numcore.InputError``."""

import ast
import importlib
import re
from collections import Counter
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


def named(node) -> Counter:
    """How often each identifier is named in ``node``: as a name, an
    attribute, or a word of a string that is not a docstring (the bench
    tracer names the functions it wraps as "module.function")."""
    docs = {id(sub.body[0].value) for sub in ast.walk(node)
            if isinstance(sub, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and sub.body and isinstance(sub.body[0], ast.Expr)
            and isinstance(sub.body[0].value, ast.Constant)}
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif (isinstance(sub, ast.Constant) and isinstance(sub.value, str)
              and id(sub) not in docs):
            found.update(re.findall(r"\w+", sub.value))
    return found


def public_names_only_tests_read(package: dict, others: dict) -> list:
    """(module, name) of each public function, class or method defined in
    ``package`` (module name -> source) that no code names outside its own
    definition, in the package or in ``others`` (the other sources that
    count as uses: the benchmark and the demos, not the tests)."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    uses = Counter()
    for tree in [*trees.values(), *map(ast.parse, others.values())]:
        uses += named(tree)
    return sorted((module, node.name) for module, tree in trees.items()
                  for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_")
                  and uses[node.name] == named(node)[node.name])


def test_detects_a_public_name_only_the_tests_read():
    package = {"a": 'def used():\n    pass\n\n'
                    'def only_tested(n):\n    """Not named by only_tested\'s docstring."""\n'
                    '    return only_tested(n - 1)\n\n'
                    'class Model:\n    def method(self):\n        pass\n\n'
                    '    def traced(self):\n        pass\n'}
    others = {"bench/run.py": "from powernet.a import used, Model\n"
                              "used(Model().method)\nLayer('a.traced')\n"}
    assert public_names_only_tests_read(package, others) == [("a", "only_tested")]


#: Public names that only the tests read, each with its reason.
TEST_ONLY = {
    "staged_train_mse",   # GbtModel's staged curve, which the acceptance gate reads
}


def test_every_public_name_is_named_outside_the_tests():
    package = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    others = {str(path): path.read_text() for folder in ("bench", "demos")
              for path in sorted((ROOT / folder).rglob("*.py"))}
    found = public_names_only_tests_read(package, others)
    assert [entry for entry in found if entry[1] not in TEST_ONLY] == []


def defaulted_parameters(tree) -> list:
    """(function, parameter, position) of each defaulted parameter of the
    public functions and methods of the public classes in ``tree``. The
    position counts the caller's positional arguments (a method's first
    parameter is bound, a static method's is not); None for keyword-only."""
    found = []

    def visit(body, method):
        for node in body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                visit(node.body, True)
            elif isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                bound = method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                           for d in node.decorator_list)
                args = node.args.posonlyargs + node.args.args
                first = len(args) - len(node.args.defaults)
                found.extend((node.name, arg.arg, i - bound)
                             for i, arg in enumerate(args[first:], first))
                found.extend((node.name, arg.arg, None) for arg, default
                             in zip(node.args.kwonlyargs, node.args.kw_defaults) if default)
    visit(tree.body, False)
    return found


def unpassed_defaults(package: dict, callers: dict) -> list:
    """(module, function, parameter) of each defaulted parameter in
    ``package`` (module name -> source) that no call in ``callers`` (the
    sources that count as callers) passes, by keyword, by position, or
    through ``*`` or ``**`` unpacking. Calls are matched by the called name
    alone, so a call of another function of that name counts too."""
    calls = {}
    for source in callers.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def passed(call, param, position):
        return (any(k.arg in (param, None) for k in call.keywords)
                or position is not None
                and (len(call.args) > position
                     or any(isinstance(a, ast.Starred) for a in call.args)))
    return sorted((module, function, param) for module, source in package.items()
                  for function, param, position in defaulted_parameters(ast.parse(source))
                  if not any(passed(call, param, position) for call in calls.get(function, [])))


def test_detects_a_default_no_caller_passes():
    package = {"a": "def f(x, y=1, *, z=2):\n    pass\n\n"
                    "def g(a=1, b=2):\n    pass\n\n"
                    "def h(c=1):\n    pass\n\n"
                    "def _private(q=1):\n    pass\n\n"
                    "class C:\n    def m(self, p=1, q=2):\n        pass\n\n"
                    "    @staticmethod\n    def s(r=1):\n        pass\n\n"
                    "class _Hidden:\n    def m2(self, t=1):\n        pass\n"}
    callers = {"b": "f(0, 5)\ng(*args)\nh(**kw)\nC().m(1)\nC.s(2)\n"}
    assert unpassed_defaults(package, callers) == [("a", "f", "z"), ("a", "m", "q")]


def test_every_default_is_passed_by_some_caller():
    # an option no caller sets is a constant in disguise
    package = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    callers = {str(path): path.read_text() for folder in ("src", "bench", "demos", "tests")
               for path in sorted((ROOT / folder).rglob("*.py"))}
    assert unpassed_defaults(package, callers) == []


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


def calls_of(source: str, callee: str) -> list:
    """The name of the module-level function or class holding each
    ``callee(...)`` call in ``source``, or ``None`` for a call outside both."""
    found = []
    for node in ast.parse(source).body:
        name = (node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                else None)
        found += [name for sub in ast.walk(node)
                  if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                  and sub.func.id == callee]
    return found


def test_detects_an_open_call():
    source = ("def read(p):\n    with open(p) as fh:\n        return fh.read()\n"
              "class Report:\n    def write(self, p):\n        open(p, 'w')\n"
              "open('x')\n")
    assert calls_of(source, "open") == ["read", "Report", None]


def test_files_are_opened_only_by_the_one_reader_and_the_writers():
    # every input goes through dataio.read_text and every artifact through
    # cli's writers; synth writes the fixture files it generates
    allowed = {("dataio.py", "read_text"), ("cli.py", "_write"),
               ("cli.py", "_write_csv"), ("synth.py", "write_weather_csv"),
               ("synth.py", "write_consumption_csv")}
    found = {(path.name, name) for path in PACKAGE.glob("*.py")
             for name in calls_of(path.read_text(), "open")}
    assert found <= allowed
    assert ("cli.py", "_write_csv") in found


def value_error_classes(sources: dict) -> list:
    """(module, class) of each class in ``sources`` (module name -> source)
    that derives from ValueError, directly or through another class found
    here, named as a base by its name or as an attribute."""
    classes = [(module, node) for module, source in sources.items()
               for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    found = {"ValueError"}
    while True:
        more = {node.name for _, node in classes
                if {getattr(b, "id", getattr(b, "attr", None)) for b in node.bases} & found}
        if more <= found:
            return sorted((module, node.name) for module, node in classes
                          if node.name in found)
        found |= more


def handled_errors(source: str, function: str) -> list:
    """The source of what each ``except`` clause of the module-level
    ``function`` in ``source`` catches, in order."""
    body = next(node for node in ast.parse(source).body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    return [ast.unparse(handler.type) for node in ast.walk(body)
            if isinstance(node, ast.Try) for handler in node.handlers]


def test_detects_error_classes_and_handlers():
    sources = {"a": "class InputError(ValueError):\n    pass\n\n"
                    "class Bad(InputError):\n    pass\n",
               "b": "from . import a\n\nclass Worse(a.Bad):\n    pass\n\n"
                    "class Fine(RuntimeError):\n    pass\n\n"
                    "def main():\n    try:\n        raise ValueError('x')\n"
                    "    except (a.InputError, KeyError):\n        pass\n"
                    "    except Fine:\n        pass\n"}
    assert value_error_classes(sources) == [("a", "Bad"), ("a", "InputError"),
                                            ("b", "Worse")]
    assert calls_of(sources["b"], "ValueError") == ["main"]
    assert handled_errors(sources["b"], "main") == ["(a.InputError, KeyError)", "Fine"]


#: Functions that raise a plain ValueError, each with its reason.
PLAIN_VALUE_ERRORS = {
    ("model.py", "checkpoint_to_json"),   # json.dumps's own error for a non-finite float
}


def test_one_input_error_class():
    # input the caller must fix is a numcore.InputError, the one class
    # cli.main turns into exit 2; TrainingError, divergence, gives exit 1
    sources = {path.name: path.read_text() for path in PACKAGE.glob("*.py")}
    assert value_error_classes(sources) == [("numcore.py", "InputError")]
    assert {(module, holder) for module, source in sources.items()
            for holder in calls_of(source, "ValueError")} == PLAIN_VALUE_ERRORS
    assert handled_errors(sources["cli.py"], "main") == ["InputError", "TrainingError"]
    # the tests name the class where it is defined
    imports = {(path.name, node.module) for path in (ROOT / "tests").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and "InputError" in {alias.name for alias in node.names}}
    assert {module for _, module in imports} == {"powernet.numcore"}
