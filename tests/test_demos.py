import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from functools import reduce
from pathlib import Path

import pytest

import powernet

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_ingest_and_features", "02_train_and_compare",
         "03_forecast_horizons", "04_theft_detection")


def run_python(args: list, cwd):
    """A fresh interpreter run of ``args`` in ``cwd``, on one BLAS thread
    and with the package on its path."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [
                   str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    """Each demo exits 0 and prints its walk-through."""
    done = run_python([str(ROOT / "demos" / f"{demo}.py")], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def python_blocks(markdown: str) -> list:
    """The source of each ```python fenced block of ``markdown``."""
    return re.findall(r"^```python\n(.*?)^```$", markdown, re.M | re.S)


def test_detects_python_blocks():
    text = "```python\nx = 1\n```\n```sh\nls\n```\n```python\nprint(x)\ny = 2\n```\n"
    assert python_blocks(text) == ["x = 1\n", "print(x)\ny = 2\n"]


def test_readme_python_blocks_run(tmp_path):
    """Each ```python block of README.md exits 0, so the README cannot show
    an option or a name the package no longer has."""
    blocks = python_blocks((ROOT / "README.md").read_text())
    assert blocks
    for block in blocks:
        done = run_python(["-c", block], tmp_path)
        assert done.returncode == 0, done.stderr


def package_roots() -> dict:
    """By name: the package, each of its modules and each public name of a
    module that is not itself a module."""
    roots = {"powernet": powernet}
    for info in pkgutil.iter_modules(powernet.__path__):
        module = importlib.import_module(f"powernet.{info.name}")
        roots.update((name, value) for name, value in vars(module).items()
                     if not name.startswith("_") and not inspect.ismodule(value))
        roots[info.name] = module
    return roots


def unresolved_names(markdown: str) -> tuple:
    """(checked, unresolved): each backticked dotted name ``a.b`` of
    ``markdown`` (a trailing ``()`` dropped) whose first part is in
    package_roots, file names (.py, .json, .csv) left out, and those of
    them that getattr does not resolve."""
    roots = package_roots()
    checked = [name for name in re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)(?:\(\))?`", markdown)
               if name.split(".")[0] in roots and not name.endswith((".py", ".json", ".csv"))]

    def resolves(name):
        first, *rest = name.split(".")
        try:
            reduce(getattr, rest, roots[first])
        except AttributeError:
            return False
        return True
    return checked, [name for name in checked if not resolves(name)]


def test_detects_unresolved_names():
    text = ("`model.forward_batch` and `GbtModel.made_up()`, not `cli.py`, "
            "`report.curves` or `model`\n```python\nmodel.made_up\n```\n")
    assert unresolved_names(text) == (["model.forward_batch", "GbtModel.made_up"],
                                      ["GbtModel.made_up"])


def test_readme_names_resolve():
    """Every package name that README.md cites in backticks exists."""
    checked, unresolved = unresolved_names((ROOT / "README.md").read_text())
    assert checked and unresolved == []
