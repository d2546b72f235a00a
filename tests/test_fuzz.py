"""Seeded fuzz of every input document the CLI reads: both CSVs, the
dataset, both checkpoint kinds and the config. Each case mutates one valid
file (truncate it, drop or duplicate a cell, put in nan, inf, 1e308, -1,
"x", true or null, or bump an index by one) and runs, in-process, every
command that reads that kind of file. Every run must exit 0, or exit 2
with exactly one ``error:`` line, and every JSON file it writes must parse
with no NaN or Infinity."""

import contextlib
import io
import json
import random
import re

import pytest

from powernet.cli import main

TOKENS = ["nan", "inf", "1e308", "-1", "x", "true", "null"]
VALUES = [float("nan"), float("inf"), 1e308, -1, "x", True, None]
OPS = ["truncate", "drop", "duplicate", "put", "bump"]
CASES_PER_KIND = 25

CONFIG = {"splits": "96:48:48", "window_len": 3, "memory_size": 3,
          "max_epochs": 2, "patience": 2, "d1": 4, "d2": 3, "d3": 4,
          "stack": 1, "seed": 0, "learning_rate": 0.01}


def run(argv):
    """(exit code, stderr) of one in-process command."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([str(a) for a in argv])
    except Exception as exc:   # a traceback: reported by the caller's assert
        rc = f"{type(exc).__name__}: {exc}"
    return rc, err.getvalue()


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid files of every kind, from a 10-day, 2-apartment fixture."""
    root = tmp_path_factory.mktemp("fuzz")
    fx, ds, ck, gb = (root / name for name in ("fx", "ds", "ck", "gb"))
    (root / "config.json").write_text(json.dumps(CONFIG))
    assert run(["synth", "--out", fx, "--days", 10, "--apartments", 2])[0] == 0
    assert run(["ingest", "--consumption", fx / "Apt1.csv", fx / "Apt2.csv",
                "--weather", fx / "weather.csv", "--aggregate", "--out", ds])[0] == 0
    for model, out in (("powernet", ck), ("gbt", gb)):
        assert run(["train", "--dataset", ds / "dataset.json", "--model", model,
                    "--config", root / "config.json", "--out", out])[0] == 0
    return {"consumption": fx / "Apt1.csv", "weather": fx / "weather.csv",
            "dataset": ds / "dataset.json", "checkpoint": ck / "checkpoint.json",
            "gbt_checkpoint": gb / "checkpoint.json", "config": root / "config.json"}


def mutate_csv(text, op, rng):
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    cells = lines[i].split(",")
    j = rng.randrange(len(cells))
    if op == "drop":
        del cells[j]
    elif op == "duplicate":
        cells.insert(j, cells[j])
    elif op == "put":
        cells[j] = rng.choice(TOKENS)
    else:   # bump the last number in the cell
        cells[j] = re.sub(r"\d+(?=\D*$)", lambda m: str(int(m.group()) + 1), cells[j])
    lines[i] = ",".join(cells)
    return "\n".join(lines) + "\n"


def mutate_json(text, op, rng):
    """One mutation at the end of a random descent from the root, which
    reaches every top-level key as often as any other."""
    doc = json.loads(text)
    parent, key = None, None
    node = doc
    while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.8):
        parent, key = node, rng.choice(list(node) if isinstance(node, dict)
                                       else range(len(node)))
        node = parent[key]
    if parent is None:
        return text[:len(text) // 2]
    if op == "drop":
        del parent[key]
    elif op == "duplicate" and isinstance(parent, list):
        parent.insert(key, parent[key])
    elif op == "bump" and isinstance(node, int) and not isinstance(node, bool):
        parent[key] = node + 1
    else:
        parent[key] = rng.choice(VALUES)
    return json.dumps(doc)


def commands(kind, path, files, out):
    """The commands that read ``path`` in place of the valid file ``kind``."""
    f = {**files, kind: path}
    ck = ["--checkpoint", f["checkpoint"], "--dataset", f["dataset"], "--out", out]
    return {
        "consumption": [["ingest", "--consumption", f["consumption"],
                         "--weather", f["weather"], "--out", out]],
        "weather": [["ingest", "--consumption", f["consumption"],
                     "--weather", f["weather"], "--out", out]],
        "dataset": [["train", "--dataset", f["dataset"], "--config", f["config"],
                     "--out", out], ["evaluate"] + ck],
        "checkpoint": [["evaluate"] + ck, ["forecast", "--horizon", 24] + ck,
                       ["anomaly", "--horizon", 24, "--detect-theta", 0.5,
                        "--detector-window", 6] + ck],
        "gbt_checkpoint": [["evaluate", "--checkpoint", f["gbt_checkpoint"],
                            "--dataset", f["dataset"], "--out", out]],
        "config": [["train", "--dataset", f["dataset"], "--config", f["config"],
                    "--out", out]],
    }[kind]


@pytest.mark.parametrize("kind", ["consumption", "weather", "dataset",
                                  "checkpoint", "gbt_checkpoint", "config"])
def test_mutated_input_exits_0_or_2_with_clean_outputs(files, tmp_path, kind):
    text = files[kind].read_text()
    for seed in range(CASES_PER_KIND):
        rng = random.Random(f"{kind}-{seed}")
        op = rng.choice(OPS)
        if op == "truncate":
            bad = text[:rng.randrange(len(text))]
        elif kind in ("consumption", "weather"):
            bad = mutate_csv(text, op, rng)
        else:
            bad = mutate_json(text, op, rng)
        path = tmp_path / f"{seed}_{files[kind].name}"
        path.write_text(bad)
        for argv in commands(kind, path, files, tmp_path / f"out{seed}"):
            rc, err = run(argv)
            case = f"{kind} seed {seed} ({op}): {argv[0]}"
            assert rc in (0, 2), f"{case} exited {rc}: {err}"
            if rc == 2:
                assert err.startswith("error:") and err.count("\n") == 1, f"{case}: {err}"
        for written in (tmp_path / f"out{seed}").glob("*.json"):
            json.loads(written.read_text(), parse_constant=_reject_constant)
