"""The benchmark's workloads.

Each workload has a set-up, which builds its seeded inputs, and an
operation that the runner repeats in a closed loop with one client. The
runner times ``op``; ``check`` runs outside the timed region and returns
the problems it found with the operation's outputs, so a run can count
failed operations.

Every workload starts from the same seeded fixture: 60 days of quarter-hour
readings for 3 apartments plus hourly weather, written as CSV files and
ingested with the ``powernet`` CLI. The seed shapes only the generated
inputs; the program's own settings stay fixed.

The program is driven through module attributes (``baselines.gbt_grid_search``,
``forecast_anomaly.forecast_recursive``) so that traced runs see the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from powernet import (baselines, cli, dataio, features, forecast_anomaly,
                      metrics, model, synth)


@dataclass(frozen=True)
class Scale:
    """Input and model sizes. ``FULL`` is what the benchmark measures;
    ``TINY`` keeps the smoke tests fast."""

    days: int = 60
    apartments: int = 3
    splits: str = "624:48:336"
    window: int = 3                    # what the ACF rule picks on most seeds
    memory_size: int | None = None     # None keeps the CLI default (64)
    pipeline_epochs: int = 20
    forecast_horizon: int = 720
    anomaly_horizon: int = 336
    long_window: int = 168
    long_memory: int = 64
    long_epochs: int = 1
    serve_epochs: int = 10
    serve_horizon: int = 24
    gbt_trees: tuple = (2, 4)
    gbt_depths: tuple = (1, 2, 3, 4, 5)
    gbt_rates: tuple = (0.1, 1.0)
    min_requests: int = 1000


FULL = Scale()
TINY = Scale(days=16, splits="192:48:48", memory_size=8, pipeline_epochs=20,
             forecast_horizon=48, anomaly_horizon=48, long_window=24,
             long_memory=8, long_epochs=10, serve_epochs=20, gbt_trees=(1, 2),
             gbt_depths=(1, 2), min_requests=20)

SCALES = {"full": FULL, "tiny": TINY}


# --- helpers -------------------------------------------------------------

def run_cli(argv):
    """Run one ``powernet`` command in-process; returns (exit code, output)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main([str(a) for a in argv])
    except SystemExit as exc:        # argparse rejects a flag
        code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _reject_constant(text):
    raise ValueError(f"non-finite number {text}")


def read_strict_json(path):
    """Parse a JSON artifact, rejecting NaN, Infinity and overflowing
    numbers."""
    with open(path) as fh:
        return json.load(fh, parse_float=_finite_float,
                         parse_constant=_reject_constant)


def check_csv_finite(path):
    """Every numeric cell of a CSV artifact is finite."""
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    raise ValueError(f"non-finite cell {cell!r}")


def check_artifacts(out_dir, names):
    """Problems with the named artifacts: missing, unparseable or holding a
    non-finite number."""
    problems = []
    for name in names:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path):
            problems.append(f"missing artifact {name}")
            continue
        try:
            if name.endswith(".json"):
                read_strict_json(path)
            else:
                check_csv_finite(path)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    return problems


def file_digests(out_dir, names):
    digests = {}
    for name in names:
        path = os.path.join(out_dir, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def remove_artifacts(out_dir, names):
    """Delete checked artifacts, so the next operation must write them anew."""
    for name in names:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(out_dir, name))


def combined_digest(parts) -> str:
    h = hashlib.sha256()
    for key in sorted(parts):
        h.update(f"{key}={parts[key]}\n".encode())
    return h.hexdigest()


def forecast_problems(predictions, horizon):
    preds = np.asarray(predictions, dtype=np.float64)
    problems = []
    if preds.shape != (horizon,):
        problems.append(f"forecast has {preds.size} values, expected {horizon}")
    if not np.all(np.isfinite(preds)):
        problems.append("forecast holds a non-finite value")
    elif np.any(preds < 0):
        problems.append("forecast holds a negative value")
    return problems


class Workload:
    """Common state: a work directory, a seed, sizes and the outputs of the
    first operation, against which every later one is byte-compared."""

    name = ""
    min_ops = 2
    tail_pct = 50.0    # too few operations per run for a higher percentile

    def __init__(self, work_dir, seed: int, scale: Scale = FULL):
        self.work = work_dir
        self.seed = seed
        self.scale = scale
        self.fixture_dir = os.path.join(work_dir, "fixture")
        self.reference = None
        self.stages = {}       # stage name -> list of per-op values
        self.test_mape = None   # test-split MAPE (%) of its model
        self.mean_mape = None   # ... of forecasting the mean training load

    def record(self, **values):
        for key, value in values.items():
            self.stages.setdefault(key, []).append(value)

    def write_fixture(self):
        s = self.scale
        self.consumption, self.weather = synth.write_fixture_dir(
            self.fixture_dir, days=s.days, apartments=s.apartments,
            seed=self.seed, fmt="per_quarter_hour")

    def ingest_argv(self, out):
        return (["ingest", "--consumption", *self.consumption,
                 "--weather", self.weather, "--aggregate",
                 "--format", "per_quarter_hour", "--out", out])

    def ingest(self, out):
        code, text = run_cli(self.ingest_argv(out))
        if code != 0:
            raise RuntimeError(f"ingest exited {code}: {text.strip()}")
        return os.path.join(out, "dataset.json")

    def compare_to_reference(self, digests):
        """Byte-identity of repeated outputs (acceptance criterion 7)."""
        if self.reference is None:
            self.reference = digests
            return []
        return [f"{name} differs from the first operation's"
                for name in sorted(set(self.reference) | set(digests))
                if self.reference.get(name) != digests.get(name)]

    def digest(self) -> str:
        return combined_digest(self.reference or {})

    def set_quality(self, test_mape, kw, splits):
        """Record the model's test MAPE and that of forecasting the mean
        training load for every test hour."""
        (a0, a1), _, (c0, c1) = splits
        kw = np.asarray(kw, dtype=np.float64)
        self.test_mape = test_mape
        self.mean_mape = metrics.mape(kw[c0:c1], np.full(c1 - c0, kw[a0:a1].mean()))

    def quality_problems(self):
        """The quality guard: the model must beat the mean forecast."""
        if self.test_mape is None:
            return ["no test MAPE was recorded"]
        if not self.test_mape < self.mean_mape:
            return [f"test MAPE {self.test_mape:.3f}% does not beat the mean "
                    f"forecast's {self.mean_mape:.3f}%"]
        return []

    def setup(self):
        raise NotImplementedError

    def op(self, i):
        raise NotImplementedError

    def check(self, outcome):
        raise NotImplementedError


# --- cli_pipeline ----------------------------------------------------------

class CliPipeline(Workload):
    """ingest -> train -> evaluate -> forecast -> anomaly, in-process."""

    name = "cli_pipeline"
    ARTIFACTS = ("dataset.json", "ingest_report.json", "checkpoint.json",
                 "report.json", "curves.csv", "evaluate_test.json",
                 "forecast_recursive.json", "forecast_recursive.csv",
                 "forecast_recursive_curve.csv", "theft_sweep.csv",
                 "anomaly.json")

    def setup(self):
        self.write_fixture()
        self.out = os.path.join(self.work, "journey")
        s = self.scale
        ds = os.path.join(self.out, "dataset.json")
        ckpt = os.path.join(self.out, "checkpoint.json")
        train = ["train", "--dataset", ds, "--splits", s.splits,
                 "--window-len", s.window, "--max-epochs", s.pipeline_epochs,
                 "--patience", s.pipeline_epochs, "--out", self.out]
        if s.memory_size is not None:
            train += ["--memory-size", s.memory_size]
        self.commands = [
            ("ingest", self.ingest_argv(self.out)),
            ("train", train),
            ("evaluate", ["evaluate", "--checkpoint", ckpt, "--dataset", ds,
                          "--out", self.out]),
            ("forecast", ["forecast", "--checkpoint", ckpt, "--dataset", ds,
                          "--mode", "recursive", "--horizon", s.forecast_horizon,
                          "--out", self.out]),
            ("anomaly", ["anomaly", "--checkpoint", ckpt, "--dataset", ds,
                         "--horizon", s.anomaly_horizon, "--detect-theta", "0.5",
                         "--out", self.out]),
        ]

    def op(self, i):
        times = {}
        for stage, argv in self.commands:
            t0 = time.perf_counter()
            code, text = run_cli(argv)
            times[stage] = time.perf_counter() - t0
            if code != 0:
                return {"problems": [f"{stage} exited {code}: {text.strip()[-300:]}"]}
        return {"times": times}

    def check(self, outcome):
        if "problems" in outcome:
            return outcome["problems"]
        problems = check_artifacts(self.out, self.ARTIFACTS)
        if problems:
            return problems
        s = self.scale
        dataset = read_strict_json(os.path.join(self.out, "dataset.json"))
        fc = read_strict_json(os.path.join(self.out, "forecast_recursive.json"))
        preds = [float(v) for v in fc["predictions"]]
        problems += forecast_problems(preds, s.forecast_horizon)
        actuals = [float(v) for v in fc["actuals"]]
        if actuals != dataset["kw"][-s.forecast_horizon:]:
            problems.append("forecast actuals differ from the dataset's last hours")
        ev = read_strict_json(os.path.join(self.out, "evaluate_test.json"))
        anomaly = read_strict_json(os.path.join(self.out, "anomaly.json"))
        windows = s.anomaly_horizon - 24 + 1
        if anomaly.get("detection", {}).get("windows") != windows:
            problems.append("anomaly detection did not scan every window")
        report = read_strict_json(os.path.join(self.out, "report.json"))
        epochs = len(report["train_loss"])
        if epochs != s.pipeline_epochs:
            problems.append(f"trained {epochs} epochs, expected {s.pipeline_epochs}")
        problems += self.compare_to_reference(file_digests(self.out, self.ARTIFACTS))
        if not problems:
            splits = read_strict_json(os.path.join(
                self.out, "checkpoint.json"))["hyperparameters"]["splits"]
            lo, hi = splits[0]
            times = outcome["times"]
            self.record(**{f"{k}_s": v for k, v in times.items()},
                        train_examples_per_s=epochs * (hi - lo) / times["train"],
                        forecast_mape_pct=fc["mape"])
            self.set_quality(ev["mape"], dataset["kw"], splits)
        remove_artifacts(self.out, self.ARTIFACTS)
        return problems


# --- train_long_window -----------------------------------------------------

class TrainLongWindow(Workload):
    """train at a 168-hour window for a fixed epoch count, then evaluate."""

    name = "train_long_window"
    ARTIFACTS = ("checkpoint.json", "report.json", "curves.csv",
                 "evaluate_test.json")

    def setup(self):
        self.write_fixture()
        self.out = os.path.join(self.work, "long")
        ds = self.ingest(self.out)
        with open(ds) as fh:
            self.kw = json.load(fh)["kw"]
        s = self.scale
        ckpt = os.path.join(self.out, "checkpoint.json")
        self.train_argv = ["train", "--dataset", ds, "--splits", s.splits,
                           "--window-len", s.long_window,
                           "--memory-size", s.long_memory,
                           "--max-epochs", s.long_epochs,
                           "--patience", s.long_epochs, "--out", self.out]
        self.evaluate_argv = ["evaluate", "--checkpoint", ckpt, "--dataset", ds,
                              "--out", self.out]

    def op(self, i):
        t0 = time.perf_counter()
        code, text = run_cli(self.train_argv)
        t1 = time.perf_counter()
        if code != 0:
            return {"problems": [f"train exited {code}: {text.strip()[-300:]}"]}
        code, text = run_cli(self.evaluate_argv)
        t2 = time.perf_counter()
        if code != 0:
            return {"problems": [f"evaluate exited {code}: {text.strip()[-300:]}"]}
        return {"times": {"train": t1 - t0, "evaluate": t2 - t1}}

    def check(self, outcome):
        if "problems" in outcome:
            return outcome["problems"]
        problems = check_artifacts(self.out, self.ARTIFACTS)
        if problems:
            return problems
        report = read_strict_json(os.path.join(self.out, "report.json"))
        epochs = len(report["train_loss"])
        if epochs != self.scale.long_epochs:
            problems.append(f"trained {epochs} epochs, expected {self.scale.long_epochs}")
        ckpt = read_strict_json(os.path.join(self.out, "checkpoint.json"))
        if ckpt["feature_spec"]["window_len"] != self.scale.long_window:
            problems.append("checkpoint window differs from --window-len")
        problems += self.compare_to_reference(file_digests(self.out, self.ARTIFACTS))
        if not problems:
            lo, hi = ckpt["hyperparameters"]["splits"][0]
            times = outcome["times"]
            self.record(train_s=times["train"], evaluate_s=times["evaluate"],
                        train_examples_per_s=epochs * (hi - lo) / times["train"])
            ev = read_strict_json(os.path.join(self.out, "evaluate_test.json"))
            self.set_quality(ev["mape"], self.kw, ckpt["hyperparameters"]["splits"])
        remove_artifacts(self.out, self.ARTIFACTS)
        return problems


# --- forecast_serve --------------------------------------------------------

DETECTOR = forecast_anomaly.DetectorConfig(window=6, k=3.0)
THEFT_THETAS = (0.0, 0.3, 0.6)


class ForecastServe(Workload):
    """A seeded request stream against one checkpoint trained in set-up:
    three day-ahead recursive forecasts, then one anomaly check, repeated."""

    name = "forecast_serve"
    tail_pct = 90.0    # p99 swings with bursts of host load; p99 is kept in the result

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.min_ops = self.scale.min_requests
        self.seen = {}           # request -> digest of its first answer
        self.first = []          # digests of the first requests, in order

    def setup(self):
        self.write_fixture()
        out = os.path.join(self.work, "serve")
        ds = self.ingest(out)
        s = self.scale
        train = ["train", "--dataset", ds, "--splits", s.splits,
                 "--window-len", s.window, "--max-epochs", s.serve_epochs,
                 "--patience", s.serve_epochs, "--out", out]
        if s.memory_size is not None:
            train += ["--memory-size", s.memory_size]
        ckpt = os.path.join(out, "checkpoint.json")
        for argv in (train, ["evaluate", "--checkpoint", ckpt, "--dataset", ds,
                             "--out", out]):
            code, text = run_cli(argv)
            if code != 0:
                raise RuntimeError(f"{argv[0]} exited {code}: {text.strip()}")
        with open(ckpt) as fh:
            self.params, hyper, spec_doc, _ = model.checkpoint_from_json(fh.read())
        self.spec = features.FeatureSpec.from_json(json.dumps(spec_doc))
        with open(ds) as fh:
            self.data = dataio.dataset_from_json(fh.read())
        ev = read_strict_json(os.path.join(out, "evaluate_test.json"))
        self.set_quality(ev["mape"], self.data.kw, hyper["splits"])
        self.rng = np.random.default_rng((self.seed, 1))

    def request(self, i):
        """The i-th request; every fourth one is an anomaly check."""
        h = self.scale.serve_horizon
        lo = self.spec.window_len + (h if i % 4 == 3 else 0)
        start = int(self.rng.integers(lo, len(self.data) - h + 1))
        if i % 4 == 3:
            return ("anomaly", start, float(self.rng.choice(THEFT_THETAS)))
        return ("forecast", start, 0.0)

    def op(self, i):
        kind, start, theta = req = self.request(i)
        h = self.scale.serve_horizon
        fa = forecast_anomaly
        if kind == "forecast":
            rep = fa.forecast_recursive(self.params, self.spec, self.data, start, h)
            return {"request": req, "report": rep}
        clean = fa.forecast_with_actuals(self.params, self.spec, self.data, start - h, h)
        stats = fa.residual_stats(clean.predictions, clean.actuals, DETECTOR)
        test = fa.forecast_with_actuals(self.params, self.spec, self.data, start, h)
        reported = fa.apply_theft(test.actuals, fa.TheftScenario(theta, 0, h))
        alarms = fa.detect_consumer(test.predictions, reported, DETECTOR, stats)
        return {"request": req, "report": test, "alarms": alarms}

    def check(self, outcome):
        req, rep = outcome["request"], outcome["report"]
        problems = forecast_problems(rep.predictions, self.scale.serve_horizon)
        alarms = outcome.get("alarms", [])
        if not all(math.isfinite(a["residual_pct"]) for a in alarms):
            problems.append("alarm with a non-finite residual")
        h = hashlib.sha256(np.asarray(rep.predictions, dtype=np.float64).tobytes())
        h.update(json.dumps(alarms, sort_keys=True).encode())
        digest = h.hexdigest()
        if self.seen.setdefault(req, digest) != digest:
            problems.append(f"repeated request {req} gave different output")
        if len(self.first) < 256:
            self.first.append(digest)
        if not problems and req[0] == "forecast":
            self.record(forecast_mape_pct=metrics.mape(rep.actuals, rep.predictions))
        return problems

    def digest(self):
        return combined_digest({i: d for i, d in enumerate(self.first)})


# --- gbt -------------------------------------------------------------------

class Gbt(Workload):
    """Reduced gradient-boosted-tree grid search, then test prediction."""

    name = "gbt"

    def setup(self):
        self.write_fixture()
        ds = self.ingest(os.path.join(self.work, "gbt"))
        with open(ds) as fh:
            d = dataio.dataset_from_json(fh.read())
        hours = [int(x) for x in self.scale.splits.split(":")]
        bounds = features.tail_splits(len(d), *hours)
        spec = features.fit_feature_spec(d, slice(*bounds[0]),
                                         window_len=self.scale.window)
        self.data = features.build_examples(d, spec, bounds)
        self.kw, self.bounds = d.kw, bounds
        self.X_test = baselines.flatten_features(self.data.test)

    def op(self, i):
        s = self.scale
        t0 = time.perf_counter()
        gbt, report = baselines.gbt_grid_search(
            self.data, n_estimators_grid=s.gbt_trees,
            max_depth_grid=s.gbt_depths, learning_rate_grid=s.gbt_rates)
        t1 = time.perf_counter()
        pred = gbt.predict(self.X_test)
        t2 = time.perf_counter()
        return {"model": gbt, "report": report, "pred": pred,
                "times": {"grid": t1 - t0, "predict": t2 - t1}}

    def check(self, outcome):
        s = self.scale
        report, pred = outcome["report"], outcome["pred"]
        problems = []
        cells = len(s.gbt_trees) * len(s.gbt_depths) * len(s.gbt_rates)
        if len(report) != cells:
            problems.append(f"grid report has {len(report)} cells, expected {cells}")
        if not all(math.isfinite(c["val_mse"]) for c in report):
            problems.append("grid cell with a non-finite validation MSE")
        if pred.shape != (len(self.data.test),) or not np.all(np.isfinite(pred)):
            problems.append("test prediction has the wrong length or a non-finite value")
        problems += self.compare_to_reference({
            "model": hashlib.sha256(outcome["model"].to_json().encode()).hexdigest(),
            "pred": hashlib.sha256(pred.tobytes()).hexdigest()})
        if not problems:
            spec = self.data.spec
            actual = spec.denormalize_kw(self.data.test.y)
            kw = np.maximum(spec.denormalize_kw(pred), 0.0)
            self.set_quality(metrics.mape(actual, kw), self.kw, self.bounds)
            self.record(grid_s=outcome["times"]["grid"],
                        predict_s=outcome["times"]["predict"])
        return problems


WORKLOADS = {w.name: w for w in (CliPipeline, TrainLongWindow, ForecastServe, Gbt)}
