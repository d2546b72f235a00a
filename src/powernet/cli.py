"""Command-line surface: ingest, train, grid-search, evaluate, forecast,
anomaly, synth.

Exit codes: 0 success; 2 an InputError, input the caller must fix; 1 a
TrainingError, training that diverged. Either prints one ``error:`` line.
Every usage error, argparse's own included, is an InputError that
``main`` prints before anything is written; only ``--help`` leaves
through SystemExit(0).

A command computes every file it writes before it writes any: ``main``
then makes the output directory (``--out``, else $POWERNET_OUT, else .),
writes the files through ``dataio.write_text`` and prints the command's
summary line, so a command that fails while it computes (exit 1 or 2)
leaves ``--out`` as it was. An output that cannot be written (``--out`` an
existing file, or an output name an existing directory) is exit 2 too,
refused before the first file is written. All outputs are deterministic
for a fixed config, seed and BLAS thread count (README gives how far
thread counts move them), and safe to overwrite.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import baselines, dataio, synth
from .dataio import json_text
from .features import (N_AUX_FEATURES, FeatureSpec, build_examples,
                       fit_feature_spec, tail_splits)
from .forecast_anomaly import (DetectorConfig, TheftScenario, apply_theft,
                               detect_consumer, forecast_recursive,
                               forecast_with_actuals, residual_stats,
                               retraining_analysis, theft_sweep)
from .metrics import mape, mse
from .model import checkpoint_from_dict, checkpoint_to_json, forward_batch
from .numcore import Check, InputError, check, integer, real
from .training import TrainConfig, TrainingError, grid_search, train

USAGE_ERROR = 2
INTERNAL_ERROR = 1

#: Config keys that shape the examples, with their defaults; every other
#: config key is a TrainConfig field.
EXAMPLE_DEFAULTS = {"splits": "624:48:48", "window_len": None,
                    "acf_threshold": 0.5}
#: What each config key holds, whether it comes from the file or a flag.
#: The learning rate is capped at 1, where Adam's steps outgrow the weights
#: and training diverges; TrainConfig itself takes any positive rate.
CONFIG_CHECKS = {
    **TrainConfig.CHECKS,
    "learning_rate": real(0, 1, strict=True),
    "splits": Check("TRAIN:VAL:TEST hours, each >= 1", lambda t: len(t) == 3 and min(t) >= 1,
                    lambda v: tuple(map(int, v.split(":")))),
    "window_len": Check("null or int >= 1", lambda v: v is None or integer(1).ok(v)),
    "acf_threshold": real(0, 1, strict=True),
}


def _csv(header, rows) -> str:
    """``rows`` under ``header`` as CSV text: an int as it is, every other
    value as ``repr(float(v))``, which reads back as the same float."""
    return dataio.csv_text(header, ([v if isinstance(v, (int, np.integer)) else repr(float(v))
                                     for v in row] for row in rows))


def _parse_file(path, what: str, parse):
    """``parse`` applied to the text of the file at ``path``, read once; an
    unreadable or malformed file is a usage error."""
    text = dataio.read_text(path, what)
    try:
        return parse(text)
    except KeyError as exc:
        raise InputError(f"malformed {what} {path}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError, RecursionError) as exc:
        raise InputError(f"malformed {what} {path}: {exc}") from exc


def _load_config(args) -> dict:
    """Every config key: the defaults, then the file, then the flags, which
    win; checked against CONFIG_CHECKS before any data is read.

    Then a flag naming a key the command never reads is a usage error: the
    GBT reads only the example keys, powernet ``train`` no grid and
    ``grid-search`` no single memory size. A config file may hold any key,
    since one file can serve both commands."""
    cfg = {**TrainConfig().to_dict(), **EXAMPLE_DEFAULTS}
    if args.config:
        doc = _parse_file(args.config, "config", json.loads)
        if not isinstance(doc, dict):
            raise InputError(f"config {args.config} must be a JSON object")
        unknown = set(doc) - set(CONFIG_CHECKS)
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(doc)
    flags = [key for key in vars(args) if key in CONFIG_CHECKS]
    cfg.update((key, getattr(args, key)) for key in flags)
    cfg = check(cfg, CONFIG_CHECKS, "config")
    gbt = args.model == "gbt"
    unread = "memory_size" if args.grid else "memory_size_grid"
    for key in flags:
        if gbt and key not in EXAMPLE_DEFAULTS or key == unread:
            raise InputError(f"--{key.replace('_', '-')} is not used by "
                             f"{args.command}{' --model gbt' if gbt else ''}")
    return cfg


def _load_dataset(path):
    return _parse_file(path, "dataset", dataio.dataset_from_json)


def _prepare_examples(d, cfg: dict, path):
    need, splits = sum(cfg["splits"]), ":".join(map(str, cfg["splits"]))
    if need > len(d):
        raise InputError(f"dataset {path} is too short for --splits {splits}: "
                         f"need {need} rows, have {len(d)}")
    bounds = tail_splits(len(d), *cfg["splits"])
    spec = fit_feature_spec(d, slice(*bounds[0]), window_len=cfg["window_len"],
                            acf_threshold=cfg["acf_threshold"])
    return build_examples(d, spec, bounds), bounds


def cmd_synth(args):
    vars(args).update(check(vars(args), {"days": integer(1), "apartments": integer(1),
                                         "seed": integer(0)}, "synth"))
    return (synth.fixture_files(args.days, args.apartments, args.seed, args.format),
            f"wrote {args.apartments} consumption files + weather.csv to {args.out}")


def cmd_ingest(args):
    if not args.aggregate and len(args.consumption) > 1:
        raise InputError("multiple consumption files require --aggregate")
    report = dataio.IngestReport()
    series = [dataio.resample_hourly(
                  dataio.load_consumption(p, args.format, report=report))
              for p in args.consumption]
    for path, s in zip(args.consumption, series):
        if args.aggregate and (s.start, len(s)) != (series[0].start, len(series[0])):
            raise InputError(
                f"--aggregate needs files over the same hours: {path} has {len(s)} hours "
                f"from {dataio.format_timestamp(s.start)}, {args.consumption[0]} "
                f"{len(series[0])} hours from {dataio.format_timestamp(series[0].start)}")
    hourly = dataio.aggregate(series) if args.aggregate else series[0]
    hourly = dataio.fill_gaps(hourly, max_run=args.fill_max_run)
    weather = dataio.load_weather(args.weather)
    aligned = dataio.align(hourly, weather)
    ingest_doc = {
        **asdict(report),
        "aligned_hours": len(aligned),
        "dropped_hours": aligned.dropped_hours,
        "remaining_gaps": hourly.gap_count(),
    }
    return ({"dataset.json": dataio.dataset_to_json(aligned),
             "ingest_report.json": json_text(ingest_doc)},
            f"aligned {len(aligned)} hours -> {args.out}/dataset.json")


def cmd_train(args):
    cfg = _load_config(args)
    tcfg = TrainConfig(**{key: cfg[key] for key in TrainConfig.CHECKS})
    d = _load_dataset(args.dataset)
    data, bounds = _prepare_examples(d, cfg, args.dataset)
    spec, splits = data.spec.to_dict(), [list(b) for b in bounds]
    files = {}
    if args.model == "gbt":
        model, report = (baselines.gbt_grid_search(data) if args.grid
                         else (baselines.fit_gbt_examples(data), []))
        checkpoint = json_text({**model.to_dict(), "feature_spec": spec, "splits": splits})
        done = "gbt model written to"
    else:
        if args.grid:
            params, report, cell_reports = grid_search(data, tcfg)
            files["grid_report.json"] = json_text({
                str(m): None if r is None else r.to_dict() for m, r in cell_reports.items()})
        else:
            params, report = train(data, tcfg)
        hyper = {**{key: cfg[key] for key in ("d1", "d2", "d3", "stack")},
                 "memory_size": report.memory_size, "splits": splits}
        checkpoint = checkpoint_to_json(params, hyper, spec, cfg["seed"])
        files["curves.csv"] = _csv(["epoch", "train_loss", "val_mse"], zip(
            range(len(report.val_mse)), report.train_loss, report.val_mse))
        done = f"best val MSE {report.best_val_mse:.6g} (epoch {report.best_epoch}) ->"
        report = report.to_dict()
    files.update({"checkpoint.json": checkpoint, "report.json": json_text(report)})
    return files, f"{done} {args.out}/checkpoint.json"


def _model_inputs(args):
    """(params, predict, spec, splits, d) from ``--checkpoint`` and
    ``--dataset``. ``predict(split)`` gives the checkpoint's normalized
    predictions on a split of examples, for either model kind; ``params``
    holds the powernet weights and is None for a GBT; ``splits`` is None
    when the checkpoint records none.

    Commands with a ``--horizon`` need a powernet checkpoint, and
    ``_check_horizon`` sets and checks their ``start_row``."""
    def parse(text):
        doc = json.loads(text)
        spec = FeatureSpec.from_dict(doc["feature_spec"])
        if doc.get("model_type") == "gbt":
            # a GBT row is the window, then the weather/calendar features
            model = baselines.GbtModel.from_dict(doc, spec.window_len + N_AUX_FEATURES)
            return (None, lambda s: model.predict(baselines.flatten_features(s)),
                    spec, doc.get("splits"))
        params, hyper, _, _ = checkpoint_from_dict(doc)
        return (params, lambda s: forward_batch(s.E, s.FW, s.FC, params)[0],
                spec, hyper.get("splits"))

    params, predict, spec, splits = _parse_file(args.checkpoint, "checkpoint", parse)
    forecasting = hasattr(args, "horizon")
    if forecasting and params is None:
        raise InputError(f"{args.command} requires a powernet checkpoint")
    d = _load_dataset(args.dataset)
    if forecasting:
        _check_horizon(args, spec.window_len, len(d))
    return params, predict, spec, splits, d


def _check_horizon(args, window: int, rows: int):
    """Refuse, before any work, a ``--horizon`` or ``--start-row`` whose
    hours do not fit in the dataset's ``rows`` after the checkpoint's
    ``window`` hours of history, and for ``--detect-theta`` as many clean
    hours again before those; ``--start-row`` defaults to ``rows - horizon``."""
    h, detect = args.horizon, getattr(args, "detect_theta", None) is not None
    if h < 1:
        raise InputError(f"--horizon must be >= 1, got {h}")
    history = window + h * detect   # rows read before --start-row
    if args.start_row is None:
        args.start_row, need = rows - h, f"--horizon {h} needs {history + h} rows"
    else:
        need = (f"--start-row {args.start_row} with --horizon {h} needs rows "
                f"{args.start_row - history}..{args.start_row + h - 1}")
    if not history <= args.start_row <= rows - h:
        clean = f" and {h} clean hours for --detect-theta" if detect else ""
        raise InputError(f"{need} of {args.dataset}, which has {rows} rows: {window} "
                         f"hours of history (the checkpoint's window){clean} come "
                         f"before the {h} hours")


def cmd_evaluate(args):
    _, predict, spec, splits, d = _model_inputs(args)
    if splits is None:
        raise InputError("checkpoint does not record split boundaries")
    split = getattr(build_examples(d, spec, splits), args.split)
    actual = spec.denormalize_kw(split.y)
    pred = np.maximum(spec.denormalize_kw(predict(split)), 0.0)
    err = mse(actual, pred)
    if not math.isfinite(err):
        raise InputError(f"the checkpoint's {args.split} predictions overflow: "
                         f"squared errors are not finite")
    doc = {"split": args.split, "mse": err, "mape": mape(actual, pred), "n": len(actual)}
    return ({f"evaluate_{args.split}.json": json_text(doc)},
            f"{args.split}: MSE {doc['mse']:.6g}  MAPE {doc['mape']:.3f}%")


def cmd_forecast(args):
    if args.thresholds and not all(map(math.isfinite, args.thresholds)):
        raise InputError(f"--thresholds must be finite, got {args.thresholds}")
    params, _, spec, _, d = _model_inputs(args)
    fn = forecast_recursive if args.mode == "recursive" else forecast_with_actuals
    report = fn(params, spec, d, args.start_row, args.horizon)
    name, c = f"forecast_{args.mode}", report.curves
    doc = {"mode": report.mode, "horizon": report.horizon,
           "start_ts": report.start_ts,
           "predictions": [repr(float(v)) for v in report.predictions],
           "actuals": [repr(float(v)) for v in report.actuals],
           "mse": mse(report.actuals, report.predictions),
           "mape": mape(report.actuals, report.predictions)}
    files = {name + ".csv": _csv(["hour", "actual_kw", "predicted_kw"],
                                 zip(c.hours, report.actuals, report.predictions)),
             name + "_curve.csv": _csv(
                 ["hour", "cum_mape", "cum_mse", "roll_mape", "roll_mse"],
                 zip(c.hours, c.cum_mape, c.cum_mse, c.roll_mape, c.roll_mse)),
             name + ".json": json_text(doc)}
    if args.thresholds:
        files["retraining.json"] = json_text(retraining_analysis(report, args.thresholds))
    return files, f"{args.mode} horizon {args.horizon}: MAPE {doc['mape']:.3f}%"


def cmd_anomaly(args):
    theta = TheftScenario.CHECKS["theta"]
    args.thetas = [check(t, theta, "--thetas") for t in args.thetas]
    detect = args.detect_theta is not None
    if detect:   # detector settings are checked before any work
        args.detect_theta = check(args.detect_theta, theta, "--detect-theta")
        cfg = DetectorConfig(window=args.detector_window, k=args.detector_k)
        if args.horizon < cfg.window:
            raise InputError(f"--horizon {args.horizon} is shorter than --detector-window "
                             f"{cfg.window}: need at least {cfg.window} hours, "
                             f"have {args.horizon}")
    params, _, spec, _, d = _model_inputs(args)
    horizon, start_row = args.horizon, args.start_row
    if detect:   # a clean span the model cannot read is refused before the sweep
        clean = forecast_with_actuals(params, spec, d, start_row - horizon, horizon)
        stats = residual_stats(clean.predictions, clean.actuals, cfg)
    test = forecast_with_actuals(params, spec, d, start_row, horizon)
    rows = theft_sweep(params, spec, d, start_row, horizon, args.thetas,
                       clean=test)
    result = {"sweep": rows}
    if detect:
        reported = apply_theft(test.actuals,
                               TheftScenario(args.detect_theta, 0, horizon))
        alarms = detect_consumer(test.predictions, reported, cfg, stats)
        result["detection"] = {"theta": args.detect_theta,
                               "alarms": alarms,
                               "windows": int(horizon - cfg.window + 1)}
    return ({"theft_sweep.csv": _csv(["theta", "mape"],
                                     ((r["theta"], r["mape"]) for r in rows)),
             "anomaly.json": json_text(result)},
            f"theft sweep over {len(rows)} thetas -> {args.out}/theft_sweep.csv")


def _floats(text: str):
    """A comma-separated list of floats; empty entries are skipped."""
    return [float(x) for x in text.split(",") if x.strip()]


def _config_value(text: str):
    """A config flag's value: an int or float literal as Python reads it,
    else JSON such as ``null`` or ``[64,128]``, else the text itself. The
    config's check then judges it as it judges the file's key."""
    for decode in (int, float, json.loads):
        try:
            return decode(text)
        except (ValueError, RecursionError):   # json.loads: nested too deep
            pass
    return text


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """argparse's usage error is an InputError, which ``main`` prints."""
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="powernet",
        description="Power-demand forecasting and theft-anomaly toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="output directory (default $POWERNET_OUT or .)")

    p = sub.add_parser("synth", help="generate a synthetic fixture directory")
    common(p)
    p.add_argument("--days", type=int, default=35)
    p.add_argument("--apartments", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["per_minute", "per_quarter_hour"],
                   default="per_quarter_hour")
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("ingest", help="align consumption and weather CSVs")
    common(p)
    p.add_argument("--consumption", nargs="+", required=True)
    p.add_argument("--weather", required=True)
    p.add_argument("--format", choices=sorted(dataio.STEP_OF_FORMAT),
                   default="per_quarter_hour")
    p.add_argument("--aggregate", action="store_true",
                   help="sum all consumption files into one series")
    p.add_argument("--fill-max-run", type=int, default=3)
    p.set_defaults(fn=cmd_ingest)

    for name, grid, what in (("train", False, "train one model"),
                             ("grid-search", True, "train over the parameter grid")):
        p = sub.add_parser(name, help=what)
        common(p)
        p.add_argument("--dataset", required=True)
        p.add_argument("--config", help="JSON config file; flags win")
        p.add_argument("--model", choices=["powernet", "gbt"], default="powernet")
        for key, rule in CONFIG_CHECKS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=_config_value,
                           default=argparse.SUPPRESS, help=rule.kind)
        p.set_defaults(fn=cmd_train, grid=grid)

    def model_args(p, horizon=None):
        common(p)
        p.add_argument("--checkpoint", required=True)
        p.add_argument("--dataset", required=True)
        if horizon is not None:
            p.add_argument("--horizon", type=int, default=horizon)
            p.add_argument("--start-row", dest="start_row", type=int)

    p = sub.add_parser("evaluate", help="metrics of a checkpoint on a split")
    model_args(p)
    p.add_argument("--split", choices=["train", "validation", "test"],
                   default="test")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("forecast", help="multi-horizon forecast")
    model_args(p, horizon=720)
    p.add_argument("--mode", choices=["recursive", "actual"], default="recursive")
    p.add_argument("--thresholds", type=_floats,
                   help="cumulative-MAPE thresholds for the retraining table")
    p.set_defaults(fn=cmd_forecast)

    p = sub.add_parser("anomaly", help="theft sweep and detection")
    model_args(p, horizon=336)
    p.add_argument("--thetas", type=_floats,
                   default=[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
    p.add_argument("--detect-theta", dest="detect_theta", type=float)
    p.add_argument("--detector-window", dest="detector_window", type=int, default=24)
    p.add_argument("--detector-k", dest="detector_k", type=float, default=3.0)
    p.set_defaults(fn=cmd_anomaly)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        args.out = args.out or os.environ.get("POWERNET_OUT") or "."
        with np.errstate(all="ignore"):   # overflow is checked, not warned
            files, summary = args.fn(args)
        paths = {os.path.join(args.out, name): text for name, text in files.items()}
        for path in filter(os.path.isdir, paths):   # before any file is written
            raise InputError(f"cannot write {path}: it is a directory")
        for path, text in paths.items():
            dataio.write_text(path, text)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
