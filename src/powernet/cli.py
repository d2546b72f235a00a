"""Command-line surface: ingest, train, grid-search, evaluate, forecast,
anomaly, synth.

Exit codes: 0 success; 2 an InputError, input the caller must fix; 1 a
TrainingError, training that diverged. Either prints one ``error:`` line.
All outputs are deterministic for a fixed config, seed and BLAS thread
count (at memory size 128, one and two OpenBLAS threads train to
parameters that differ by up to 3.7e-15 relative), and safe to overwrite.
The default output directory can be set via the POWERNET_OUT environment
variable.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import baselines, dataio, synth
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
    "splits": Check("TRAIN:VAL:TEST hours", lambda t: len(t) == 3 and min(t) >= 0,
                    lambda v: tuple(map(int, v.split(":")))),
    "window_len": Check("null or int >= 1", lambda v: v is None or integer(1).ok(v)),
    "acf_threshold": real(0, 1, strict=True),
}


def _out_dir(args) -> str:
    out = args.out or os.environ.get("POWERNET_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _write_json(path, doc):
    """Write ``doc`` as JSON; a non-finite float raises ValueError before
    the file is opened."""
    _write(path, json.dumps(doc, indent=1, sort_keys=True, allow_nan=False))


def _write_csv(path, header, rows):
    """Write ``rows`` under ``header`` as CSV: an int as it is, every other
    value as ``repr(float(v))``, which reads back as the same float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, (int, np.integer)) else repr(float(v))
                          for v in row] for row in rows)


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


def _prepare_examples(d, cfg: dict):
    bounds = tail_splits(len(d), *cfg["splits"])
    spec = fit_feature_spec(d, slice(*bounds[0]), window_len=cfg["window_len"],
                            acf_threshold=cfg["acf_threshold"])
    return build_examples(d, spec, bounds), bounds


def cmd_synth(args):
    check(vars(args), {"days": integer(1), "apartments": integer(1),
                       "seed": integer(0)}, "synth")
    out = _out_dir(args)
    synth.write_fixture_dir(out, days=args.days, apartments=args.apartments,
                            seed=args.seed, fmt=args.format)
    print(f"wrote {args.apartments} consumption files + weather.csv to {out}")
    return 0


def cmd_ingest(args):
    if not args.aggregate and len(args.consumption) > 1:
        raise InputError("multiple consumption files require --aggregate")
    report = dataio.IngestReport()
    series = [dataio.resample_hourly(
                  dataio.load_consumption(p, args.format, report=report))
              for p in args.consumption]
    hourly = dataio.aggregate(series) if args.aggregate else series[0]
    hourly = dataio.fill_gaps(hourly, max_run=args.fill_max_run)
    weather = dataio.load_weather(args.weather)
    aligned = dataio.align(hourly, weather)
    out = _out_dir(args)
    _write(os.path.join(out, "dataset.json"), dataio.dataset_to_json(aligned))
    ingest_doc = {
        **asdict(report),
        "aligned_hours": len(aligned),
        "dropped_hours": aligned.dropped_hours,
        "remaining_gaps": hourly.gap_count(),
    }
    _write_json(os.path.join(out, "ingest_report.json"), ingest_doc)
    print(f"aligned {len(aligned)} hours -> {out}/dataset.json")
    return 0


def cmd_train(args):
    cfg = _load_config(args)
    tcfg = TrainConfig(**{key: cfg[key] for key in TrainConfig.CHECKS})
    d = _load_dataset(args.dataset)
    data, bounds = _prepare_examples(d, cfg)
    out = _out_dir(args)
    if args.model == "gbt":
        if args.grid:
            model, report = baselines.gbt_grid_search(data)
        else:
            model = baselines.fit_gbt_examples(data)
            report = []
        doc = model.to_dict()
        doc["feature_spec"] = data.spec.to_dict()
        doc["splits"] = [list(b) for b in bounds]
        _write_json(os.path.join(out, "checkpoint.json"), doc)
        _write_json(os.path.join(out, "report.json"), report)
        print(f"gbt model written to {out}/checkpoint.json")
        return 0
    if args.grid:
        params, report, cell_reports = grid_search(data, tcfg)
        _write_json(os.path.join(out, "grid_report.json"),
                    {str(m): (None if r is None else r.to_dict())
                     for m, r in cell_reports.items()})
        memory_size = report.memory_size
    else:
        memory_size = tcfg.memory_size
        params, report = train(data, tcfg)
    hyper = {"memory_size": memory_size, "d1": params.w1.shape[0],
             "d2": params.w2.shape[0], "d3": params.w3.shape[0],
             "stack": len(params.lstm),
             "splits": [list(b) for b in bounds]}
    _write(os.path.join(out, "checkpoint.json"),
           checkpoint_to_json(params, hyper, data.spec.to_dict(), cfg["seed"]))
    _write_json(os.path.join(out, "report.json"), report.to_dict())
    _write_csv(os.path.join(out, "curves.csv"), ["epoch", "train_loss", "val_mse"],
               zip(range(len(report.val_mse)), report.train_loss, report.val_mse))
    print(f"best val MSE {report.best_val_mse:.6g} (epoch {report.best_epoch}) "
          f"-> {out}/checkpoint.json")
    return 0


def _model_inputs(args):
    """(kind, model, spec, splits, d) from ``--checkpoint`` and
    ``--dataset``; ``splits`` is None when the checkpoint records none.

    Commands with a ``--horizon`` need a powernet checkpoint, and their
    ``start_row`` defaults to ``len(d) - horizon``."""
    def parse(text):
        doc = json.loads(text)
        spec = FeatureSpec.from_dict(doc["feature_spec"])
        if doc.get("model_type") == "gbt":
            # a GBT row is the window, then the weather/calendar features
            model = baselines.GbtModel.from_dict(doc, spec.window_len + N_AUX_FEATURES)
            return "gbt", model, spec, doc.get("splits")
        params, hyper, _, _ = checkpoint_from_dict(doc)
        return "powernet", params, spec, hyper.get("splits")

    kind, model, spec, splits = _parse_file(args.checkpoint, "checkpoint", parse)
    forecasting = hasattr(args, "horizon")
    if forecasting and kind != "powernet":
        raise InputError(f"{args.command} requires a powernet checkpoint")
    d = _load_dataset(args.dataset)
    if forecasting and args.start_row is None:
        args.start_row = len(d) - args.horizon
    return kind, model, spec, splits, d


def _split_predictions(kind, model, spec, data, split_name):
    """(actual, predicted) kW on the split; predictions whose squared
    errors overflow are a usage error."""
    split = getattr(data, split_name)
    if kind == "gbt":
        pred = model.predict(baselines.flatten_features(split))
    else:
        pred, _ = forward_batch(split.E, split.FW, split.FC, model)
    actual, pred = spec.denormalize_kw(split.y), np.maximum(spec.denormalize_kw(pred), 0.0)
    if not math.isfinite(mse(actual, pred)):
        raise InputError(f"the checkpoint's {split_name} predictions overflow: "
                         f"squared errors are not finite")
    return actual, pred


def cmd_evaluate(args):
    kind, model, spec, splits, d = _model_inputs(args)
    if splits is None:
        raise InputError("checkpoint does not record split boundaries")
    data = build_examples(d, spec, splits)
    actual, pred = _split_predictions(kind, model, spec, data, args.split)
    out = _out_dir(args)
    doc = {"split": args.split, "mse": mse(actual, pred),
           "mape": mape(actual, pred), "n": len(actual)}
    _write_json(os.path.join(out, f"evaluate_{args.split}.json"), doc)
    print(f"{args.split}: MSE {doc['mse']:.6g}  MAPE {doc['mape']:.3f}%")
    return 0


def cmd_forecast(args):
    if args.thresholds and not all(map(math.isfinite, args.thresholds)):
        raise InputError(f"--thresholds must be finite, got {args.thresholds}")
    _, model, spec, _, d = _model_inputs(args)
    fn = forecast_recursive if args.mode == "recursive" else forecast_with_actuals
    report = fn(model, spec, d, args.start_row, args.horizon)
    out = _out_dir(args)
    name = os.path.join(out, f"forecast_{args.mode}")
    c = report.curves
    _write_csv(name + ".csv", ["hour", "actual_kw", "predicted_kw"],
               zip(c.hours, report.actuals, report.predictions))
    _write_csv(name + "_curve.csv",
               ["hour", "cum_mape", "cum_mse", "roll_mape", "roll_mse"],
               zip(c.hours, c.cum_mape, c.cum_mse, c.roll_mape, c.roll_mse))
    doc = {"mode": report.mode, "horizon": report.horizon,
           "start_ts": report.start_ts,
           "predictions": [repr(float(v)) for v in report.predictions],
           "actuals": [repr(float(v)) for v in report.actuals],
           "mse": mse(report.actuals, report.predictions),
           "mape": mape(report.actuals, report.predictions)}
    _write_json(name + ".json", doc)
    if args.thresholds:
        table = retraining_analysis(report, args.thresholds)
        _write_json(os.path.join(out, "retraining.json"), table)
    print(f"{args.mode} horizon {args.horizon}: MAPE {doc['mape']:.3f}%")
    return 0


def cmd_anomaly(args):
    detect = args.detect_theta is not None
    if detect:   # detector settings are checked before any work
        cfg = DetectorConfig(window=args.detector_window, k=args.detector_k)
    _, model, spec, _, d = _model_inputs(args)
    horizon, start_row = args.horizon, args.start_row
    test = forecast_with_actuals(model, spec, d, start_row, horizon)
    rows = theft_sweep(model, spec, d, start_row, horizon, args.thetas,
                       clean=test)
    result = {"sweep": rows}
    if detect:
        clean = forecast_with_actuals(model, spec, d, start_row - horizon, horizon)
        stats = residual_stats(clean.predictions, clean.actuals, cfg)
        reported = apply_theft(test.actuals,
                               TheftScenario(args.detect_theta, 0, horizon))
        alarms = detect_consumer(test.predictions, reported, cfg, stats)
        result["detection"] = {"theta": args.detect_theta,
                               "alarms": alarms,
                               "windows": int(horizon - cfg.window + 1)}
    out = _out_dir(args)   # written only once everything is computed
    _write_csv(os.path.join(out, "theft_sweep.csv"), ["theta", "mape"],
               ((r["theta"], r["mape"]) for r in rows))
    _write_json(os.path.join(out, "anomaly.json"), result)
    print(f"theft sweep over {len(rows)} thetas -> {out}/theft_sweep.csv")
    return 0


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
        """A usage error is one ``error:`` line and exit 2, through SystemExit."""
        self.exit(USAGE_ERROR, f"error: {message}\n")


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):   # overflow is checked, not warned
            return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
