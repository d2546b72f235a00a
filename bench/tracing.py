"""Per-layer tracing for the benchmark's traced runs.

Wrappers are installed from outside the program: every module attribute of
``powernet`` that holds one of the traced public functions is replaced by a
wrapper that records a span (name, start, end, parent span, request id) and
a few counts read from the call's arguments and result. Spans stay in
memory and are written out when the run ends. Nothing here changes what the
wrapped functions compute.

Layer statistics are normalised per measured operation (one CLI journey,
one training run, one request or one grid fit), so they compare across
versions whose runs complete a different number of operations. The synth
layer runs only during set-up; its time is per set-up.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable

SETUP_RID = "setup"


# --- count extractors: (args, kwargs, result, pre) -> {stat: number} -------

def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _report_before(args, kwargs):
    report = _arg(args, kwargs, 3, "report")
    return None if report is None else (report.rows_parsed, report.rows_malformed)


def _load_consumption_counts(args, kwargs, result, pre):
    report = _arg(args, kwargs, 3, "report")
    if report is None:
        return {}
    return {"rows": report.rows_parsed - pre[0],
            "rows_malformed": report.rows_malformed - pre[1]}


def _example_counts(args, kwargs, result, pre):
    return {"examples": len(result.train) + len(result.validation) + len(result.test),
            "skipped": result.skipped}


def gemm_flops(batch: int, steps: int, p) -> int:
    """Multiply-add flops of one forward pass, from the array shapes.

    Counts every matrix product (2 flops per multiply-add) of the stacked
    LSTM over ``steps`` time steps, the fusion MLP and the head; elementwise
    gate arithmetic is left out.
    """
    total = 0
    for layer in p.lstm:
        rows, in_dim = layer.w_x.shape
        total += 2 * batch * steps * rows * (in_dim + layer.w_h.shape[1])
    for w in (p.w1, p.w2, p.w3):
        total += 2 * batch * w.shape[0] * w.shape[1]
    return total + 2 * batch * p.w4.shape[0]


def _is_train(args, kwargs):
    return bool(_arg(args, kwargs, 5, "train", False))


def _forward_name(args, kwargs):
    return "model.forward_batch.train" if _is_train(args, kwargs) else "model.forward_batch.infer"


def _forward_counts(args, kwargs, result, pre):
    E = args[0] if args else kwargs["E"]
    batch, steps = len(E), len(E[0])
    out = {"examples": batch}
    if _is_train(args, kwargs):
        # backward costs two forward passes: one product for the weight
        # gradient and one for the input gradient per forward product
        out["flops"] = 3 * gemm_flops(batch, steps, _arg(args, kwargs, 3, "p"))
    return out


def _adam_counts(args, kwargs, result, pre):
    return {"params": sum(a.size for _, a in result.arrays())}


def _best_split_counts(args, kwargs, result, pre):
    return {"useful": 0 if result is None else 1}


def _horizon_counts(args, kwargs, result, pre):
    return {"hours": result.horizon}


@dataclass(frozen=True)
class Layer:
    """One traced public function: ``module.function`` in ``powernet``."""

    target: str
    name: str | Callable = ""       # span name; defaults to the target
    counts: Callable | None = None
    before: Callable | None = None


LAYERS = (
    Layer("dataio.load_consumption", counts=_load_consumption_counts,
          before=_report_before),
    Layer("dataio.load_weather"),
    Layer("dataio.resample_hourly"),
    Layer("dataio.aggregate"),
    Layer("dataio.fill_gaps"),
    Layer("dataio.align",
          counts=lambda a, k, r, pre: {"hours_dropped": r.dropped_hours}),
    Layer("dataio.dataset_to_json"),
    Layer("dataio.dataset_from_json"),
    Layer("features.fit_feature_spec"),
    Layer("features.build_examples", counts=_example_counts),
    Layer("features.calendar_features"),
    Layer("features.weather_features"),
    Layer("model.forward_batch", name=_forward_name, counts=_forward_counts),
    Layer("model.backward_batch"),
    Layer("model.checkpoint_to_json",
          counts=lambda a, k, r, pre: {"bytes": len(r)}),
    Layer("model.checkpoint_from_json"),
    Layer("training.adam_step", counts=_adam_counts),
    Layer("training.train",
          counts=lambda a, k, r, pre: {"epochs": len(r[1].train_loss)}),
    Layer("training.loss"),
    Layer("metrics.mse", name="metrics.metrics"),
    Layer("metrics.mape", name="metrics.metrics"),
    Layer("metrics.error_curve", name="metrics.metrics"),
    Layer("baselines.best_split", counts=_best_split_counts),
    Layer("baselines.fit_tree"),
    Layer("baselines.tree_predict"),
    Layer("baselines.fit_gbt"),
    Layer("baselines.gbt_grid_search"),
    Layer("forecast_anomaly.forecast_recursive", counts=_horizon_counts),
    Layer("forecast_anomaly.forecast_with_actuals", counts=_horizon_counts),
    Layer("forecast_anomaly.theft_sweep"),
    Layer("forecast_anomaly.residual_stats"),
    Layer("forecast_anomaly.detect_consumer"),
    Layer("synth.write_fixture_dir"),
)

#: Modules whose layer total is reported as ``<module>.all.s``.
TOTAL_MODULES = ("dataio", "features", "model", "training", "baselines",
                 "forecast_anomaly")


class Tracer:
    """Records spans while ``rid`` (the current request id) is set."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []         # (name, start, end, parent index, rid, counts)
        self.rid = None
        self._open = []         # indices of spans still running
        self._patched = []      # (module, attribute, original)

    def wrap(self, fn, layer: Layer):
        """A wrapper around ``fn`` that records one span per traced call."""
        tracer = self
        spans, open_ = self.spans, self._open
        clock = self.clock
        static_name = layer.name or layer.target
        name_of = static_name if callable(static_name) else None
        counts, before = layer.counts, layer.before

        def traced(*args, **kwargs):
            rid = tracer.rid
            if rid is None:
                return fn(*args, **kwargs)
            name = name_of(args, kwargs) if name_of else static_name
            pre = before(args, kwargs) if before else None
            idx = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append(None)
            open_.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[idx] = (name, start, end, parent, rid, None)
            if counts:
                spans[idx] = (name, start, end, parent, rid,
                              counts(args, kwargs, result, pre))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self, modules, layers=LAYERS):
        """Wrap each layer's function in every module that refers to it."""
        for layer in layers:
            mod_name, fn_name = layer.target.split(".")
            original = getattr(modules[mod_name], fn_name)
            wrapper = self.wrap(original, layer)
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, rid, counts in self.spans:
                fh.write(json.dumps([name, start, end, parent, rid, counts]) + "\n")


def self_times(spans):
    """Each span's duration minus the time its direct children cover."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def aggregate(spans, keep):
    """{span name: {"s": self time, "calls": n, <count>: sum}} over the
    spans whose request id satisfies ``keep``."""
    out = {}
    for span, own in zip(spans, self_times(spans)):
        name, _, _, _, rid, counts = span
        if not keep(rid):
            continue
        acc = out.setdefault(name, {"s": 0.0, "calls": 0})
        acc["s"] += own
        acc["calls"] += 1
        for key, value in (counts or {}).items():
            acc[key] = acc.get(key, 0) + value
    return out


def layer_metrics(spans, n_ops: int, op_wall_s: float, n_setups: int = 1):
    """Flat per-layer metrics, per operation (synth: per set-up).

    ``op_wall_s`` is the summed wall time of the traced operations; the
    time inside no traced function is reported as ``trace.unattributed.s``.
    """
    if n_ops < 1:
        raise ValueError("need at least one traced operation")
    ops = aggregate(spans, lambda rid: rid is not None and rid != SETUP_RID)
    setup = aggregate(spans, lambda rid: rid == SETUP_RID)
    out = {}
    for name, acc in ops.items():
        if name.startswith("synth."):
            continue
        for stat, value in acc.items():
            out[f"{name}.{stat}"] = value / n_ops
    for name, acc in setup.items():
        if name.startswith("synth."):
            out[f"{name}.s"] = acc["s"] / n_setups
            out[f"{name}.calls"] = acc["calls"] / n_setups

    # ratios and per-call figures replace per-operation sums
    adam = ops.get("training.adam_step")
    if adam:
        out["training.adam_step.params"] = adam["params"] / adam["calls"]
    split = ops.get("baselines.best_split")
    if split:
        out["baselines.best_split.useful_ratio"] = split["useful"] / split["calls"]
        del out["baselines.best_split.useful"]
    fwd = ops.get("model.forward_batch.train")
    if fwd:
        busy = fwd["s"] + ops.get("model.backward_batch", {}).get("s", 0.0)
        out["model.forward_backward.flops"] = out.pop("model.forward_batch.train.flops")
        out["model.forward_backward.gflops_per_s"] = fwd["flops"] / busy / 1e9 if busy else 0.0
    ckpt = out.pop("model.checkpoint_to_json.bytes", None)
    if ckpt is not None:
        out["model.checkpoint.bytes"] = ckpt

    for module in TOTAL_MODULES:
        out[f"{module}.all.s"] = sum(acc["s"] for name, acc in ops.items()
                                     if name.split(".")[0] == module) / n_ops
    attributed = sum(acc["s"] for acc in ops.values())
    out["trace.op.s"] = op_wall_s / n_ops
    out["trace.unattributed.s"] = (op_wall_s - attributed) / n_ops
    out["trace.spans.count"] = sum(acc["calls"] for acc in ops.values()) / n_ops
    return out
