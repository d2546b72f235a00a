"""Multi-horizon forecasting and theft-anomaly detection.

Recursive forecasting feeds earlier predictions back into the history
window (error accumulates); actual-history mode predicts each hour from the
true past. The anomaly side simulates multiplicative under-reporting and
flags deviations between reported and predicted consumption, at consumer
level and at substation level via the technical-loss balance
master = sum(consumers) + TL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dataio import HOUR, AlignedDataset
from .features import (FeatureSpec, calendar_features, weather_features,
                       window_features)
from .metrics import ErrorCurve, error_curve, mape
from .model import PowerNetParams, forward_batch, forward_recursive
from .numcore import InputError, check, finite, integer, real


@dataclass
class ForecastReport:
    mode: str                 # "recursive" or "actual_history"
    horizon: int
    predictions: np.ndarray   # kW, clamped >= 0
    actuals: np.ndarray       # kW
    start_ts: int = 0

    @cached_property
    def curves(self) -> ErrorCurve:
        """Cumulative and rolling error curves, built on first read."""
        return error_curve(self.actuals, self.predictions)


def _target_rows(spec: FeatureSpec, d: AlignedDataset, start_row: int,
                 horizon: int, what: str) -> np.ndarray:
    """The rows start_row .. start_row + horizon - 1, checked to have one
    window of history and to form, with it, a contiguous hourly span."""
    n = spec.window_len
    if horizon < 1:
        raise InputError(f"horizon must be >= 1, got {horizon}")
    if start_row < n:
        raise InputError("history does not cover one window")
    if start_row + horizon > len(d):
        raise InputError(what)
    lo, hi = start_row - n, start_row + horizon
    if d.hours[hi - 1] - d.hours[lo] != (hi - 1 - lo) * HOUR:
        raise InputError(f"rows {lo}..{hi} are not a contiguous hourly span")
    return np.arange(start_row, hi)


def _report(mode: str, d: AlignedDataset, rows: np.ndarray,
            preds: np.ndarray) -> ForecastReport:
    """The report of ``preds`` for the target rows; predictions whose
    squared errors overflow (their running sum, as the cumulative MSE adds
    them, is not finite) are an InputError."""
    actuals = d.kw[rows]
    if not math.isfinite(np.cumsum((actuals - preds) ** 2)[-1]):
        raise InputError(f"{mode} predictions overflow: squared errors are not finite")
    return ForecastReport(mode=mode, horizon=len(rows), predictions=preds,
                          actuals=actuals, start_ts=int(d.hours[rows[0]]))


def forecast_recursive(p: PowerNetParams, spec: FeatureSpec,
                       d: AlignedDataset, start_row: int,
                       horizon: int) -> ForecastReport:
    """Forecast ``horizon`` hours from start_row with ``forward_recursive``,
    feeding each clamped prediction back as history; weather features come
    from the recorded future rows (perfect weather foresight), calendar
    from the target timestamps."""
    rows = _target_rows(spec, d, start_row, horizon,
                        "future weather does not cover the horizon")
    history = spec.normalize_kw(d.kw[start_row - spec.window_len:start_row])
    fw = weather_features(d.weather.rows(rows), spec)
    fc = calendar_features(d.hours[rows], spec)
    mean, std = float(spec.cons_mean), float(spec.cons_std)
    # normalize_kw(max(denormalize_kw(y), 0)): the same IEEE operations on floats
    yhat = forward_recursive(history, fw, fc, p,
                             lambda y: (max(float(y) * std + mean, 0.0) - mean) / std)
    return _report("recursive", d, rows,
                   np.maximum(spec.denormalize_kw(yhat), 0.0))


def forecast_with_actuals(p: PowerNetParams, spec: FeatureSpec,
                          d: AlignedDataset, start_row: int,
                          horizon: int) -> ForecastReport:
    """One-step-ahead prediction for each hour in the range, always using
    the true history (no error accumulation)."""
    rows = _target_rows(spec, d, start_row, horizon, "range exceeds the dataset")
    yhat, _ = forward_batch(*window_features(d, spec, rows), p)
    return _report("actual_history", d, rows,
                   np.maximum(spec.denormalize_kw(yhat), 0.0))


def retraining_analysis(report: ForecastReport, thresholds) -> list:
    """Hours at which the cumulative MAPE first crosses each threshold.

    Returns [{"threshold_pct", "crossing_hour"}]; crossing_hour is None when
    the curve never reaches the threshold.
    """
    curve = report.curves.cum_mape
    out = []
    for thr in thresholds:
        above = np.nonzero(curve >= thr)[0]
        out.append({"threshold_pct": float(thr),
                    "crossing_hour": int(above[0] + 1) if len(above) else None})
    return out


# theft simulation and detection --------------------------------------------

@dataclass
class TheftScenario:
    """Multiplicative under-reporting: reported = actual * (1 - theta)
    within [start_row, end_row)."""

    theta: float
    start_row: int
    end_row: int

    CHECKS = {"theta": real(0, 1), "start_row": integer(0), "end_row": integer(0)}

    def __post_init__(self):
        check(vars(self), self.CHECKS, "theft scenario")
        if self.end_row < self.start_row:
            raise InputError("empty-backwards theft range")


def apply_theft(values, scenario: TheftScenario) -> np.ndarray:
    """Tamper a kW series; exact outside the range."""
    out = np.asarray(values, dtype=np.float64).copy()
    if scenario.end_row > len(out):
        raise InputError("theft range exceeds the series")
    out[scenario.start_row:scenario.end_row] *= (1.0 - scenario.theta)
    return out


def theft_sweep(p: PowerNetParams, spec: FeatureSpec, d: AlignedDataset,
                start_row: int, horizon: int, thetas, *,
                clean: ForecastReport | None = None) -> list:
    """MAPE of clean-feature predictions against tampered reported values,
    one row per theft fraction. Per the error definition the reported
    (tampered) series plays the role of the actuals. ``clean`` is the
    ``forecast_with_actuals`` report for these rows when the caller has
    it already."""
    if clean is None:
        clean = forecast_with_actuals(p, spec, d, start_row, horizon)
    rows = []
    for theta in thetas:
        scenario = TheftScenario(theta=float(theta), start_row=0, end_row=horizon)
        reported = apply_theft(clean.actuals, scenario)
        rows.append({"theta": float(theta),
                     "mape": mape(reported, clean.predictions)})
    return rows


@dataclass
class DetectorConfig:
    window: int = 24          # hours per rolling residual window
    k: float = 3.0            # alarm at mu + k*sigma of clean window means

    floor_kw = 0.05   # denominator floor (a constant); reported values are adversarial
    CHECKS = {"window": integer(1), "k": real(0, strict=True)}

    def __post_init__(self):
        check(vars(self), self.CHECKS, "detector config")


@dataclass
class ResidualStats:
    mu: float
    sigma: float

    def threshold(self, k: float) -> float:
        return self.mu + k * self.sigma


def _residual_means(predicted, reported, cfg: DetectorConfig) -> np.ndarray:
    """Rolling ``cfg.window`` means of the residual percentages; a
    non-finite value in either series is an InputError naming it."""
    predicted = finite(np.asarray(predicted, dtype=np.float64), "predicted")
    reported = finite(np.asarray(reported, dtype=np.float64), "reported")
    x = np.abs(reported - predicted) / np.maximum(predicted, cfg.floor_kw)
    if len(x) < cfg.window:
        raise InputError(f"need at least {cfg.window} hours, have {len(x)}")
    c = np.concatenate([[0.0], np.cumsum(x)])
    return (c[cfg.window:] - c[:-cfg.window]) / cfg.window


def residual_stats(predicted, reported, cfg: DetectorConfig) -> ResidualStats:
    """Mean/stddev of rolling-window residual percentages on clean data."""
    means = _residual_means(predicted, reported, cfg)
    return ResidualStats(mu=float(means.mean()), sigma=float(means.std()))


def detect_consumer(predicted, reported, cfg: DetectorConfig,
                    stats: ResidualStats) -> list:
    """Alarms [{hour, residual_pct}] where the rolling residual window mean
    exceeds the clean-data threshold. ``hour`` indexes the window end."""
    means = _residual_means(predicted, reported, cfg)
    thr = stats.threshold(cfg.k)
    return [{"hour": int(i + cfg.window - 1), "residual_pct": float(v)}
            for i, v in enumerate(means) if v > thr]


def simulate_substation(consumers: list, tl_fraction: float = 0.05,
                        noise_frac: float = 0.005, seed: int = 0) -> np.ndarray:
    """Master-meter series with technical loss: master = sum(consumers) + TL,
    TL = tl_fraction * master plus zero-mean noise."""
    total = np.sum([np.asarray(c, dtype=np.float64) for c in consumers], axis=0)
    master = total / (1.0 - tl_fraction)
    rng = np.random.default_rng(seed)
    return master * (1.0 + rng.normal(0, noise_frac, len(master)))


def observed_tl(master, reported: list) -> np.ndarray:
    """TL as seen by the substation: master minus the sum of reports."""
    return (np.asarray(master, dtype=np.float64)
            - np.sum([np.asarray(r, dtype=np.float64) for r in reported], axis=0))


def detect_substation(master, reported: list, tl_predictions,
                      cfg: DetectorConfig, stats: ResidualStats) -> list:
    """Region-level alarms from the deviation between observed and predicted
    technical loss; no consumer attribution."""
    master = np.asarray(master, dtype=np.float64)
    lengths = {len(master)} | {len(r) for r in reported} | {len(tl_predictions)}
    if len(lengths) != 1:
        raise InputError(f"misaligned substation inputs: lengths {sorted(lengths)}")
    tl_o = observed_tl(master, reported)
    return detect_consumer(tl_predictions, tl_o, cfg, stats)
