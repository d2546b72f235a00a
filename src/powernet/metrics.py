"""Forecast error metrics (MSE, MAPE) and cumulative/rolling error curves.

Metrics are computed on denormalized kW values; MAPE excludes hours whose
actual value is at or below a small floor instead of dividing by zero.
A non-finite actual is an InputError. A non-finite forecast is not: the
metrics it makes non-finite are the callers' overflow signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .numcore import InputError, finite


#: MAPE leaves out the hours whose actual value is at or below this.
ZERO_FLOOR = 1e-6
ROLL_WINDOW = 24   # hours in each rolling window of an error curve


def _pair(actual, forecast):
    a = np.asarray(actual, dtype=np.float64)
    f = np.asarray(forecast, dtype=np.float64)
    if a.shape != f.shape or a.ndim != 1 or len(a) == 0:
        raise InputError(f"need equal-length non-empty vectors, got {a.shape} and {f.shape}")
    return finite(a, "actual"), f


def mse(actual, forecast) -> float:
    """Mean squared error (1/n) sum (A_t - F_t)^2."""
    a, f = _pair(actual, forecast)
    return float(np.mean((a - f) ** 2))


def mape(actual, forecast) -> float:
    """Mean absolute percentage error, in percent.

    Terms with |A_t| <= ZERO_FLOOR are excluded and the mean renormalized;
    if nothing remains the statistic is undefined.
    """
    a, f = _pair(actual, forecast)
    keep = np.abs(a) > ZERO_FLOOR
    if not keep.any():
        raise InputError("all actual values at or below the zero floor")
    return float(100.0 * np.mean(np.abs((a[keep] - f[keep]) / a[keep])))


@dataclass
class ErrorCurve:
    """Per-hour cumulative and rolling error series."""

    hours: np.ndarray      # 1-based elapsed/lead hours
    cum_mape: np.ndarray
    cum_mse: np.ndarray
    roll_mape: np.ndarray
    roll_mse: np.ndarray


def error_curve(actual, forecast) -> ErrorCurve:
    """Cumulative-to-hour and rolling MAPE/MSE series over windows of
    ROLL_WINDOW hours; MAPE leaves out the hours at or below ZERO_FLOOR."""
    window = ROLL_WINDOW
    a, f = _pair(actual, forecast)
    n = len(a)
    sq = (a - f) ** 2
    keep = np.abs(a) > ZERO_FLOOR
    pct = np.zeros(n)
    pct[keep] = 100.0 * np.abs((a[keep] - f[keep]) / a[keep])

    cum_mse = np.cumsum(sq) / np.arange(1, n + 1)
    cum_kept = np.cumsum(keep)
    cum_mape = np.where(cum_kept > 0, np.cumsum(pct) / np.maximum(cum_kept, 1), np.nan)

    roll_mape = np.empty(n)
    roll_mse = np.empty(n)
    # before hour `window` the rolling window is the cumulative one
    roll_mse[:window - 1] = cum_mse[:window - 1]
    roll_mape[:window - 1] = cum_mape[:window - 1]
    if n >= window:
        roll_mse[window - 1:] = sliding_window_view(sq, window).mean(axis=1)
        roll_mape[window - 1:] = sliding_window_view(pct, window).mean(axis=1)
    # full windows that hold an excluded hour average fewer MAPE terms
    excluded = np.concatenate([[0], np.cumsum(~keep)])
    for i in np.nonzero(excluded[window:] > excluded[:-window])[0] + window - 1:
        lo = i - window + 1
        kept = pct[lo:i + 1][keep[lo:i + 1]]
        # sum / count is what ndarray.mean computes, without its overhead
        roll_mape[i] = kept.sum() / len(kept) if len(kept) else np.nan
    return ErrorCurve(hours=np.arange(1, n + 1), cum_mape=cum_mape,
                      cum_mse=cum_mse, roll_mape=roll_mape, roll_mse=roll_mse)
