"""Feature engineering: ACF window selection, weather/calendar vectors,
and assembly of supervised examples from an aligned dataset.

The feature layout per example is the consumption window (length n, z-scored
with training stats), a 13-entry weather vector and a 5-entry calendar
vector. Normalization statistics and categorical vocabularies come from the
training split only.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass, field
from datetime import timedelta

import numpy as np

from .dataio import (
    HOUR,
    UTC_OFFSET_S,
    WEATHER_NUMERIC_COLUMNS,
    AlignedDataset,
)
from .numcore import Check, InputError, array, check, integer, items, one_of, real

N_WEATHER = 13
#: The weather and calendar features of one example: the fusion MLP's input.
N_AUX_FEATURES = N_WEATHER + 5

SPEC_FORMAT_VERSION = 1


_VOCAB = Check("object of ints",
               lambda v: isinstance(v, dict) and all(map(integer().ok, v.values())))


def acf(x, max_lag: int) -> np.ndarray:
    """Autocorrelations r_1..r_max_lag of a gap-free series.

    r_k = sum_t (x_t - mean)(x_{t+k} - mean) / sum_t (x_t - mean)^2.
    """
    x = np.asarray(x, dtype=np.float64)
    if max_lag < 1 or len(x) <= max_lag:
        raise InputError("need length > max_lag >= 1")
    if np.isnan(x).any():
        raise InputError("acf input must be gap-free")
    centered = x - x.mean()
    denom = float(centered @ centered)
    if denom == 0.0:
        raise InputError("acf undefined for a constant series")
    out = np.empty(max_lag)
    for k in range(1, max_lag + 1):
        out[k - 1] = float(centered[:-k] @ centered[k:]) / denom
    return out


def select_window(acf_values, threshold: float = 0.5) -> int:
    """Length of the contiguous prefix of lags with r >= threshold.

    Falls back to 1 (with a warning) when even lag 1 is below threshold.
    """
    if not 0.0 < threshold < 1.0:
        raise InputError("threshold must be in (0,1)")
    r = np.asarray(acf_values, dtype=np.float64)
    n = 0
    for value in r:
        if value >= threshold:
            n += 1
        else:
            break
    if n == 0:
        warnings.warn("lag-1 autocorrelation below threshold; window forced to 1")
        return 1
    return n


@dataclass
class FeatureSpec:
    """Frozen feature configuration: window length, vocabularies, stats."""

    window_len: int
    summary_vocab: dict = field(default_factory=dict)   # text -> index >= 1, 0 is OOV
    icon_vocab: dict = field(default_factory=dict)
    weather_mean: np.ndarray = None
    weather_std: np.ndarray = None
    cons_mean: float = 0.0
    cons_std: float = 1.0
    daytime_range: tuple = (7, 19)
    utc_offset_hours: float = UTC_OFFSET_S / HOUR

    #: What each key of ``to_dict``'s document holds.
    CHECKS = {"format_version": one_of(SPEC_FORMAT_VERSION), "window_len": integer(1),
              "summary_vocab": _VOCAB, "icon_vocab": _VOCAB,
              "weather_mean": array(real(), len(WEATHER_NUMERIC_COLUMNS)),
              "weather_std": array(real(0, strict=True), len(WEATHER_NUMERIC_COLUMNS)),
              "cons_mean": real(), "cons_std": real(0, strict=True),
              "daytime_range": items(integer(), 2), "utc_offset_hours": real(-24, 24)}

    def normalize_kw(self, v):
        return (np.asarray(v, dtype=np.float64) - self.cons_mean) / self.cons_std

    def denormalize_kw(self, v):
        return np.asarray(v, dtype=np.float64) * self.cons_std + self.cons_mean

    def to_dict(self) -> dict:
        doc = asdict(self)
        for key in ("weather_mean", "weather_std", "daytime_range"):
            doc[key] = list(doc[key])
        return {"format_version": SPEC_FORMAT_VERSION, **doc}

    @classmethod
    def from_json(cls, text: str) -> "FeatureSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, doc: dict) -> "FeatureSpec":
        """The spec ``to_dict`` wrote; a value of the wrong type or out of
        range raises InputError naming its key."""
        fields = check(doc, cls.CHECKS, "feature spec")
        del fields["format_version"]
        return cls(**fields)


def calendar_features(t, spec: FeatureSpec) -> np.ndarray:
    """[day_of_month, day_of_week (Mon=0), hour, in_daytime, is_weekend] in
    local time at ``spec.utc_offset_hours`` for epoch seconds ``t``.

    ``t`` is one timestamp (a 5-vector out) or an array of them (one row
    each). Integer arithmetic on the local epoch seconds, and the day of
    the month as the local date minus its month in ``datetime64``; no
    ``datetime``.
    """
    offset = timedelta(hours=spec.utc_offset_hours) // timedelta(seconds=1)
    days, seconds = np.divmod(np.asarray(t, dtype=np.int64) + offset, 86400)
    date = days.astype("datetime64[D]")
    hour = seconds // HOUR
    lo, hi = spec.daytime_range
    out = np.empty(np.shape(days) + (5,))
    out[..., 0] = date - date.astype("datetime64[M]")   # days into the month
    out[..., 0] += 1
    out[..., 1] = (days + 3) % 7         # 1970-01-01 was a Thursday
    out[..., 2] = hour
    out[..., 3] = (lo <= hour) & (hour < hi)
    out[..., 4] = out[..., 1] >= 5
    return out


def weather_features(rows, spec: FeatureSpec) -> np.ndarray:
    """(N, 13) array of [summary_idx, icon_idx, 11 z-scored numeric fields]
    for ``rows = (summaries, icons, numeric (N, 11))``, as
    ``WeatherTable.rows`` gives them.

    Unseen categories map to index 0; missing numerics become the training
    mean (z-score 0).
    """
    summary, icon, numeric = rows
    z = (np.asarray(numeric, dtype=np.float64) - spec.weather_mean) / spec.weather_std
    out = np.empty((len(z), N_WEATHER))
    out[:, 0] = [spec.summary_vocab.get(s, 0) for s in summary]
    out[:, 1] = [spec.icon_vocab.get(s, 0) for s in icon]
    out[:, 2:] = np.where(np.isnan(z), 0.0, z)
    return out


#: The most lags the ACF rule reads when it picks the window length.
MAX_LAG = 48


def fit_feature_spec(d: AlignedDataset, train_slice: slice,
                     window_len: int | None = None,
                     acf_threshold: float = 0.5) -> FeatureSpec:
    """Build a FeatureSpec from the training rows of an aligned dataset,
    with FeatureSpec's default daytime range and UTC offset.

    When window_len is None the ACF prefix rule picks it from the training
    consumption, over up to MAX_LAG lags.
    """
    kw = d.kw[train_slice]
    if len(kw) == 0:
        raise InputError("empty training slice")
    if window_len is None:
        window_len = select_window(acf(kw, min(MAX_LAG, len(kw) - 1)), acf_threshold)
    window_len = check(window_len, integer(1), "window_len")

    numeric = d.weather.numeric[train_slice]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        mean = np.nanmean(numeric, axis=0)
        std = np.nanstd(numeric, axis=0)
    mean = np.where(np.isnan(mean), 0.0, mean)
    # constant features pass through as 0 after centering
    std = np.where((std == 0) | np.isnan(std), 1.0, std)

    def build_vocab(values):
        vocab = {}
        for v in values:
            if v and v not in vocab:
                vocab[v] = len(vocab) + 1
        return vocab

    cons_std = float(kw.std())
    return FeatureSpec(
        window_len=window_len,
        summary_vocab=build_vocab(d.weather.summary[train_slice]),
        icon_vocab=build_vocab(d.weather.icon[train_slice]),
        weather_mean=mean,
        weather_std=std,
        cons_mean=float(kw.mean()),
        cons_std=cons_std if cons_std > 0 else 1.0,
    )


@dataclass
class Split:
    """Aligned example arrays for one split, in chronological order."""

    E: np.ndarray    # (N, n) normalized consumption windows
    FW: np.ndarray   # (N, 13)
    FC: np.ndarray   # (N, 5)
    y: np.ndarray    # (N,) normalized targets
    t: np.ndarray    # (N,) target epoch seconds

    def __len__(self):
        return len(self.y)


@dataclass
class ExampleSet:
    spec: FeatureSpec
    train: Split
    validation: Split
    test: Split
    skipped: int = 0


def window_features(d: AlignedDataset, spec: FeatureSpec, rows: np.ndarray):
    """(E, FW, FC) for the target rows ``rows``: normalized consumption
    windows (N, n) over the n rows before each target, and its weather and
    calendar features. Every target needs n rows of history."""
    n = spec.window_len
    E = spec.normalize_kw(d.kw[rows[:, None] - n + np.arange(n)])
    FW = weather_features(d.weather.rows(rows), spec)
    FC = calendar_features(d.hours[rows], spec)
    return E, FW, FC


def _build_split(d: AlignedDataset, spec: FeatureSpec, lo: int, hi: int):
    """Examples for target rows in [lo, hi); windows must be contiguous."""
    n = spec.window_len
    rows = np.arange(max(lo, n), hi)
    # window rows r-n .. r-1 plus the target row r must be consecutive hours
    rows = rows[d.hours[rows] - d.hours[rows - n] == n * HOUR]
    E, FW, FC = window_features(d, spec, rows)
    split = Split(E=E, FW=FW, FC=FC, y=spec.normalize_kw(d.kw[rows]),
                  t=d.hours[rows].astype(np.int64))
    return split, (hi - lo) - len(rows)


def build_examples(d: AlignedDataset, spec: FeatureSpec,
                   splits: tuple) -> ExampleSet:
    """Assemble train/validation/test examples from row-index boundaries.

    ``splits`` is ((train_lo, train_hi), (val_lo, val_hi), (test_lo, test_hi))
    in dataset row indices, chronological and non-overlapping. Targets whose
    history window crosses a non-contiguous stretch are skipped and counted.
    """
    (a0, a1), (b0, b1), (c0, c1) = check(splits, items(items(integer(0), 2), 3), "splits")
    if not (a0 < a1 <= b0 < b1 <= c0 < c1 <= len(d)):
        raise InputError(f"splits must be chronological and non-overlapping, got {splits}")
    built = {name: _build_split(d, spec, lo, hi) for name, (lo, hi)
             in zip(("train", "validation", "test"), ((a0, a1), (b0, b1), (c0, c1)))}
    for name, (split, skipped) in built.items():
        if len(split) == 0:
            raise InputError(f"the {name} split has no examples: none of its {skipped} "
                             f"targets has window_len={spec.window_len} contiguous "
                             "hours before it")
    return ExampleSet(spec=spec, **{name: split for name, (split, _) in built.items()},
                      skipped=sum(skipped for _, skipped in built.values()))


def tail_splits(total_rows: int, train_hours: int = 624,
                val_hours: int = 48, test_hours: int = 48) -> tuple:
    """Row boundaries for the train/validation/test protocol, counted from
    the end of the dataset so earlier rows serve as window history."""
    need = train_hours + val_hours + test_hours
    if total_rows < need:
        raise InputError(f"need {need} rows, have {total_rows}")
    c1 = total_rows
    c0 = c1 - test_hours
    b0 = c0 - val_hours
    a0 = b0 - train_hours
    return (a0, b0), (b0, c0), (c0, c1)
