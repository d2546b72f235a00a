import dataclasses
import json
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from oracles import calendar_rows
from powernet.dataio import HOUR, parse_timestamp
from powernet.features import (
    FeatureSpec, acf, build_examples, calendar_features,
    fit_feature_spec, select_window, tail_splits, weather_features,
)
from powernet.numcore import InputError
from powernet.synth import make_aligned_dataset


def acf_oracle(x, max_lag):
    """Definitional O(N*K) double loop."""
    x = np.asarray(x, dtype=float)
    mean = x.mean()
    denom = sum((v - mean) ** 2 for v in x)
    out = []
    for k in range(1, max_lag + 1):
        num = 0.0
        for t in range(len(x) - k):
            num += (x[t] - mean) * (x[t + k] - mean)
        out.append(num / denom)
    return np.asarray(out)


class TestAcf:
    def test_matches_brute_force_on_spike_series(self):
        x = np.full(50, 3.0)
        x[17] = 10.0
        assert np.allclose(acf(x, 10), acf_oracle(x, 10), atol=1e-10)

    def test_matches_brute_force_on_random_fixtures(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.normal(size=rng.integers(30, 120))
            k = int(rng.integers(1, 20))
            assert np.allclose(acf(x, k), acf_oracle(x, k), atol=1e-10)

    def test_period_24_sinusoid(self):
        x = np.sin(2 * np.pi * np.arange(24 * 400) / 24)
        r = acf(x, 48)
        assert r[23] > 0.99   # lag 24
        assert r[11] < 0      # lag 12, antiphase
        assert np.all((r >= -1) & (r <= 1))

    def test_white_noise_small_correlations(self):
        x = np.random.default_rng(42).normal(size=10000)
        assert np.all(np.abs(acf(x, 50)) < 0.05)

    def test_constant_series_rejected(self):
        with pytest.raises(InputError, match="constant"):
            acf(np.ones(50), 5)

    def test_length_guard(self):
        with pytest.raises(InputError):
            acf(np.arange(5.0), 5)


class TestSelectWindow:
    def test_prefix_rule(self):
        assert select_window([0.9, 0.8, 0.3, 0.7], 0.5) == 2

    def test_floor_with_warning(self):
        with pytest.warns(UserWarning):
            assert select_window([0.4, 0.3], 0.5) == 1

    def test_threshold_validation(self):
        with pytest.raises(InputError):
            select_window([0.9], 1.5)

    def test_frozen_window_on_synthetic_aggregate(self):
        # regression value from the acf oracle on the standard fixture
        d = make_aligned_dataset(days=30, seed=3)
        r = acf(d.kw[:624], 48)
        n = select_window(r, 0.5)
        assert n == select_window(acf_oracle(d.kw[:624], 48), 0.5)
        assert n == 3


def default_spec(**kwargs):
    base = dict(window_len=24,
                summary_vocab={"Clear": 1}, icon_vocab={"clear-day": 1},
                weather_mean=np.zeros(11), weather_std=np.ones(11))
    base.update(kwargs)
    return FeatureSpec(**base)


def reference_calendar_features(t: int, spec) -> np.ndarray:
    """Calendar oracle: one ``datetime`` per timestamp."""
    local = datetime.fromtimestamp(
        t, timezone(timedelta(hours=spec.utc_offset_hours)))
    lo, hi = spec.daytime_range
    return np.array([
        float(local.day),
        float(local.weekday()),
        float(local.hour),
        1.0 if lo <= local.hour < hi else 0.0,
        1.0 if local.weekday() >= 5 else 0.0,
    ])


class TestCalendarFeatures:
    def test_friday_afternoon(self):
        spec = default_spec()
        t = parse_timestamp("2016-04-29T13:00:00")  # a Friday
        assert np.array_equal(calendar_features(t, spec), [29, 4, 13, 1, 0])

    def test_sunday_night(self):
        spec = default_spec()
        t = parse_timestamp("2016-05-01T02:00:00")  # a Sunday
        assert np.array_equal(calendar_features(t, spec), [1, 6, 2, 0, 1])

    def test_midnight_boundary(self):
        spec = default_spec()
        t = parse_timestamp("2016-01-01T00:00:00")
        vec = calendar_features(t, spec)
        assert vec[2] == 0 and vec[3] == 0

    def test_pure_function(self):
        spec = default_spec()
        t = parse_timestamp("2016-04-29T13:00:00")
        assert np.array_equal(calendar_features(t, spec), calendar_features(t, spec))

    @pytest.mark.parametrize("offset", [-7.0, 0.0, 5.5, -3.5, 13.0])
    def test_array_matches_datetime_oracle_across_boundaries(self, offset):
        spec = default_spec(utc_offset_hours=offset, daytime_range=(6, 20))
        # two days either side of month, year and leap-day boundaries, in
        # half-hour steps so half-hour offsets cross hours and midnights too
        edges = ["1969-12-31", "1970-01-01", "1999-12-31", "2000-02-28",
                 "2000-02-29", "2000-03-01", "2015-12-31", "2016-02-29",
                 "2016-04-30", "2017-02-28", "2100-02-28", "2100-03-01"]
        t = np.concatenate([
            parse_timestamp(e + "T00:00:00Z") + np.arange(-48, 48) * 1800
            for e in edges])
        t = np.concatenate([t, np.random.default_rng(0).integers(
            -10 ** 9, 4 * 10 ** 9, 500)])
        got = calendar_features(t, spec)
        assert got.shape == (len(t), 5) and got.dtype == np.float64
        expected = np.stack([reference_calendar_features(int(v), spec) for v in t])
        assert np.array_equal(got, expected)
        assert np.array_equal(calendar_features(int(t[7]), spec), expected[7])

    @pytest.mark.parametrize("offset", [-5.0, 0.0, 5.75, 14.0])
    def test_matches_integer_oracle_over_four_millennia(self, offset):
        # every day from -221-09-04 to 4160-04-29: 1900, 2000 and 2100 and
        # the dates before 1970 included, each at its own time of day
        spec = default_spec(utc_offset_hours=offset)
        days = np.arange(-800_000, 800_001)
        t = days * 86400 + days * 7919 % 86400
        got = calendar_features(t, spec)
        assert got.shape == (len(t), 5) and got.dtype == np.float64
        assert got.tobytes() == calendar_rows(t, spec).tobytes()
        for v in t[::160_000]:
            one = calendar_features(int(v), spec)
            assert one.shape == (5,)
            assert one.tobytes() == calendar_rows(int(v), spec).tobytes()


def weather_one(row, spec) -> np.ndarray:
    """``weather_features`` of one (summary, icon, numeric) row."""
    summary, icon, numeric = row
    return weather_features(([summary], [icon], np.asarray(numeric)[None]), spec)[0]


def reference_weather_features(row, spec) -> np.ndarray:
    """Single-row oracle of ``weather_features``."""
    summary, icon, numeric = row
    z = (np.asarray(numeric, dtype=np.float64) - spec.weather_mean) / spec.weather_std
    z = np.where(np.isnan(z), 0.0, z)
    return np.concatenate([
        [float(spec.summary_vocab.get(summary, 0)),
         float(spec.icon_vocab.get(icon, 0))],
        z,
    ])


class TestWeatherFeatures:
    def test_mean_value_maps_to_zero(self):
        spec = default_spec(weather_mean=np.full(11, 5.0))
        row = ("Clear", "clear-day", np.full(11, 5.0))
        vec = weather_one(row, spec)
        assert np.array_equal(vec[2:], np.zeros(11))
        assert len(vec) == 13

    def test_unseen_category_maps_to_reserved_index(self):
        vec = weather_one(("Sleet", "sleet", np.zeros(11)), default_spec())
        assert vec[0] == 0 and vec[1] == 0

    def test_hand_computed_z_scores(self):
        mean = np.arange(11, dtype=float)
        std = np.arange(1, 12, dtype=float)
        spec = default_spec(weather_mean=mean, weather_std=std)
        numeric = np.arange(11, dtype=float) * 3 + 1
        vec = weather_one(("Clear", "clear-day", numeric), spec)
        expected = (numeric - mean) / std
        assert np.allclose(vec[2:], expected, atol=1e-12)

    def test_rows_match_per_row_oracle(self):
        d = make_aligned_dataset(days=3, seed=4)
        spec = fit_feature_spec(d, slice(0, 30), window_len=3)
        w = d.weather
        w.numeric[5, 2] = np.nan
        idx = np.array([40, 5, 0, 71, 5])
        got = weather_features(w.rows(idx), spec)
        expected = np.stack([reference_weather_features(
            (w.summary[i], w.icon[i], w.numeric[i]), spec) for i in idx])
        assert np.array_equal(got, expected)
        assert weather_features(w.rows(idx[:0]), spec).shape == (0, 13)

    def test_missing_numeric_becomes_training_mean(self):
        numeric = np.zeros(11)
        numeric[4] = np.nan
        vec = weather_one(("Clear", "clear-day", numeric), default_spec())
        assert vec[2 + 4] == 0.0


class TestFitFeatureSpec:
    def test_stats_from_training_slice_only(self):
        d = make_aligned_dataset(days=30, seed=1)
        spec = fit_feature_spec(d, slice(0, 200), window_len=24)
        assert spec.cons_mean == pytest.approx(d.kw[:200].mean())
        assert spec.cons_std == pytest.approx(d.kw[:200].std())

    def test_vocabularies_from_training_slice_only(self):
        d = make_aligned_dataset(days=30, seed=1)
        # a summary seen only after the slice, an icon only before it
        summary = d.weather.summary[:200] + ("Snow",) * (len(d) - 200)
        icon = ("sleet",) * 100 + d.weather.icon[100:]
        weather = dataclasses.replace(d.weather, summary=summary, icon=icon)
        spec = fit_feature_spec(dataclasses.replace(d, weather=weather), slice(100, 200),
                                window_len=24)
        assert list(spec.summary_vocab) == list(dict.fromkeys(d.weather.summary[100:200]))
        assert list(spec.icon_vocab) == list(dict.fromkeys(d.weather.icon[100:200]))
        assert "Snow" not in spec.summary_vocab and "sleet" not in spec.icon_vocab

    def test_denormalize_round_trip(self):
        d = make_aligned_dataset(days=30, seed=1)
        spec = fit_feature_spec(d, slice(0, 200), window_len=24)
        raw = d.kw[300:350]
        assert np.allclose(spec.denormalize_kw(spec.normalize_kw(raw)), raw, atol=1e-9)

    @pytest.mark.parametrize("bad", [2.7, "3", 0, True])
    def test_window_len_must_be_a_positive_int(self, bad):
        d = make_aligned_dataset(days=30, seed=1)
        with pytest.raises(InputError, match="^window_len: expected int >= 1"):
            fit_feature_spec(d, slice(0, 200), window_len=bad)

    def test_json_round_trip(self):
        d = make_aligned_dataset(days=30, seed=1)
        spec = fit_feature_spec(d, slice(0, 200))
        back = FeatureSpec.from_json(json.dumps(spec.to_dict()))
        assert back.window_len == spec.window_len
        assert back.summary_vocab == spec.summary_vocab
        assert np.allclose(back.weather_mean, spec.weather_mean)
        assert back.cons_std == spec.cons_std


def reference_build_split(d, spec, lo, hi):
    """Per-row oracle of ``_build_split``: (E, FW, FC, y, t, skipped)."""
    n = spec.window_len
    w = d.weather
    E, FW, FC, y, t = [], [], [], [], []
    skipped = 0
    for i in range(lo, hi):
        if i - n < 0 or d.hours[i] - d.hours[i - n] != n * HOUR:
            skipped += 1
            continue
        E.append(spec.normalize_kw(d.kw[i - n:i]))
        FW.append(reference_weather_features((w.summary[i], w.icon[i], w.numeric[i]),
                                             spec))
        FC.append(reference_calendar_features(int(d.hours[i]), spec))
        y.append(float(spec.normalize_kw(d.kw[i])))
        t.append(int(d.hours[i]))
    return (np.asarray(E).reshape(len(E), n), np.asarray(FW).reshape(len(E), 13),
            np.asarray(FC).reshape(len(E), 5), np.asarray(y, dtype=np.float64),
            np.asarray(t, dtype=np.int64), skipped)


def drop_rows(d, drop):
    """``d`` without the rows in ``drop``: a dataset with holes."""
    keep = np.ones(len(d), dtype=bool)
    keep[drop] = False
    w = d.weather
    return dataclasses.replace(
        d, kw=d.kw[keep],
        weather=dataclasses.replace(
            w, times=w.times[keep],
            summary=tuple(s for s, k in zip(w.summary, keep) if k),
            icon=tuple(s for s, k in zip(w.icon, keep) if k),
            numeric=w.numeric[keep]))


class TestBuildExamples:
    def setup_method(self):
        self.d = make_aligned_dataset(days=32, seed=2)
        self.bounds = tail_splits(len(self.d))
        self.spec = fit_feature_spec(self.d, slice(*self.bounds[0]), window_len=24)

    def test_protocol_split_sizes(self):
        data = build_examples(self.d, self.spec, self.bounds)
        assert len(data.train) == 624
        assert len(data.validation) == 48
        assert len(data.test) == 48

    def test_no_examples_before_window_available(self):
        d = make_aligned_dataset(days=4, seed=2)
        spec = fit_feature_spec(d, slice(0, 48), window_len=24)
        data = build_examples(d, spec, ((0, 48), (48, 72), (72, 96)))
        # first 24 target hours have no full history window
        assert len(data.train) == 48 - 24
        assert data.skipped == 24

    def test_gap_skips_window_crossings(self):
        # remove a 5-hour stretch from the aligned rows to fake an unfilled gap
        d2 = drop_rows(self.d, np.arange(300, 305))
        n = self.spec.window_len
        data = build_examples(d2, self.spec, ((100, 500), (500, 550), (550, 600)))
        # aligned rows drop the 5 gap hours entirely, so exactly the n
        # targets whose history window crosses the hole are skipped
        assert data.skipped == n
        assert len(data.train) == 400 - n

    @pytest.mark.parametrize("window_len", [1, 3, 24])
    def test_equals_per_row_oracle_with_holes(self, window_len):
        d = drop_rows(self.d, np.r_[2, 300:305, 420, 500:530, 650])
        d.weather.numeric[[30, 31], 4] = np.nan
        spec = fit_feature_spec(d, slice(0, 400), window_len=window_len)
        bounds = ((0, 400), (400, 560), (560, len(d)))
        data = build_examples(d, spec, bounds)
        skipped = 0
        for split, (lo, hi) in zip((data.train, data.validation, data.test), bounds):
            *arrays, k = reference_build_split(d, spec, lo, hi)
            for name, want in zip("E FW FC y t".split(), arrays):
                got = getattr(split, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            skipped += k
        assert data.skipped == skipped > window_len

    def test_target_values_normalized(self):
        data = build_examples(self.d, self.spec, self.bounds)
        lo = self.bounds[0][0]
        raw = self.d.kw[lo]
        assert data.train.y[0] == pytest.approx(float(self.spec.normalize_kw(raw)))
        assert np.allclose(self.spec.denormalize_kw(data.train.y[0]), raw, atol=1e-9)

    def test_no_leakage_from_test_range(self):
        data1 = build_examples(self.d, self.spec, self.bounds)
        d2 = make_aligned_dataset(days=32, seed=2)
        test_lo = self.bounds[2][0]
        d2.kw[test_lo:] *= 7.0   # perturb raw test-range values
        data2 = build_examples(d2, self.spec, self.bounds)
        assert np.array_equal(data1.train.E, data2.train.E)
        assert np.array_equal(data1.train.y, data2.train.y)
        assert np.array_equal(data1.validation.y, data2.validation.y)

    def test_chronological_order(self):
        data = build_examples(self.d, self.spec, self.bounds)
        assert np.all(np.diff(data.train.t) > 0)
        assert data.train.t[-1] < data.validation.t[0] < data.test.t[0]

    def test_overlapping_splits_rejected(self):
        with pytest.raises(InputError):
            build_examples(self.d, self.spec, ((0, 100), (90, 150), (150, 200)))

    def test_negative_split_bound_rejected(self):
        # a row before row 0 does not exist; it is neither an example nor
        # a skipped target
        (_, a1), val, test = self.bounds
        with pytest.raises(InputError, match=r"splits: \[0\]\[0\]: expected int >= 0, got -30"):
            build_examples(self.d, self.spec, ((-30, a1), val, test))
