from pathlib import Path

import numpy as np
import pytest

from oracles import make_sinusoid_dataset
from powernet.dataio import (
    HOUR, aggregate, align, load_consumption, load_weather, resample_hourly, write_text,
)
from powernet.features import acf
from powernet.synth import (
    consumption_csv, fixture_files, make_aligned_dataset, make_consumption, make_weather,
    weather_csv, write_fixture_dir,
)


class TestGenerators:
    def test_deterministic(self):
        a = make_aligned_dataset(days=5, seed=9)
        b = make_aligned_dataset(days=5, seed=9)
        assert np.array_equal(a.kw, b.kw)
        assert np.array_equal(a.weather.numeric, b.weather.numeric)

    def test_seed_sensitivity(self):
        a = make_aligned_dataset(days=5, seed=0)
        b = make_aligned_dataset(days=5, seed=1)
        assert not np.array_equal(a.kw, b.kw)

    def test_hourly_contiguous_and_positive(self):
        d = make_aligned_dataset(days=7, seed=2)
        assert len(d) == 7 * 24
        assert np.all(np.diff(d.hours) == HOUR)
        assert np.all(d.kw > 0)

    def test_daily_periodicity_dominates(self):
        d = make_aligned_dataset(days=60, seed=3)
        r = acf(d.kw, 48)
        assert r[23] > 0.5          # strong lag-24 structure
        assert r[23] > r[11]

    def test_trend_raises_late_mean(self):
        hours = HOUR * np.arange(720, dtype=np.int64)
        temp = np.full(720, 60.0)
        rng = np.random.default_rng(4)
        kw = make_consumption(hours, temp, rng, trend=0.002)
        assert kw[-240:].mean() - kw[:240].mean() > 0.5

    def test_zero_trend_is_stationary(self):
        hours = HOUR * np.arange(720, dtype=np.int64)
        temp = np.full(720, 60.0)
        rng = np.random.default_rng(5)
        kw = make_consumption(hours, temp, rng, trend=0.0)
        assert abs(kw[-240:].mean() - kw[:240].mean()) < 0.2

    def test_weekend_shift(self):
        # grids a day apart share the daily cycle and, from one seed, the
        # noise, so they differ by the weekend shift alone
        hours = HOUR * np.arange(28 * 24, dtype=np.int64)
        temp = np.full(len(hours), 60.0)
        grids = hours, hours + 24 * HOUR
        kw = [make_consumption(h, temp, np.random.default_rng(6), trend=0.0) for h in grids]
        weekend = [(((h // (24 * HOUR)) + 3) % 7 >= 5).astype(float) for h in grids]
        np.testing.assert_allclose(kw[0] - kw[1], 0.25 * (weekend[0] - weekend[1]),
                                   rtol=0, atol=1e-12)

    def test_sinusoid_shape(self):
        d = make_sinusoid_dataset(days=4, seed=7, noise_frac=0.0)
        assert d.kw[6] == pytest.approx(3.0, abs=1e-9)    # peak at hour 6
        assert d.kw[18] == pytest.approx(1.0, abs=1e-9)   # trough at hour 18


class TestCsvFixtures:
    def test_weather_round_trip(self, tmp_path):
        hours = HOUR * np.arange(48, dtype=np.int64)
        w = make_weather(hours, np.random.default_rng(8))
        path = tmp_path / "weather.csv"
        write_text(path, weather_csv(w))
        back = load_weather(path)
        assert np.array_equal(back.times, w.times)
        assert back.summary == w.summary
        assert np.allclose(back.numeric, w.numeric, rtol=1e-4, atol=1e-4)

    def test_consumption_round_trip_preserves_hourly_mean(self, tmp_path):
        d = make_aligned_dataset(days=2, seed=9)
        from powernet.dataio import TimeSeries
        series = TimeSeries(start=int(d.hours[0]), step=HOUR, values=d.kw)
        path = tmp_path / "apt.csv"
        write_text(path, consumption_csv(series, "per_quarter_hour",
                                         np.random.default_rng(10)))
        hourly = resample_hourly(load_consumption(path, "per_quarter_hour"))
        assert np.allclose(hourly.values, d.kw, atol=1e-5)

    def test_fixture_dir_writes_the_fixture_files(self, tmp_path):
        paths, weather_path = write_fixture_dir(tmp_path / "fx", days=2, apartments=2,
                                                seed=4, fmt="per_quarter_hour")
        files = fixture_files(2, 2, 4, "per_quarter_hour")
        paths = [Path(p) for p in [*paths, weather_path]]
        assert [p.name for p in paths] == list(files)
        assert all(p.read_bytes() == files[p.name].encode() for p in paths)

    def test_fixture_dir_end_to_end(self, tmp_path):
        paths, weather_path = write_fixture_dir(tmp_path / "fx", days=3,
                                                apartments=2, seed=11)
        assert len(paths) == 2
        series = [resample_hourly(load_consumption(p, "per_minute"))
                  for p in paths]
        total = aggregate(series)
        d = align(total, load_weather(weather_path))
        assert len(d) == 3 * 24
        assert np.all(d.kw > 0)
