import numpy as np
import pytest

from powernet import dataio
from powernet.dataio import (
    HOUR, TimeSeries, aggregate, align, fill_gaps,
    load_consumption, load_weather, parse_timestamp, resample_hourly,
)
from powernet.numcore import InputError
from powernet.synth import make_aligned_dataset, make_weather

from oracles import fill_gaps_values, resample_hourly_hours


def make_series(values, start=0, step=HOUR):
    return TimeSeries(start=start, step=step, values=np.asarray(values, dtype=float))


def random_series(rng):
    """A series on a random step's grid from a random start, with gap runs
    of random lengths over 0-80% of its slots; a gap is NaN with either
    sign bit."""
    step = int(rng.choice([60, 900, 1200, HOUR]))
    n = int(rng.integers(1, 200))
    values = rng.uniform(0, 5, n)
    gap_share, i = rng.uniform(0, 0.8), 0
    while i < n:
        run = int(rng.integers(1, 8))
        if rng.random() < gap_share:
            values[i:i + run] = rng.choice([np.nan, -np.nan])
        i += run
    return make_series(values, start=step * int(rng.integers(0, 10_000)), step=step)


def bits(s):
    """(start, step, the exact bytes of every value, NaN payloads and signs too)."""
    return s.start, s.step, s.values.tobytes()


def write_csv(path, rows):
    path.write_text("\n".join(rows) + "\n")
    return path


class TestLoadConsumption:
    def test_one_day_per_minute(self, tmp_path):
        t0 = parse_timestamp("2016-04-29T00:00:00")
        rows = [f"{t0 + 60 * i},1.0" for i in range(1440)]
        s = load_consumption(write_csv(tmp_path / "a.csv", rows), "per_minute")
        assert len(s) == 1440
        assert s.step == 60

    def test_parse_identity(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["2016-04-29T13:00:00,1.25"])
        s = load_consumption(path, "per_quarter_hour")
        assert s.values[0] == 1.25
        assert s.start == parse_timestamp("2016-04-29T13:00:00")

    def test_missing_row_becomes_gap(self, tmp_path):
        t0 = parse_timestamp("2016-04-29T00:00:00")
        rows = [f"{t0 + 900 * i},2.0" for i in range(8) if i != 3]
        s = load_consumption(write_csv(tmp_path / "a.csv", rows), "per_quarter_hour")
        assert len(s) == 8
        assert np.isnan(s.values[3])
        assert s.gap_count() == 1

    def test_header_skipped_and_counted(self, tmp_path):
        report = dataio.IngestReport()
        path = write_csv(tmp_path / "a.csv", ["timestamp,power_kW", "100,1.0", "160,2.0"])
        s = load_consumption(path, "per_minute", report=report)
        assert len(s) == 2
        assert report.rows_malformed == 1
        assert report.rows_parsed == 2

    def test_non_finite_readings_are_malformed(self, tmp_path):
        report = dataio.IngestReport()
        rows = ["0,1.0", "60,inf", "120,-inf", "180,nan", "240,2.0", "inf,3.0",
                "300,4.0", "360,5.0"]
        s = load_consumption(write_csv(tmp_path / "a.csv", rows), "per_minute",
                             report=report)
        assert report.rows_malformed == 4 and report.rows_parsed == 4
        assert np.all(np.isfinite(s.values[[0, 4, 5, 6]]))
        assert np.isnan(s.values[[1, 2, 3]]).all()

    def test_duplicate_and_off_grid_rows_are_counted(self, tmp_path):
        # 60 repeats a time and the later row wins; 150 lies between grid
        # times and is floored onto 120
        report = dataio.IngestReport()
        rows = ["0,1.0", "60,2.0", "60,3.0", "150,4.0", "180,5.0", "240,6.0"]
        s = load_consumption(write_csv(tmp_path / "a.csv", rows), "per_minute",
                             report=report)
        assert (report.rows_parsed, report.rows_duplicate, report.rows_off_grid) == (6, 1, 1)
        assert s.values.tolist() == [1.0, 3.0, 4.0, 5.0, 6.0]

    def test_negative_becomes_gap(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["0,1.0", "60,-0.5"])
        s = load_consumption(path, "per_minute")
        assert np.isnan(s.values[1])

    def test_mostly_malformed_is_hard_error(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["x,y", "junk", "0,1.0"])
        with pytest.raises(InputError, match="malformed"):
            load_consumption(path, "per_minute")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(InputError):
            load_consumption(tmp_path / "missing.csv", "per_minute")

    @pytest.mark.parametrize("first, last, shown", [
        ("2019-01-01T00:00:00", "2199-01-01T00:00:00",
         "2019-01-01T00:00:00 to 2199-01-01T00:00:00"),
        ("0", "1e15", "to epoch 1000000000000000 "),
    ])
    def test_mistyped_year_rejected_before_allocating(self, tmp_path,
                                                      monkeypatch, first,
                                                      last, shown):
        # 180 years of minutes would be a 757 MB array
        full = np.full

        def small_full(shape, *args, **kwargs):
            assert shape <= 10 ** 6, f"allocated {shape} slots"
            return full(shape, *args, **kwargs)

        monkeypatch.setattr(np, "full", small_full)
        path = write_csv(tmp_path / "a.csv", [f"{first},1.0", f"{last},2.0"])
        with pytest.raises(InputError, match=f"a.csv: 2 rows from .*{shown}"):
            load_consumption(path, "per_minute")


class TestResampleHourly:
    def test_constant_mean(self):
        s = make_series([1, 1, 1, 1], step=900)
        out = resample_hourly(s)
        assert np.array_equal(out.values, [1.0])

    def test_mean_of_present_values(self):
        s = make_series([2, 4, np.nan, 6], step=900)
        assert resample_hourly(s).values[0] == 4.0

    def test_all_absent_hour_is_gap(self):
        s = make_series([np.nan] * 4 + [2.0] * 4, step=900)
        out = resample_hourly(s)
        assert np.isnan(out.values[0])
        assert out.values[1] == 2.0

    def test_step_must_divide_hour(self):
        with pytest.raises(InputError):
            resample_hourly(make_series([1, 2], step=1700))

    def test_equals_the_per_hour_reference_bit_for_bit(self):
        rng = np.random.default_rng(32)
        for _ in range(600):
            s = random_series(rng)
            assert bits(resample_hourly(s)) == bits(resample_hourly_hours(s))

    def test_unaligned_start_pads_to_hour_boundary(self):
        s = make_series([3, 3], start=1800, step=900)
        out = resample_hourly(s)
        assert out.start == 0
        assert out.values[0] == 3.0


class TestAggregate:
    def test_pointwise_sum(self):
        out = aggregate([make_series([1, 2]), make_series([3, 4])])
        assert np.array_equal(out.values, [4, 6])

    def test_single_series_identity(self):
        s = make_series([5, 7])
        assert np.array_equal(aggregate([s]).values, s.values)

    def test_many_constant_series(self):
        out = aggregate([make_series([1.0] * 10) for _ in range(114)])
        assert np.allclose(out.values, 114.0)

    def test_any_gap_poisons_slot(self):
        out = aggregate([make_series([1, np.nan]), make_series([3, 4])])
        assert out.values[0] == 4
        assert np.isnan(out.values[1])

    def test_misaligned_rejected(self):
        with pytest.raises(InputError):
            aggregate([make_series([1, 2]), make_series([1, 2], start=HOUR)])


class TestFillGaps:
    def test_linear_midpoint(self):
        out = fill_gaps(make_series([1, np.nan, 3]), max_run=1)
        assert np.array_equal(out.values, [1, 2, 3])

    def test_run_too_long_unchanged(self):
        out = fill_gaps(make_series([1, np.nan, np.nan, 4]), max_run=1)
        assert np.isnan(out.values[1]) and np.isnan(out.values[2])

    def test_leading_gap_unchanged(self):
        out = fill_gaps(make_series([np.nan, 2, 3]), max_run=3)
        assert np.isnan(out.values[0])

    def test_run_of_three_interpolated(self):
        out = fill_gaps(make_series([0, np.nan, np.nan, np.nan, 4]), max_run=3)
        assert np.allclose(out.values, [0, 1, 2, 3, 4])

    def test_equals_the_one_value_reference_bit_for_bit(self):
        rng = np.random.default_rng(33)
        for _ in range(600):
            s, max_run = random_series(rng), int(rng.integers(0, 6))
            assert bits(fill_gaps(s, max_run)) == bits(fill_gaps_values(s, max_run))

    def test_gap_at_both_ends_and_all_gaps_unchanged(self):
        for values in ([np.nan, 1, np.nan], [np.nan] * 3, []):
            s = make_series(values)
            assert bits(fill_gaps(s, max_run=5)) == bits(s)


class TestAlign:
    def weather(self, n, start=0):
        hours = start + HOUR * np.arange(n, dtype=np.int64)
        return make_weather(hours, np.random.default_rng(0))

    def test_full_overlap(self):
        c = make_series(np.ones(720))
        out = align(c, self.weather(720))
        assert len(out) == 720

    def test_intersection(self):
        c = make_series(np.ones(720))
        out = align(c, self.weather(719))
        assert len(out) == 719

    def test_disjoint_spans_error(self):
        c = make_series(np.ones(24))
        with pytest.raises(InputError, match="overlap"):
            align(c, self.weather(24, start=100 * 24 * HOUR))

    def test_consumption_gaps_dropped(self):
        values = np.ones(48)
        values[10] = np.nan
        out = align(make_series(values), self.weather(48))
        assert len(out) == 47
        assert not np.isnan(out.kw).any()

    def test_requires_hourly(self):
        with pytest.raises(InputError):
            align(make_series([1, 2], step=900), self.weather(2))


class TestProperties:
    def test_resample_commutes_with_aggregate_on_gap_free_input(self):
        rng = np.random.default_rng(4)
        series = [make_series(rng.uniform(0, 2, 96), step=900) for _ in range(5)]
        a = aggregate([resample_hourly(s) for s in series])
        b = resample_hourly(aggregate(series))
        assert np.allclose(a.values, b.values, atol=1e-9)

    def test_load_resample_preserves_hourly_mean(self, tmp_path):
        rng = np.random.default_rng(5)
        raw = rng.uniform(0.1, 3.0, 4 * 24)
        rows = [f"{900 * i},{raw[i]:.17g}" for i in range(len(raw))]
        s = load_consumption(write_csv(tmp_path / "a.csv", rows), "per_quarter_hour")
        hourly = resample_hourly(s)
        expected = raw.reshape(-1, 4).mean(axis=1)
        assert np.allclose(hourly.values, expected, atol=1e-9)


class TestAlignedDataset:
    def test_hours_are_the_weather_times(self):
        d = make_aligned_dataset(days=2, seed=1)
        assert d.hours is d.weather.times
        back = dataio.dataset_from_json(dataio.dataset_to_json(d))
        assert back.hours is back.weather.times

    def test_takes_no_hours_of_its_own(self):
        d = make_aligned_dataset(days=1, seed=1)
        with pytest.raises(TypeError, match="hours"):
            dataio.AlignedDataset(hours=d.hours, kw=d.kw, weather=d.weather)
        with pytest.raises(AttributeError):
            d.hours = d.hours + HOUR

    def test_kw_and_weather_of_unequal_length_refused(self):
        d = make_aligned_dataset(days=1, seed=1)
        with pytest.raises(InputError, match="equal length"):
            dataio.AlignedDataset(kw=d.kw[:-1], weather=d.weather)


class TestDatasetRoundTrip:
    def test_json_round_trip(self):
        d = make_aligned_dataset(days=2, seed=1)
        doc = dataio.dataset_to_json(d)
        back = dataio.dataset_from_json(doc)
        assert np.array_equal(back.hours, d.hours)
        assert np.allclose(back.kw, d.kw)
        assert back.weather.summary == d.weather.summary
        assert np.allclose(back.weather.numeric, d.weather.numeric, equal_nan=True)

    def test_hours_beyond_int64_exit_2_naming_hours(self, tmp_path, capsys):
        # hours in [2**63, 2**64) parse as uint64 and would wrap around to
        # negative timestamps in the int64 array the dataset keeps
        import json
        from powernet import cli
        doc = json.loads(dataio.dataset_to_json(make_aligned_dataset(days=1, seed=1)))
        doc["hours"] = [h + 2 ** 63 for h in doc["hours"]]
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(InputError, match=r"^dataset: hours\[0\]: expected int in "):
            dataio.dataset_from_json(path.read_text())
        rc = cli.main(["train", "--dataset", str(path), "--out", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert rc == 2 and err.startswith("error: ") and "hours[0]" in err
        assert not (tmp_path / "run").exists()


class TestTimestamps:
    def test_iso_and_epoch_agree(self):
        # naive times are read at UTC-05:00
        assert parse_timestamp("1970-01-01T00:00:00") == parse_timestamp("18000") == 18000
        assert parse_timestamp("0") == 0

    def test_fixed_offset_round_trip(self):
        t = parse_timestamp("2016-04-29T13:00:00")
        assert dataio.format_timestamp(t) == "2016-04-29T13:00:00"

    def test_explicit_utc_designator(self):
        assert parse_timestamp("1970-01-01T00:00:00Z") == 0

    def test_format_outside_datetime_range_gives_epoch_seconds(self):
        assert dataio.format_timestamp(10 ** 15) == "epoch 1000000000000000"
