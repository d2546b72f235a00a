"""The array-built text boundaries against their one-row-at-a-time oracles:
the synthetic consumption writer, the consumption loader with its bulk
timestamp parser, the weather loader, and the checkpoint's JSON."""

import csv
import json

import numpy as np
import pytest

from oracles import load_consumption_rows, load_weather_rows, write_consumption_rows
from powernet.dataio import (
    HOUR, WEATHER_COLUMNS, IngestReport, TimeSeries, format_timestamp,
    load_consumption, load_weather, parse_timestamp, parse_timestamps,
)
from powernet.model import checkpoint_to_json, init_params
from powernet.numcore import InputError
from powernet.synth import (
    make_aligned_dataset, make_weather, write_consumption_csv, write_fixture_dir,
    write_weather_csv,
)

FORMATS = ["per_minute", "per_quarter_hour"]


def hourly_series(days, seed):
    """Synthetic hourly kW with gaps, zeros (about half their readings clamp
    to 0.0) and tiny values below the jitter's 0.05 floor."""
    kw = make_aligned_dataset(days, seed=seed).kw.copy()
    kw[3::17] = np.nan
    kw[5::23] = 0.0
    kw[7::29] = 1e-3
    return TimeSeries(start=1459486800 + 3600 * seed, step=HOUR, values=kw)


def loaded(load, path, fmt):
    """(start, step, values bytes, report) of one load, or "error", the
    first word of the InputError's message after the path, and the report."""
    report = IngestReport()
    try:
        s = load(path, fmt, report=report)
    except InputError as exc:
        return "error", str(exc).split(": ", 1)[1].split(" ")[0], report
    return s.start, s.step, s.values.tobytes(), report


@pytest.mark.parametrize("days", [1, 2, 35])
@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("seed", [0, 1])
def test_consumption_csv_bytes_and_series_equal_the_per_row_oracle(
        tmp_path, seed, fmt, days):
    series = hourly_series(days, seed)
    rngs = np.random.default_rng(seed), np.random.default_rng(seed)
    write_consumption_csv(tmp_path / "bulk.csv", series, fmt, rngs[0])
    write_consumption_rows(tmp_path / "rows.csv", series, fmt, rngs[1])
    text = (tmp_path / "bulk.csv").read_bytes()
    assert text == (tmp_path / "rows.csv").read_bytes()
    assert b",0.000000\r\n" in text   # a reading clamped at zero
    assert rngs[0].random() == rngs[1].random()   # the same draws were used
    path = tmp_path / "bulk.csv"
    assert loaded(load_consumption, path, fmt) == loaded(load_consumption_rows, path, fmt)


def test_weather_time_column_is_format_timestamp(tmp_path):
    hours = 1459486800 + HOUR * np.arange(50, dtype=np.int64)
    write_weather_csv(tmp_path / "w.csv", make_weather(hours, np.random.default_rng(3)))
    with open(tmp_path / "w.csv", newline="") as fh:
        times = [row[0] for row in csv.reader(fh)][1:]
    assert times == [format_timestamp(int(t)) for t in hours]


#: Cells that take the per-cell path, and naive ones that numpy parses in
#: one call: years 0001 and 9999, and year 0000, which it must not accept.
CELLS = [
    "1551416400", "-3600", "1e3", "nan", "2019-03-01T05:15:00Z",
    "2019-03-01T06:30:00+01:00", "2019-03-01T00:30:00.5", "2019-03-01 00:45:00",
    " 2019-03-01T01:00:00", "2019-03-01T01:15:00 ", "2020-02-29T00:00:00",
    "2019-3-01T00:00:00", "2019-03-01T01:30", "0001-01-01T00:00:00",
    "9999-12-31T23:59:59", "0000-01-01T00:00:00", "2019-03-01T01:07:00",
    "", "junk", "2019-03-01T02:00:00\x00",
]

#: Naive cells that are no date: one of them sends every naive cell to the
#: per-cell path.
NOT_DATES = ["2019-02-29T00:00:00", "2019-03-01T24:00:00", "2019-03-01T23:59:60",
             "2019-13-01T00:00:00", "2019-00-01T00:00:00", "2019-03-00T00:00:00"]


def per_cell(cells, offset):
    """parse_timestamp cell by cell: the epoch, or None when it raises."""
    out = []
    for c in cells:
        try:
            out.append(parse_timestamp(c, offset))
        except (ValueError, OverflowError):
            out.append(None)
    return out


@pytest.mark.parametrize("not_dates", [[], NOT_DATES[:1], NOT_DATES],
                         ids=["dates", "one_not_a_date", "not_dates"])
@pytest.mark.parametrize("offset", [-5.0, 0.0, 5.5, -23.75, 1e-9, 24.0, np.nan, 1e300])
def test_bulk_parser_equals_parse_timestamp_cell_by_cell(offset, not_dates):
    cells = CELLS + not_dates
    epochs, ok = parse_timestamps(cells, offset)
    assert [int(e) if a else None for e, a in zip(epochs, ok)] == per_cell(cells, offset)


@pytest.mark.parametrize("far_years, not_dates", [
    (False, []), (False, NOT_DATES), (True, NOT_DATES)],
    ids=["near", "near_not_dates", "far_years"])
def test_mixed_timestamp_csv_loads_as_the_per_row_oracle(tmp_path, far_years, not_dates):
    far = {"-3600", "1e3", "2020-02-29T00:00:00", "0001-01-01T00:00:00",
           "9999-12-31T23:59:59"}
    cells = [c for c in CELLS + not_dates if far_years or c not in far]
    # plain rows keep the malformed share under half, and repeat times
    plain = [format_timestamp(1551416400 + 900 * k) for k in range(12)] * 2
    path = tmp_path / "mixed.csv"
    path.write_text("timestamp,power_kW\n"
                    + "".join(f"{c},{k % 7 - 1}.5\n" for k, c in enumerate(cells + plain[:14])))
    got, want = loaded(load_consumption, path, "per_quarter_hour"), loaded(
        load_consumption_rows, path, "per_quarter_hour")
    assert got == want
    assert (got[0] == "error") == far_years
    assert got[-1].rows_duplicate >= 2 and got[-1].rows_off_grid >= 1


def weather_loaded(load, path):
    """The times, texts and numeric bytes of one weather load, or "error"
    and the InputError's message."""
    try:
        w = load(path)
    except InputError as exc:
        return "error", str(exc)
    return (w.times.tobytes(), w.summary, w.icon, w.numeric.tobytes(),
            w.numeric.shape, w.numeric.flags.c_contiguous)


@pytest.mark.parametrize("days, seed", [(1, 0), (2, 1), (35, 2)])
def test_fixture_weather_loads_as_the_per_row_oracle(tmp_path, days, seed):
    _, path = write_fixture_dir(tmp_path, days, apartments=1, seed=seed)
    got = weather_loaded(load_weather, path)
    assert got == weather_loaded(load_weather_rows, path)
    assert got[0] != "error" and got[4] == (24 * days, 11)


#: Numeric cells float() reads, refuses or reads at or past MAX_VALUE:
#: blanks, junk, signed NaN and infinities, underscores, padding (also
#: Unicode spaces and digits), signed zeros and subnormals.
WEATHER_CELLS = [
    "", "junk", "nan", "-nan", "inf", "-Infinity", "1_000", "1__0", " 2.5 ",
    "1e9", "-1e9", "999999999.9", "-999999999.9", "1e999", "0x10", "-0.0",
    "5e-324", "\u20073.5\u2007", "\u0661\u0662", "\x1c7", "+.5", "1e", "12.5",
]


def junk_weather_csv(path, bad_time=None, rows=30):
    """A weather CSV in shuffled column order with a repeated column and an
    extra one, blank lines, a quoted multi-line cell, short and long rows,
    times out of order and every WEATHER_CELLS value in every numeric
    column; ``bad_time`` replaces the time of row 20."""
    header = WEATHER_COLUMNS[::-1] + ["extra", "temperature"]
    numeric = [i for i, c in enumerate(header) if c not in ("time", "summary", "icon")]
    lines = [",".join(header)]
    for r in range(rows):
        t = 1551416400 + 3600 * (7 * r % rows)   # distinct hours, out of order
        cells = [""] * len(header)
        cells[header.index("time")] = [format_timestamp(t), str(t),
                                       format_timestamp(t, 0.0) + "Z"][r % 3]
        cells[header.index("summary")] = '"Light, rain"' if r % 4 == 0 else f" Clear{r % 2} "
        cells[header.index("icon")] = '"multi\nline"' if r == 5 else "rain"
        for k, i in enumerate(numeric):
            cells[i] = WEATHER_CELLS[(r + 3 * k) % len(WEATHER_CELLS)]
        if r == 20 and bad_time is not None:
            cells[header.index("time")] = bad_time
        if r % 7 == 3:
            cells = cells[:len(header) - 2]    # short: the last columns read as empty
        if r % 7 == 4:
            cells += ["surplus", "1.5"]
        lines.append(",".join(cells))
        if r % 6 == 1:
            lines.append("")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("bad_time", [None, "garbage", "", "2019-02-29T00:00:00"])
def test_junk_weather_loads_as_the_per_row_oracle(tmp_path, bad_time):
    path = junk_weather_csv(tmp_path / "weather.csv", bad_time)
    got = weather_loaded(load_weather, path)
    assert got == weather_loaded(load_weather_rows, path)
    if bad_time is None:
        numeric = np.frombuffer(got[3]).reshape(got[4])
        assert np.isnan(numeric).any() and np.signbit(numeric[numeric == 0]).any()
        assert got[1][0] == "Light, rain"
    else:
        assert got[0] == "error" and f"bad time {bad_time!r}" in got[1]


@pytest.mark.parametrize("text", ["", "time,summary\n2019-03-01T00:00:00,x\n",
                                  ",".join(WEATHER_COLUMNS) + "\n\n\n"],
                         ids=["empty", "missing_columns", "no_rows"])
def test_weather_errors_match_the_per_row_oracle(tmp_path, text):
    path = tmp_path / "weather.csv"
    path.write_text(text)
    got = weather_loaded(load_weather, path)
    assert got[0] == "error" and got == weather_loaded(load_weather_rows, path)


def checkpoint_doc(p, hyper, spec, seed):
    return {"format_version": 1, "model_type": "powernet", "hyperparameters": hyper,
            "seed": seed, "feature_spec": spec,
            "params": {name: {"shape": list(a.shape), "data": a.ravel().tolist()}
                       for name, a in p.arrays()},
            "stack": len(p.lstm)}


@pytest.mark.parametrize("stack", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_checkpoint_json_equals_json_dumps(seed, stack):
    p = init_params(5, 4, 3, 6, seed=seed, stack=stack)
    rng = np.random.default_rng(seed)
    p.vec[:] *= 10.0 ** rng.integers(-30, 31, p.vec.size)
    p.vec[:6] = [-0.0, 1e-300, -1e-300, 1e300, -1e300, 0.0]
    # nulls and "data" keys outside the parameters must stay as they are
    hyper = {"memory_size": 5, "splits": [[0, 10], [10, 20]], "data": None}
    spec = {"summary_vocab": {"data": 1, "Rain": 2}, "cons_mean": 0.25,
            "nested": {"data": None, "params": []}}
    want = json.dumps(checkpoint_doc(p, hyper, spec, seed), indent=1,
                      sort_keys=True, allow_nan=False)
    assert checkpoint_to_json(p, hyper, spec, seed) == want


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_json_refuses_a_non_finite_parameter(value):
    p = init_params(2, 2, 2, 2)
    p.vec[-1] = value
    with pytest.raises(ValueError, match="JSON compliant"):
        checkpoint_to_json(p, {}, {}, 0)
