"""Ingestion of meter and weather CSVs onto a uniform hourly grid.

Consumption files are two-column ``timestamp,power_kW`` CSVs at 1-minute or
15-minute resolution. Weather files are hourly with a fixed header. Gaps are
represented as NaN in the value array; timestamps are epoch seconds and the
grid is implied by ``start + i * step``.

Naive timestamps are local time in one fixed zone, UTC_OFFSET_S (UTC-05:00,
standard time for the source region, no DST), stored as UTC epoch seconds.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from itertools import chain
from operator import itemgetter

import numpy as np

from .numcore import Check, InputError, array, check, every, integer, items, one_of, real

HOUR = 3600

#: The zone of naive timestamps, in seconds east of UTC.
UTC_OFFSET_S = -5 * HOUR

#: A consumption file whose span holds more slots than this per parsed row
#: is mostly gaps, almost surely a mistyped timestamp.
MAX_SLOTS_PER_ROW = 100

#: No reading or weather value is this large: a larger one is corrupt, and
#: its z-score or squared error could overflow. The CSV readers drop it,
#: and the dataset reader refuses it.
MAX_VALUE = 1e9

WEATHER_NUMERIC_COLUMNS = [
    "temperature", "apparentTemperature", "cloudCover", "precipProbability",
    "precipIntensity", "visibility", "windSpeed", "windBearing",
    "humidity", "pressure", "dewPoint",
]
WEATHER_COLUMNS = ["time", "summary", "icon"] + WEATHER_NUMERIC_COLUMNS


def read_text(path, what: str) -> str:
    """The whole text of the input file at ``path``, line endings kept as
    on disk. An unreadable or undecodable file is an InputError naming
    ``what``; this is the one place input files are opened."""
    try:
        with open(path, newline="") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def write_text(path, text: str):
    """Write ``text`` to the file at ``path`` as it is, line endings too,
    making its directory first. A directory or file that cannot be made
    is an InputError naming ``path``; this is the one place output files
    are opened."""
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def csv_text(header, rows) -> str:
    """``rows`` under ``header`` as CSV text, as ``csv.writer`` writes
    them: each line ends in CRLF."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def json_text(doc) -> str:
    """``doc`` as an artifact's JSON text: keys sorted, indented by one
    space. A non-finite float raises ValueError rather than being written
    as the non-standard NaN or Infinity."""
    return json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)


def _csv_rows(reader, path):
    """The rows of the csv ``reader``; a CSV syntax error (say, a field over
    the size limit) is an InputError naming ``path`` and the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from exc


def parse_timestamp(text: str) -> int:
    """Parse an ISO-8601 timestamp or epoch seconds to UTC epoch seconds.

    Naive ISO timestamps are treated as local time at UTC_OFFSET_S.
    """
    text = text.strip()
    try:
        epoch = float(text)
    except ValueError:
        dt = datetime.fromisoformat(text.replace("Z", "+00:00"))
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone(timedelta(seconds=UTC_OFFSET_S)))
        return int(dt.timestamp())
    if not abs(epoch) < 2 ** 63:   # NaN, infinite or past int64
        raise OverflowError(f"epoch seconds {text} out of range")
    return int(epoch)


#: numpy rejects each cell of this shape that datetime rejects, but year 0000
_NAIVE = re.compile(r"(?!0000)[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}")


def parse_timestamps(cells: list):
    """``parse_timestamp`` of every cell: (int64 epochs, mask of the cells it
    accepts). Naive YYYY-MM-DDTHH:MM:SS cells are parsed in one numpy call
    unless one is not a date; every other cell, one by one."""
    epochs, ok = np.zeros(len(cells), dtype=np.int64), np.ones(len(cells), dtype=bool)
    bulk = [i for i, c in enumerate(cells) if _NAIVE.fullmatch(c)]
    try:
        epochs[bulk] = (np.array([cells[i] for i in bulk], dtype="datetime64[s]")
                        .astype(np.int64) - UTC_OFFSET_S)
    except ValueError:   # a naive cell is no date
        bulk = []
    for i in set(range(len(cells))).difference(bulk):
        try:
            epochs[i] = parse_timestamp(cells[i])
        except (ValueError, OverflowError):
            ok[i] = False
    return epochs, ok


def format_timestamp(epoch: int) -> str:
    """Local time at UTC_OFFSET_S as YYYY-MM-DDTHH:MM:SS, or ``epoch N``
    outside datetime's range."""
    tz = timezone(timedelta(seconds=UTC_OFFSET_S))
    try:
        return datetime.fromtimestamp(epoch, tz).strftime("%Y-%m-%dT%H:%M:%S")
    except (OverflowError, OSError, ValueError):
        return f"epoch {epoch}"


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled series; NaN entries mark gaps."""

    start: int        # UTC epoch seconds of the first sample
    step: int         # seconds between samples
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        if self.step <= 0:
            raise InputError("step must be positive")

    def __len__(self):
        return len(self.values)

    @property
    def timestamps(self) -> np.ndarray:
        return self.start + self.step * np.arange(len(self.values), dtype=np.int64)

    def gap_count(self) -> int:
        return int(np.isnan(self.values).sum())


@dataclass
class IngestReport:
    rows_parsed: int = 0
    rows_malformed: int = 0
    negatives_dropped: int = 0
    rows_duplicate: int = 0   # rows at the time of an earlier row; the last wins
    rows_off_grid: int = 0    # rows between grid times, floored onto the grid


@dataclass(frozen=True)
class WeatherTable:
    """Hourly weather rows; numeric columns follow WEATHER_NUMERIC_COLUMNS."""

    times: np.ndarray               # int64 epoch seconds, strictly increasing
    summary: tuple
    icon: tuple
    numeric: np.ndarray             # (N, 11) float64, NaN for missing

    def __post_init__(self):
        t = np.asarray(self.times, dtype=np.int64)
        if len(t) > 1 and not np.all(np.diff(t) > 0):
            raise InputError("weather timestamps must be strictly increasing")
        if not len(t) == len(self.summary) == len(self.icon) == len(self.numeric):
            raise InputError("weather columns must have equal length")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "numeric", np.asarray(self.numeric, dtype=np.float64))

    def __len__(self):
        return len(self.times)

    def rows(self, idx: np.ndarray):
        """(summaries, icons, numeric (N, 11)) of the rows ``idx``."""
        return ([self.summary[i] for i in idx], [self.icon[i] for i in idx],
                self.numeric[idx])


@dataclass(frozen=True)
class AlignedDataset:
    """Hour-aligned consumption and weather; no missing values remain.

    A row's hour is its weather row's time: ``hours`` is ``weather.times``,
    kept once. Rows carry explicit timestamps because an inner join may
    drop interior hours; consumers that need contiguity must check hour
    spacing.
    """

    kw: np.ndarray        # float64 consumption, gap-free
    weather: WeatherTable
    dropped_hours: int = 0

    def __post_init__(self):
        if len(self.kw) != len(self.weather):
            raise InputError("aligned arrays must have equal length")
        if np.isnan(self.kw).any():
            raise InputError("aligned consumption must be gap-free")

    def __len__(self):
        return len(self.kw)

    @property
    def hours(self) -> np.ndarray:
        """int64 epoch seconds per row."""
        return self.weather.times


STEP_OF_FORMAT = {"per_minute": 60, "per_quarter_hour": 900, "hourly": HOUR}

DATASET_FORMAT_VERSION = 1


def dataset_to_json(d: AlignedDataset) -> str:
    """Canonical on-disk form of an aligned dataset."""
    doc = {
        "format_version": DATASET_FORMAT_VERSION,
        "hours": [int(h) for h in d.hours],
        "kw": [float(v) for v in d.kw],
        "summary": list(d.weather.summary),
        "icon": list(d.weather.icon),
        "numeric": [[None if math.isnan(v) else float(v) for v in row]
                    for row in d.weather.numeric],
        "dropped_hours": d.dropped_hours,
    }
    return json.dumps(doc, sort_keys=True, allow_nan=False)


_TEXTS = items(Check("string", lambda v: isinstance(v, str)))
_WEATHER = real(-MAX_VALUE, MAX_VALUE)

#: What each key of ``dataset_to_json``'s document holds; a null weather
#: value is missing.
DATASET_CHECKS = {
    "format_version": one_of(DATASET_FORMAT_VERSION),
    "hours": array(integer(-2 ** 63, 2 ** 63)),   # int64, as they are kept
    "kw": array(real(0, MAX_VALUE)), "summary": _TEXTS, "icon": _TEXTS,
    "numeric": Check(f"list of rows of {len(WEATHER_NUMERIC_COLUMNS)} ({_WEATHER.kind})",
                     lambda a: a.shape[1:] == (len(WEATHER_NUMERIC_COLUMNS),)
                     and every(_WEATHER, a[~np.isnan(a)]),
                     lambda v: np.asarray([[np.nan if x is None else x for x in row]
                                           for row in v])),
    "dropped_hours": integer(0)}


def dataset_from_json(text: str) -> AlignedDataset:
    doc = check(json.loads(text), DATASET_CHECKS, "dataset")
    weather = WeatherTable(times=doc["hours"], summary=doc["summary"], icon=doc["icon"],
                           numeric=doc["numeric"])
    return AlignedDataset(kw=doc["kw"].astype(np.float64, copy=False),
                          weather=weather, dropped_hours=doc["dropped_hours"])


def load_consumption(path, fmt: str = "per_minute",
                     report: IngestReport | None = None) -> TimeSeries:
    """Load a two-column ``timestamp,power_kW`` CSV at its native resolution;
    naive timestamps are read at UTC_OFFSET_S.

    Malformed rows, including readings that are not finite or not below
    MAX_VALUE in magnitude, are counted and skipped (>50% malformed is a
    hard error); negative readings become gaps.
    """
    if fmt not in STEP_OF_FORMAT:
        raise InputError(f"unknown consumption format {fmt!r}")
    step = STEP_OF_FORMAT[fmt]
    text = read_text(path, "consumption CSV")
    rows = [cells for cells in _csv_rows(csv.reader(io.StringIO(text, newline="")), path)
            if "".join(cells).strip()]
    stamps = [cells[0] for cells in rows]
    # a header line, junk or a one-cell row reads NaN: malformed
    powers = _floats([cells[1] if len(cells) > 1 else "" for cells in rows])
    ts, ok = parse_timestamps(stamps)
    ok &= np.abs(powers) < MAX_VALUE   # also NaN
    order = np.argsort(ts[ok], kind="stable")
    ts, powers = ts[ok][order], powers[ok][order]
    bad = len(stamps) - len(ts)
    report = IngestReport() if report is None else report
    report.rows_parsed += len(ts)
    report.rows_malformed += bad
    report.rows_duplicate += int(np.count_nonzero(np.diff(ts) == 0))
    report.rows_off_grid += int(np.count_nonzero(ts % step))
    if not len(ts):
        raise InputError(f"{path}: no parseable rows")
    if bad > len(stamps) / 2:
        raise InputError(f"{path}: {bad}/{len(stamps)} rows malformed")
    start = int(ts[0]) - int(ts[0]) % step
    n = (int(ts[-1]) - start) // step + 1
    # checked before allocating: a mistyped year would ask for the span
    if n > MAX_SLOTS_PER_ROW * len(ts):
        first, last = (format_timestamp(int(ts[i])) for i in (0, -1))
        raise InputError(f"{path}: {len(ts)} rows from {first} to {last} "
                         f"span {n} slots, over {MAX_SLOTS_PER_ROW} per row; "
                         "is a timestamp mistyped?")
    negative = powers < 0
    slots, powers = (ts[~negative] - start) // step, powers[~negative]
    # the last reading of a slot in time order, file order among equal times
    last = np.append(slots[1:] != slots[:-1], True)
    values = np.full(n, np.nan)
    values[slots[last]] = powers[last]
    report.negatives_dropped += int(negative.sum())
    return TimeSeries(start=int(start), step=step, values=values)


def resample_hourly(s: TimeSeries) -> TimeSeries:
    """Mean of present sub-hour values per hour; an all-absent hour is a gap."""
    if HOUR % s.step != 0:
        raise InputError(f"step {s.step}s does not divide one hour")
    if s.step == HOUR:
        return s
    per = HOUR // s.step
    lead = (s.start % HOUR) // s.step   # slots of the first hour before the series
    blocks = np.full((-(-(lead + len(s)) // per), per), np.nan)   # whole hours
    blocks.flat[lead:lead + len(s)] = s.values
    counts = np.sum(~np.isnan(blocks), axis=1)
    hourly = np.divide(np.nansum(blocks, axis=1), counts, where=counts > 0,
                       out=np.full(len(blocks), np.nan))
    return TimeSeries(start=int(s.start - lead * s.step), step=HOUR, values=hourly)


def aggregate(series: list[TimeSeries]) -> TimeSeries:
    """Pointwise sum; a slot is a gap iff any constituent has a gap there."""
    if not series:
        raise InputError("nothing to aggregate")
    first = series[0]
    for s in series[1:]:
        if s.start != first.start or s.step != first.step or len(s) != len(first):
            raise InputError("aggregate inputs must share start/step/length")
    stacked = np.stack([s.values for s in series])
    total = stacked.sum(axis=0)   # NaN propagates through any gap
    return TimeSeries(start=first.start, step=first.step, values=total)


def fill_gaps(s: TimeSeries, max_run: int = 3) -> TimeSeries:
    """Linearly interpolate interior gap runs of length <= max_run."""
    if max_run < 0:
        raise InputError(f"fill max run must be >= 0, got {max_run}")
    values = s.values.copy()
    edges = np.flatnonzero(np.diff(np.isnan(values), prepend=False, append=False))
    for i, j in zip(edges[::2], edges[1::2]):   # the gap run values[i:j]
        if j - i <= max_run and i > 0 and j < len(values):
            left, right = values[i - 1], values[j]
            values[i:j] = left + np.arange(1, j - i + 1) / (j - i + 1) * (right - left)
    return replace(s, values=values)


def _floats(cells: list) -> np.ndarray:
    """``float()`` of every cell, NaN where it refuses one."""
    try:
        return np.fromiter(map(float, cells), np.float64, len(cells))
    except ValueError:   # junk somewhere: cell by cell
        out = []
        for cell in cells:
            try:
                out.append(float(cell))
            except ValueError:
                out.append(math.nan)
        return np.array(out)


def load_weather(path) -> WeatherTable:
    """Load the hourly weather CSV; the exact header row is required.

    A cell missing from a short row reads as empty, and a repeated column
    name reads its last column. A ``time`` cell that is not a timestamp is
    a hard error naming the row, as is a time that an earlier row has; an
    unparseable numeric cell, or one not below MAX_VALUE in magnitude, is
    stored as NaN (missing).
    """
    text = read_text(path, "weather CSV")
    reader = csv.reader(io.StringIO(text, newline=""))
    lines = _csv_rows(reader, path)
    header = next(lines, [])
    missing = [c for c in WEATHER_COLUMNS if c not in header]
    if missing:
        raise InputError(f"{path}: missing weather columns {missing}")
    numbered = [(reader.line_num, cells) for cells in lines if cells]   # blank lines are skipped
    if not numbered:
        raise InputError(f"{path}: empty weather file")
    line_nums, rows = zip(*numbered)
    width = len(header)
    rows = [cells if len(cells) >= width else cells + [""] * (width - len(cells))
            for cells in rows]
    column = {name: i for i, name in enumerate(header)}   # the last of a repeated name
    cells_of_time, summary, icon = zip(*map(itemgetter(
        column["time"], column["summary"], column["icon"]), rows))
    pick = itemgetter(*[column[c] for c in WEATHER_NUMERIC_COLUMNS])
    cells = list(map(str.strip, chain.from_iterable(map(pick, rows))))
    numeric = _floats(cells).reshape(len(rows), len(WEATHER_NUMERIC_COLUMNS))
    numeric[~(np.abs(numeric) < MAX_VALUE)] = np.nan   # also NaN
    times, ok = parse_timestamps(cells_of_time)
    if not ok.all():
        k = int(np.argmin(ok))
        raise InputError(f"{path}: row {line_nums[k]}: bad time {cells_of_time[k]!r}")
    order = np.argsort(times, kind="stable")
    in_order = times[order]
    repeats = order[1:][in_order[1:] == in_order[:-1]]
    if len(repeats):   # name the first row in the file that repeats a time
        k = int(repeats.min())
        first = int(np.argmax(times == times[k]))
        raise InputError(f"{path}: row {line_nums[k]}: time {cells_of_time[k]!r} "
                         f"repeats row {line_nums[first]}")
    return WeatherTable(
        times=in_order,
        summary=tuple(summary[i].strip() for i in order.tolist()),
        icon=tuple(icon[i].strip() for i in order.tolist()),
        numeric=numeric[order],
    )


def align(c: TimeSeries, w: WeatherTable) -> AlignedDataset:
    """Inner join of hourly consumption with weather rows on the hour."""
    if c.step != HOUR:
        raise InputError("align expects hourly consumption")
    cons_hours = c.timestamps
    present = ~np.isnan(c.values)
    common, ci, wi = np.intersect1d(cons_hours[present], w.times,
                                    return_indices=True)
    if len(common) == 0:
        raise InputError("consumption and weather spans do not overlap")
    cons_idx = np.nonzero(present)[0][ci]
    dropped = (len(cons_hours) - len(common)) + (len(w.times) - len(common))
    weather = WeatherTable(
        times=w.times[wi],
        summary=tuple(w.summary[i] for i in wi),
        icon=tuple(w.icon[i] for i in wi),
        numeric=w.numeric[wi],
    )
    return AlignedDataset(kw=c.values[cons_idx], weather=weather,
                          dropped_hours=int(dropped))
