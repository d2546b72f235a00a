"""Reference implementations that the tests compare the package against,
the finite-difference gradient checker, and a test-only dataset."""

import csv
import math
from datetime import timedelta
from itertools import zip_longest

import numpy as np

from powernet.dataio import (
    HOUR, MAX_SLOTS_PER_ROW, MAX_VALUE, STEP_OF_FORMAT, WEATHER_COLUMNS,
    WEATHER_NUMERIC_COLUMNS, AlignedDataset, TimeSeries, WeatherTable,
    format_timestamp, parse_timestamp, parse_timestamps,
)
from powernet.numcore import InputError
from powernet.synth import DEFAULT_START, make_weather


def sigmoid(x):
    """The logistic function 1 / (1 + e^-x), elementwise: the oracle for
    the LSTM's gates, which the package computes as 1/2 + tanh(x/2)/2."""
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def day_of_month(days: np.ndarray) -> np.ndarray:
    """Day of the month (1-31) of each count of days since 1970-01-01 in
    the proleptic Gregorian calendar (H. Hinnant's ``civil_from_days``)."""
    z = days + 719468                   # days since 0000-03-01
    doe = z - (z // 146097) * 146097    # day of the 400-year era
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)   # day of the March year
    return doy - (153 * ((5 * doy + 2) // 153) + 2) // 5 + 1


def calendar_rows(t, spec) -> np.ndarray:
    """``features.calendar_features`` in integer arithmetic only: the day
    of the month from ``day_of_month`` and the five columns stacked."""
    offset = timedelta(hours=spec.utc_offset_hours) // timedelta(seconds=1)
    days, seconds = np.divmod(np.asarray(t, dtype=np.int64) + offset, 86400)
    hour = seconds // HOUR
    weekday = (days + 3) % 7             # 1970-01-01 was a Thursday
    lo, hi = spec.daytime_range
    return np.stack([day_of_month(days), weekday, hour,
                     (lo <= hour) & (hour < hi), weekday >= 5],
                    axis=-1).astype(np.float64)


def write_consumption_rows(path, hourly, fmt: str, rng):
    """``synth.consumption_csv`` one reading at a time, written to ``path``:
    one jitter draw per present hour, one ``format_timestamp`` and one
    ``csv.writer`` row per reading."""
    per = {"per_minute": 60, "per_quarter_hour": 4}[fmt]
    step = HOUR // per
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i, value in enumerate(hourly.values):
            if np.isnan(value):
                continue
            jitter = rng.normal(0, 0.02 * max(value, 0.05), per)
            jitter -= jitter.mean()
            base_ts = hourly.start + i * hourly.step
            for j in range(per):
                reading = max(value + jitter[j], 0.0)
                writer.writerow([format_timestamp(base_ts + j * step),
                                 f"{reading:.6f}"])


def load_consumption_rows(path, fmt: str = "per_minute", report=None):
    """``dataio.load_consumption`` one row at a time: ``parse_timestamp``
    per row, a stable sort, and each reading written into its slot in time
    order, so the last of a slot wins. Duplicates are counted against the
    previous row in time order and off-grid rows one by one."""
    step = STEP_OF_FORMAT[fmt]
    rows, bad, total = [], 0, 0
    with open(path, newline="") as fh:
        for line in csv.reader(fh):
            if not line or not "".join(line).strip():
                continue
            total += 1
            try:
                ts = parse_timestamp(line[0])
                power = float(line[1])
            except (ValueError, IndexError, OverflowError):
                bad += 1
                continue
            if not abs(power) < MAX_VALUE:
                bad += 1
                continue
            rows.append((ts, power))
    rows.sort(key=lambda r: r[0])
    if report is not None:
        report.rows_parsed += len(rows)
        report.rows_malformed += bad
        report.rows_duplicate += sum(a[0] == b[0] for a, b in zip(rows, rows[1:]))
        report.rows_off_grid += sum(ts % step != 0 for ts, _ in rows)
    if not rows:
        raise InputError(f"{path}: no parseable rows")
    if bad > total / 2:
        raise InputError(f"{path}: {bad}/{total} rows malformed")
    start = rows[0][0] - rows[0][0] % step
    n = (rows[-1][0] - start) // step + 1
    if n > MAX_SLOTS_PER_ROW * len(rows):
        raise InputError(f"{path}: {len(rows)} rows span {n} slots")
    values = np.full(n, np.nan)
    negatives = 0
    for ts, power in rows:
        if power < 0:
            negatives += 1
            continue
        values[(ts - start) // step] = power
    if report is not None:
        report.negatives_dropped += negatives
    return TimeSeries(start=int(start), step=step, values=values)


def fill_gaps_values(s: TimeSeries, max_run: int = 3) -> TimeSeries:
    """``dataio.fill_gaps`` one value at a time: walk every slot, measure
    each gap run, and fill an interior run of at most ``max_run`` slots
    value by value, the k-th at ``left + (k + 1) / (run + 1) * (right - left)``."""
    values = s.values.copy()
    n = len(values)
    i = 0
    while i < n:
        if not math.isnan(values[i]):
            i += 1
            continue
        j = i
        while j < n and math.isnan(values[j]):
            j += 1
        run = j - i
        if run <= max_run and i > 0 and j < n:
            left, right = values[i - 1], values[j]
            for k in range(run):
                frac = (k + 1) / (run + 1)
                values[i + k] = left + frac * (right - left)
        i = j
    return TimeSeries(start=s.start, step=s.step, values=values)


def resample_hourly_hours(s: TimeSeries) -> TimeSeries:
    """``dataio.resample_hourly`` of a series on its step's grid, one hour
    at a time: each hour's slots from the hour boundary at or before the
    first sample, NaN where the series has none, added by ``np.nansum``
    and divided by the count of present ones; an hour with none is NaN."""
    if s.step == HOUR:
        return s
    per, first = HOUR // s.step, s.start - s.start % HOUR
    end = s.start + len(s) * s.step
    hourly = []
    for t in range(first, end, HOUR):
        block = np.full(per, np.nan)
        for j in range(per):
            i = (t + j * s.step - s.start) // s.step
            if 0 <= i < len(s):
                block[j] = s.values[i]
        count = int(np.count_nonzero(~np.isnan(block)))
        hourly.append(np.nansum(block) / count if count else np.nan)
    return TimeSeries(start=first, step=HOUR, values=np.array(hourly))


def load_weather_rows(path) -> WeatherTable:
    """``dataio.load_weather`` one row at a time: each row a dict of the
    header's names (a short row's missing cells empty, a repeated name's
    last cell) and one ``float()`` per numeric cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [c for c in WEATHER_COLUMNS if c not in header]
        if missing:
            raise InputError(f"{path}: missing weather columns {missing}")
        cells_of_time, line_nums, summary, icon, numeric = [], [], [], [], []
        for cells in filter(None, reader):
            row = dict(zip_longest(header, cells, fillvalue=""))
            cells_of_time.append(row["time"])
            line_nums.append(reader.line_num)
            summary.append(row["summary"].strip())
            icon.append(row["icon"].strip())
            vals = []
            for col in WEATHER_NUMERIC_COLUMNS:
                try:
                    value = float(row[col].strip())
                except ValueError:
                    value = np.nan
                vals.append(value if abs(value) < MAX_VALUE else np.nan)
            numeric.append(vals)
    times, ok = parse_timestamps(cells_of_time)
    if not ok.all():
        k = int(np.argmin(ok))
        raise InputError(f"{path}: row {line_nums[k]}: bad time {cells_of_time[k]!r}")
    if not len(times):
        raise InputError(f"{path}: empty weather file")
    order = np.argsort(times)
    return WeatherTable(times=times[order], summary=tuple(summary[i] for i in order),
                        icon=tuple(icon[i] for i in order),
                        numeric=np.asarray(numeric)[order])


def grad_check(f, p, analytic_grad, eps: float = 1e-5, refine: int = 3) -> float:
    """Max relative error between central differences of ``f`` and the
    supplied analytic gradient.

    Per-coordinate error is |fd - an| / max(1, |fd|, |an|); the max over
    all coordinates is returned. A coordinate whose error looks large is
    re-probed up to ``refine`` times with a 10x smaller step and keeps its
    best estimate: a central difference that happens to straddle a ReLU
    kink (a pre-activation within eps of zero) is wrong by O(1) however
    correct the gradient is, and shrinking the step moves the probe off
    the kink while staying above the roundoff floor.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    p = np.array(p, dtype=np.float64)
    analytic = np.asarray(analytic_grad, dtype=np.float64)
    if p.ndim != 1 or analytic.shape != p.shape:
        raise InputError(f"gradient shape {analytic.shape} != param shape {p.shape}")

    def probe(i, h):
        orig = p[i]
        p[i] = orig + h
        f_plus = float(f(p))
        p[i] = orig - h
        f_minus = float(f(p))
        p[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise FloatingPointError(f"non-finite evaluation at coordinate {i}")
        fd = (f_plus - f_minus) / (2.0 * h)
        return abs(fd - analytic[i]) / max(1.0, abs(fd), abs(analytic[i]))

    worst = 0.0
    for i in range(p.size):
        err = probe(i, eps)
        h = eps
        for _ in range(refine):
            if err <= 1e-6:
                break
            h /= 10.0
            err = min(err, probe(i, h))
        worst = max(worst, err)
    return worst


def make_sinusoid_dataset(days: int, seed: int = 0, noise_frac: float = 0.05,
                          offset: float = 2.0, amplitude: float = 1.0,
                          start: str = DEFAULT_START) -> AlignedDataset:
    """Pure period-24 sinusoid plus noise (sigma = noise_frac * amplitude);
    weather is generated but carries no signal about the target."""
    rng = np.random.default_rng(seed)
    t0 = parse_timestamp(start)
    hours = t0 + HOUR * np.arange(days * 24, dtype=np.int64)
    weather = make_weather(hours, rng)
    phase = 2 * np.pi * np.arange(days * 24) / 24
    kw = offset + amplitude * np.sin(phase) + rng.normal(0, noise_frac * amplitude, days * 24)
    return AlignedDataset(kw=np.maximum(kw, 0.01), weather=weather)
