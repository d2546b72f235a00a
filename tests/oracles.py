"""Reference implementations that the tests compare the package against."""

import csv

import numpy as np

from powernet.dataio import (
    DEFAULT_UTC_OFFSET_HOURS, HOUR, MAX_SLOTS_PER_ROW, MAX_VALUE, STEP_OF_FORMAT,
    DataError, TimeSeries, format_timestamp, parse_timestamp,
)


def sigmoid(x):
    """The logistic function 1 / (1 + e^-x), elementwise: the oracle for
    the LSTM's gates, which the package computes as 1/2 + tanh(x/2)/2."""
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def write_consumption_rows(path, hourly, fmt: str, rng):
    """``synth.write_consumption_csv`` one reading at a time: one jitter
    draw per present hour, one ``format_timestamp`` and one ``csv.writer``
    row per reading."""
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


def load_consumption_rows(path, fmt: str = "per_minute",
                          utc_offset_hours: float = DEFAULT_UTC_OFFSET_HOURS,
                          report=None):
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
                ts = parse_timestamp(line[0], utc_offset_hours)
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
        raise DataError(f"{path}: no parseable rows")
    if bad > total / 2:
        raise DataError(f"{path}: {bad}/{total} rows malformed")
    start = rows[0][0] - rows[0][0] % step
    n = (rows[-1][0] - start) // step + 1
    if n > MAX_SLOTS_PER_ROW * len(rows):
        raise DataError(f"{path}: {len(rows)} rows span {n} slots")
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
