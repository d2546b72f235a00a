"""Seeded synthetic fixtures: realistic hourly consumption/weather data,
both in memory (AlignedDataset) and as CSV files in the ingestion formats.

The consumption process mixes a daily cycle, a weekday/weekend shift, a
cooling response to temperature and autocorrelated noise, so it exercises
every feature the models consume.
"""

from __future__ import annotations

import os

import numpy as np

from .dataio import (
    HOUR,
    STEP_OF_FORMAT,
    UTC_OFFSET_S,
    WEATHER_COLUMNS,
    AlignedDataset,
    TimeSeries,
    WeatherTable,
    csv_text,
    parse_timestamp,
    write_text,
)

SUMMARY_BINS = ["Clear", "Partly Cloudy", "Mostly Cloudy", "Overcast", "Rain"]
ICON_BINS = ["clear-day", "partly-cloudy-day", "cloudy", "rain"]

DEFAULT_START = "2016-04-01T00:00:00"
CONSUMPTION_NOISE = 0.05   # kW, the sd of each hour's noise innovation


def make_weather(hours: np.ndarray, rng) -> WeatherTable:
    """Plausible hourly weather over the given epoch-second grid."""
    n = len(hours)
    t_hours = (hours - hours[0]) / HOUR
    day_phase = 2 * np.pi * (t_hours % 24) / 24
    season_phase = 2 * np.pi * t_hours / (24 * 365)
    temperature = (55 + 20 * np.sin(season_phase - np.pi / 2)
                   + 12 * np.sin(day_phase - 2 * np.pi * 9 / 24)
                   + rng.normal(0, 2.0, n))
    cloud = np.clip(0.4 + 0.3 * np.sin(2 * np.pi * t_hours / 90 + 1.0)
                    + rng.normal(0, 0.2, n), 0, 1)
    precip_prob = np.clip(cloud - 0.5, 0, 1) * rng.uniform(0.5, 1.0, n)
    numeric = np.column_stack([
        temperature,
        temperature - rng.uniform(0, 3, n),          # apparentTemperature
        cloud,
        precip_prob,
        precip_prob * rng.uniform(0, 0.1, n),        # precipIntensity
        np.clip(10 - 6 * cloud + rng.normal(0, 1, n), 0.5, 10),  # visibility
        np.abs(rng.normal(6, 3, n)),                 # windSpeed
        rng.uniform(0, 360, n),                      # windBearing
        np.clip(0.5 + 0.3 * cloud + rng.normal(0, 0.1, n), 0, 1),  # humidity
        1013 + rng.normal(0, 5, n),                  # pressure
        temperature - rng.uniform(5, 15, n),         # dewPoint
    ])
    summary, icon = [], []
    for c, pp in zip(cloud, precip_prob):
        if pp > 0.3:
            summary.append("Rain"); icon.append("rain")
        else:
            k = min(int(c * 4), 3)
            summary.append(SUMMARY_BINS[k])
            icon.append(ICON_BINS[min(k, 3)])
    return WeatherTable(times=hours, summary=tuple(summary), icon=tuple(icon),
                        numeric=numeric)


def make_consumption(hours: np.ndarray, temperature: np.ndarray, rng,
                     base: float = 1.2, daily_amp: float = 0.8,
                     trend: float = 0.0015) -> np.ndarray:
    """Hourly kW with daily/weekly structure, a cooling load, AR(1) noise of
    innovation sd CONSUMPTION_NOISE and a gentle springtime load-growth trend."""
    n = len(hours)
    t_hours = (hours - hours[0]) / HOUR
    day_phase = 2 * np.pi * (t_hours % 24) / 24
    weekday = ((hours // (24 * HOUR)) + 3) % 7       # epoch day 0 was a Thursday
    weekend = (weekday >= 5).astype(float)
    daily = daily_amp * (0.6 * np.sin(day_phase - 2 * np.pi * 19 / 24)
                         + 0.4 * np.sin(2 * day_phase - 1.0))
    cooling = 0.03 * np.maximum(temperature - 70.0, 0.0)
    ar = np.zeros(n)
    eps = rng.normal(0, CONSUMPTION_NOISE, n)
    for i in range(1, n):
        ar[i] = 0.7 * ar[i - 1] + eps[i]
    kw = base + trend * t_hours + daily + 0.25 * weekend + cooling + ar
    return np.maximum(kw, 0.05)


def make_aligned_dataset(days: int, seed: int = 0,
                         trend: float = 0.0015) -> AlignedDataset:
    """One aggregate-level synthetic aligned dataset from DEFAULT_START,
    fully deterministic."""
    rng = np.random.default_rng(seed)
    hours = parse_timestamp(DEFAULT_START) + HOUR * np.arange(days * 24, dtype=np.int64)
    weather = make_weather(hours, rng)
    kw = make_consumption(hours, weather.numeric[:, 0], rng, trend=trend)
    return AlignedDataset(kw=kw, weather=weather)


def _local_times(epochs: np.ndarray) -> list:
    """``format_timestamp`` of every epoch, in one numpy call."""
    local = epochs + UTC_OFFSET_S
    return np.datetime_as_string(local.astype("datetime64[s]")).tolist()


def weather_csv(w: WeatherTable) -> str:
    """The text of a weather CSV holding ``w``."""
    rows = zip(_local_times(w.times), w.summary, w.icon, w.numeric.tolist())
    return csv_text(WEATHER_COLUMNS, ([t, s, i] + [f"{v:.6g}" for v in row]
                                      for t, s, i, row in rows))


def consumption_csv(hourly: TimeSeries, fmt: str, rng) -> str:
    """The text of a consumption CSV holding an hourly series expanded to
    the recording resolution.

    Sub-hour readings vary around the hourly value with zero-sum jitter, so
    the hourly mean round-trips exactly up to float error. One draw takes
    the jitter of every present hour, in the order of one draw per hour.
    """
    per = HOUR // STEP_OF_FORMAT[fmt]
    present = np.flatnonzero(~np.isnan(hourly.values))
    value = hourly.values[present]
    # np.where(floor > x, floor, x) is Python's max(x, floor), bit for bit
    jitter = rng.normal(0, 0.02 * np.where(0.05 > value, 0.05, value)[:, None],
                        (len(present), per))
    jitter -= jitter.mean(axis=1, keepdims=True)
    reading = (value[:, None] + jitter).ravel()
    stamps = (hourly.timestamps[present, None] + HOUR // per * np.arange(per)).ravel()
    rows = zip(_local_times(stamps), np.where(0.0 > reading, 0.0, reading).tolist())
    return "".join(f"{t},{r:.6f}\r\n" for t, r in rows)   # as csv.writer ends rows


def fixture_files(days: int, apartments: int, seed: int, fmt: str) -> dict:
    """{file name: text} of per-apartment consumption CSVs ``Apt<k>.csv``
    and then ``weather.csv``, from DEFAULT_START."""
    rng = np.random.default_rng(seed)
    hours = parse_timestamp(DEFAULT_START) + HOUR * np.arange(days * 24, dtype=np.int64)
    weather = make_weather(hours, rng)
    files = {}
    for a in range(apartments):
        kw = make_consumption(hours, weather.numeric[:, 0], rng,
                              base=rng.uniform(0.8, 1.6),
                              daily_amp=rng.uniform(0.5, 1.0))
        series = TimeSeries(start=int(hours[0]), step=HOUR, values=kw)
        files[f"Apt{a + 1}.csv"] = consumption_csv(series, fmt, rng)
    files["weather.csv"] = weather_csv(weather)
    return files


def write_fixture_dir(out_dir, days: int, apartments: int = 3, seed: int = 0,
                      fmt: str = "per_minute"):
    """Write ``fixture_files`` to ``out_dir``; returns (consumption paths,
    weather path)."""
    paths = []
    for name, text in fixture_files(days, apartments, seed, fmt).items():
        paths.append(os.path.join(out_dir, name))
        write_text(paths[-1], text)
    return paths[:-1], paths[-1]
