"""Seeded synthetic fixtures: realistic hourly consumption/weather data,
both in memory (AlignedDataset) and as CSV files in the ingestion formats.

The consumption process mixes a daily cycle, a weekday/weekend shift, a
cooling response to temperature and autocorrelated noise, so it exercises
every feature the models consume.
"""

from __future__ import annotations

import csv
import os

import numpy as np

from .dataio import (
    HOUR,
    UTC_OFFSET_S,
    AlignedDataset,
    TimeSeries,
    WeatherTable,
    WEATHER_NUMERIC_COLUMNS,
    parse_timestamp,
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
    return AlignedDataset(hours=hours, kw=kw, weather=weather)


def _local_times(epochs: np.ndarray) -> list:
    """``format_timestamp`` of every epoch, in one numpy call."""
    local = epochs + UTC_OFFSET_S
    return np.datetime_as_string(local.astype("datetime64[s]")).tolist()


def write_weather_csv(path, w: WeatherTable):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time", "summary", "icon"] + WEATHER_NUMERIC_COLUMNS)
        writer.writerows([t, s, i] + [f"{v:.6g}" for v in row] for t, s, i, row
                         in zip(_local_times(w.times), w.summary, w.icon, w.numeric.tolist()))


def write_consumption_csv(path, hourly: TimeSeries, fmt: str, rng):
    """Expand an hourly series to the recording resolution and write it.

    Sub-hour readings vary around the hourly value with zero-sum jitter, so
    the hourly mean round-trips exactly up to float error. One draw takes
    the jitter of every present hour, in the order of one draw per hour.
    """
    per = {"per_minute": 60, "per_quarter_hour": 4}[fmt]
    present = np.flatnonzero(~np.isnan(hourly.values))
    value = hourly.values[present]
    # np.where(floor > x, floor, x) is Python's max(x, floor), bit for bit
    jitter = rng.normal(0, 0.02 * np.where(0.05 > value, 0.05, value)[:, None],
                        (len(present), per))
    jitter -= jitter.mean(axis=1, keepdims=True)
    reading = (value[:, None] + jitter).ravel()
    stamps = (hourly.timestamps[present, None] + HOUR // per * np.arange(per)).ravel()
    rows = zip(_local_times(stamps), np.where(0.0 > reading, 0.0, reading).tolist())
    with open(path, "w", newline="") as fh:   # rows end in \r\n, as csv.writer's
        fh.write("".join(f"{t},{r:.6f}\r\n" for t, r in rows))


def write_fixture_dir(out_dir, days: int, apartments: int = 3, seed: int = 0,
                      fmt: str = "per_minute"):
    """Emit per-apartment consumption CSVs plus weather.csv from
    DEFAULT_START; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    hours = parse_timestamp(DEFAULT_START) + HOUR * np.arange(days * 24, dtype=np.int64)
    weather = make_weather(hours, rng)
    paths = []
    for a in range(apartments):
        kw = make_consumption(hours, weather.numeric[:, 0], rng,
                              base=rng.uniform(0.8, 1.6),
                              daily_amp=rng.uniform(0.5, 1.0))
        series = TimeSeries(start=int(hours[0]), step=HOUR, values=kw)
        path = os.path.join(out_dir, f"Apt{a + 1}.csv")
        write_consumption_csv(path, series, fmt, rng)
        paths.append(path)
    weather_path = os.path.join(out_dir, "weather.csv")
    write_weather_csv(weather_path, weather)
    return paths, weather_path
