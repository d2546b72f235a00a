import dataclasses
import json

import numpy as np
import pytest

from oracles import make_sinusoid_dataset
from powernet import cli, forecast_anomaly
from powernet.baselines import persistence_forecast
from powernet.dataio import dataset_to_json
from powernet.features import (build_examples, calendar_features,
                               fit_feature_spec, weather_features,
                               window_features)
from powernet.forecast_anomaly import (
    DetectorConfig, ForecastReport, ResidualStats,
    TheftScenario, apply_theft, detect_consumer, detect_substation,
    forecast_recursive, forecast_with_actuals, observed_tl,
    residual_stats, retraining_analysis, simulate_substation, theft_sweep,
)
from powernet.metrics import error_curve, mape
from powernet.numcore import InputError
from powernet.model import (checkpoint_to_json, forward_batch,
                            forward_recursive, init_params)
from powernet.synth import make_aligned_dataset
from powernet.training import TrainConfig, train


def predict_one(p, window_norm, fw, fc) -> float:
    """Single-row oracle: one batch-1 forward pass."""
    yhat, _ = forward_batch(np.asarray(window_norm)[None, :],
                            np.asarray(fw)[None, :], np.asarray(fc)[None, :], p)
    return float(yhat[0])


def weather_row(d, row, spec):
    return weather_features(d.weather.rows([row]), spec)[0]


def reference_forecast_recursive(p, spec, d, start_row, horizon):
    """Per-hour oracle: each hour re-runs its whole window at batch 1."""
    n = spec.window_len
    history = list(spec.normalize_kw(d.kw[start_row - n:start_row]))
    preds = np.empty(horizon)
    for h in range(horizon):
        row = start_row + h
        yhat = predict_one(p, history[-n:], weather_row(d, row, spec),
                           calendar_features(int(d.hours[row]), spec))
        preds[h] = max(float(spec.denormalize_kw(yhat)), 0.0)
        history.append(float(spec.normalize_kw(preds[h])))
    return preds


@pytest.fixture(scope="module")
def sinusoid_model():
    """A small net trained on the sinusoid until it tracks the signal."""
    d = make_sinusoid_dataset(days=12, seed=0)
    n = len(d)
    bounds = ((0, n - 96), (n - 96, n - 48), (n - 48, n))
    spec = fit_feature_spec(d, slice(*bounds[0]), window_len=24)
    data = build_examples(d, spec, bounds)
    cfg = TrainConfig(memory_size=8, d1=8, d2=6, d3=8, max_epochs=40,
                      patience=40, learning_rate=3e-3, dropout_rate=0.0,
                      seed=0)
    params, report = train(data, cfg)
    assert report.best_val_mse < 0.02
    return params, spec, d, bounds


class TestForecastWithActuals:
    def test_matches_single_row_oracle(self, sinusoid_model):
        p, spec, d, bounds = sinusoid_model
        start = bounds[2][0]
        rep = forecast_with_actuals(p, spec, d, start, 6)
        n = spec.window_len
        for h in range(6):
            row = start + h
            yhat = predict_one(p, spec.normalize_kw(d.kw[row - n:row]),
                               weather_row(d, row, spec),
                               calendar_features(int(d.hours[row]), spec))
            expected = max(float(spec.denormalize_kw(yhat)), 0.0)
            assert rep.predictions[h] == pytest.approx(expected, abs=1e-12)

    def test_tracks_signal(self, sinusoid_model):
        p, spec, d, bounds = sinusoid_model
        rep = forecast_with_actuals(p, spec, d, bounds[2][0], 48)
        assert mape(rep.actuals, rep.predictions) < 8.0
        assert rep.mode == "actual_history"

    def test_guards(self, sinusoid_model):
        p, spec, d, _ = sinusoid_model
        with pytest.raises(InputError):
            forecast_with_actuals(p, spec, d, 5, 10)       # no full window
        with pytest.raises(InputError):
            forecast_with_actuals(p, spec, d, len(d) - 5, 10)  # beyond data


class TestForecastRecursive:
    def test_first_step_equals_actual_history_mode(self, sinusoid_model):
        p, spec, d, bounds = sinusoid_model
        start = bounds[2][0]
        rec = forecast_recursive(p, spec, d, start, 4)
        act = forecast_with_actuals(p, spec, d, start, 4)
        assert rec.predictions[0] == pytest.approx(act.predictions[0], abs=1e-12)

    def test_deterministic_and_clamped(self, sinusoid_model):
        p, spec, d, bounds = sinusoid_model
        a = forecast_recursive(p, spec, d, bounds[2][0], 24)
        b = forecast_recursive(p, spec, d, bounds[2][0], 24)
        assert np.array_equal(a.predictions, b.predictions)
        assert np.all(a.predictions >= 0)

    def test_errors_accumulate_relative_to_actual_history(self, sinusoid_model):
        p, spec, d, bounds = sinusoid_model
        start = bounds[2][0]
        rec = forecast_recursive(p, spec, d, start, 48)
        act = forecast_with_actuals(p, spec, d, start, 48)
        assert act.curves.cum_mape[-1] <= rec.curves.cum_mape[-1] + 1e-9

    @pytest.mark.parametrize("fn", [forecast_recursive, forecast_with_actuals])
    def test_curves_are_built_on_first_read(self, sinusoid_model, monkeypatch, fn):
        p, spec, d, bounds = sinusoid_model

        def refuse(*args):
            raise AssertionError("error_curve called before .curves was read")

        monkeypatch.setattr(forecast_anomaly, "error_curve", refuse)
        rep = fn(p, spec, d, bounds[2][0], 30)
        assert "curves" not in vars(rep)
        monkeypatch.undo()
        curves = rep.curves
        want = error_curve(rep.actuals, rep.predictions)
        for f in dataclasses.fields(want):
            assert (np.asarray(getattr(curves, f.name)).tobytes()
                    == np.asarray(getattr(want, f.name)).tobytes()), f.name
        assert rep.curves is curves

    def test_horizon_guard(self, sinusoid_model):
        p, spec, d, _ = sinusoid_model
        with pytest.raises(InputError, match="weather"):
            forecast_recursive(p, spec, d, len(d) - 10, 20)

    @pytest.mark.parametrize("fn", [forecast_recursive, forecast_with_actuals])
    def test_empty_horizon_rejected(self, sinusoid_model, fn):
        p, spec, d, bounds = sinusoid_model
        with pytest.raises(InputError, match="horizon"):
            fn(p, spec, d, bounds[2][0], 0)

    @pytest.mark.parametrize("stack", [1, 2, 3])
    @pytest.mark.parametrize("window_len", [1, 3, 24])
    # False and True feed back the prediction, True with every hour clamped
    # to 0 kW; "recorded" feeds back the recorded kW, the actual history
    @pytest.mark.parametrize("clamp", [False, True, "recorded"])
    def test_wavefront_equals_per_hour_oracle(self, stack, window_len, clamp):
        d = make_aligned_dataset(days=5, seed=stack)
        spec = fit_feature_spec(d, slice(0, 96), window_len=window_len)
        p = init_params(6, 5, 4, 5, seed=window_len, stack=stack)
        if clamp is True:
            p.b4 = -50.0   # every hour clamps, and 0 kW is fed back
        n = window_len
        for horizon in sorted({1, n - 1, n, 3 * n + 1} - {0}):
            if clamp == "recorded":
                rows = np.arange(n, n + horizon)
                E, FW, FC = window_features(d, spec, rows)
                recorded = iter(spec.normalize_kw(d.kw[rows]))
                got = forward_recursive(E[0], FW, FC, p, lambda y: next(recorded))
                want = forward_batch(E, FW, FC, p)[0]
            else:
                got = forecast_recursive(p, spec, d, n, horizon).predictions
                want = reference_forecast_recursive(p, spec, d, n, horizon)
            assert got == pytest.approx(want, rel=0, abs=1e-12)
        assert clamp is not True or (want == 0.0).all()

    @pytest.mark.parametrize("mean, std", [(0.0, 1.0), (-0.0, 1.0), (0.1, 0.3),
                                           (1 / 3, 1e-7), (-2.5, 7.3e5), (1e300, 3.7)])
    def test_feed_equals_the_array_clamp_bit_for_bit(self, monkeypatch, mean, std):
        d = make_aligned_dataset(days=3, seed=0)
        spec = dataclasses.replace(fit_feature_spec(d, slice(0, 48), window_len=3),
                                   cons_mean=mean, cons_std=std)
        feeds = []

        def capture(history, fw, fc, p, feed):
            feeds.append(feed)
            raise StopIteration

        monkeypatch.setattr(forecast_anomaly, "forward_recursive", capture)
        with pytest.raises(StopIteration):
            forecast_recursive(init_params(4, 3, 2, 3), spec, d, 3, 2)
        clamped = -mean / std - 1.0   # below 0 kW once denormalized
        ys = np.random.default_rng(0).normal(scale=3, size=200).tolist() + [
            0.0, -0.0, clamped, 2 * clamped, 1e300, -1e300, 5e-324, -5e-324, np.nan]
        for y in ys:
            want = spec.normalize_kw(max(float(spec.denormalize_kw(y)), 0.0))
            assert np.float64(feeds[0](np.float64(y))).tobytes() == want.tobytes(), y


class TestRetrainingAnalysis:
    def make_report(self, actual, pred):
        return ForecastReport(mode="recursive", horizon=len(actual),
                              predictions=np.asarray(pred, dtype=float),
                              actuals=np.asarray(actual, dtype=float))

    def test_crossing_hours(self):
        actual = np.ones(6)
        pred = np.array([1.0, 1.0, 0.4, 0.4, 0.4, 0.4])
        # cum MAPE: 0, 0, 20, 30, 36, 40
        rep = self.make_report(actual, pred)
        out = retraining_analysis(rep, [25.0, 39.0, 90.0])
        assert out[0] == {"threshold_pct": 25.0, "crossing_hour": 4}
        assert out[1] == {"threshold_pct": 39.0, "crossing_hour": 6}
        assert out[2]["crossing_hour"] is None

    def test_immediate_crossing(self):
        rep = self.make_report([1.0, 1.0], [0.0, 1.0])
        assert retraining_analysis(rep, [50.0])[0]["crossing_hour"] == 1


class TestTheft:
    def test_scenario_validation(self):
        with pytest.raises(InputError):
            TheftScenario(theta=1.0, start_row=0, end_row=1)
        with pytest.raises(InputError):
            TheftScenario(theta=0.5, start_row=5, end_row=2)

    def test_apply_theft_exact(self):
        values = np.array([2.0, 4.0, 6.0, 8.0])
        out = apply_theft(values, TheftScenario(theta=0.25, start_row=1, end_row=3))
        assert np.array_equal(out, [2.0, 3.0, 4.5, 8.0])
        assert values[1] == 4.0   # input untouched

    def test_range_guard(self):
        with pytest.raises(InputError):
            apply_theft(np.ones(3), TheftScenario(theta=0.5, start_row=0, end_row=5))

    def test_sweep_strictly_increasing(self, sinusoid_model):
        p, spec, d, bounds = sinusoid_model
        thetas = [0.0, 0.1, 0.3, 0.5, 0.9]
        rows = theft_sweep(p, spec, d, bounds[2][0], 48, thetas)
        mapes = [r["mape"] for r in rows]
        assert [r["theta"] for r in rows] == thetas
        assert all(b > a for a, b in zip(mapes, mapes[1:]))

    def test_sweep_oracle_under_perfect_prediction(self):
        # if predictions equal the true series, MAPE(theta) = 100*theta/(1-theta)
        actual = np.full(30, 2.0)
        for theta in (0.1, 0.5):
            reported = actual * (1 - theta)
            assert mape(reported, actual) == pytest.approx(
                100 * theta / (1 - theta), rel=1e-12)

    def test_sweep_csv(self, tmp_path):
        path = tmp_path / "sweep.csv"
        cli._write_csv(path, ["theta", "mape"], [(0.1, 11.0), (0.5, 100.0)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "theta,mape"
        assert lines[1] == "0.1,11.0"


class TestConsumerDetector:
    def clean_pair(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        actual = 2.0 + 0.5 * np.sin(2 * np.pi * np.arange(n) / 24)
        predicted = actual * (1 + rng.normal(0, 0.01, n))
        return predicted, actual

    def test_stats_on_identical_series(self):
        cfg = DetectorConfig()
        stats = residual_stats(np.ones(48), np.ones(48), cfg)
        assert stats.mu == 0.0 and stats.sigma == 0.0

    def test_no_false_alarms_on_training_noise_level(self):
        predicted, reported = self.clean_pair(seed=1)
        cfg = DetectorConfig(window=24, k=3.0)
        stats = residual_stats(predicted, reported, cfg)
        fresh_p, fresh_r = self.clean_pair(seed=2)
        alarms = detect_consumer(fresh_p, fresh_r, cfg, stats)
        assert len(alarms) <= 0.05 * (len(fresh_p) - cfg.window + 1)

    def test_theft_raises_alarms(self):
        predicted, reported = self.clean_pair(seed=3)
        cfg = DetectorConfig(window=24, k=3.0)
        stats = residual_stats(predicted, reported, cfg)
        tampered = apply_theft(reported, TheftScenario(theta=0.5, start_row=50,
                                                       end_row=200))
        alarms = detect_consumer(predicted, tampered, cfg, stats)
        hours = {a["hour"] for a in alarms}
        # every fully-tampered window must alarm
        assert set(range(50 + cfg.window - 1, 200)) <= hours

    def test_window_means_match_loop_oracle(self):
        rng = np.random.default_rng(4)
        predicted = rng.uniform(1, 3, 60)
        reported = predicted * (1 + rng.normal(0, 0.1, 60))
        cfg = DetectorConfig(window=10, k=1.0)
        stats = residual_stats(predicted, reported, cfg)
        res = np.abs(reported - predicted) / np.maximum(predicted, cfg.floor_kw)
        means = [res[i:i + 10].mean() for i in range(51)]
        assert stats.mu == pytest.approx(np.mean(means), abs=1e-12)
        assert stats.sigma == pytest.approx(np.std(means), abs=1e-12)

    def test_config_validation(self):
        with pytest.raises(InputError):
            DetectorConfig(window=0)
        with pytest.raises(InputError):
            DetectorConfig(k=0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["predicted", "reported"])
    def test_non_finite_series_rejected(self, name, value):
        # a NaN reading would give a NaN sigma, and then no alarm could fire
        cfg = DetectorConfig(window=6)
        series = dict(zip(["predicted", "reported"], self.clean_pair(n=48)))
        series[name][17] = value
        stats = ResidualStats(mu=0.0, sigma=1.0)
        for call in (lambda: residual_stats(*series.values(), cfg),
                     lambda: detect_consumer(*series.values(), cfg, stats)):
            with pytest.raises(InputError, match=f"^{name} holds a non-finite value$"):
                call()

    @pytest.mark.parametrize("k", [np.nan, np.inf, -np.inf])
    def test_non_finite_k_rejected(self, k):
        # a NaN or infinite threshold can never fire an alarm
        with pytest.raises(InputError, match=f"k: expected real > 0, got {k}"):
            DetectorConfig(k=k)


class TestSubstation:
    def test_balance_without_noise(self):
        consumers = [np.full(48, 1.0), np.full(48, 2.0)]
        master = simulate_substation(consumers, tl_fraction=0.1, noise_frac=0.0)
        assert np.allclose(master, 3.0 / 0.9, atol=1e-12)
        tl = observed_tl(master, consumers)
        assert np.allclose(tl, 0.1 * master, atol=1e-12)

    def test_under_reporting_inflates_observed_tl(self):
        consumers = [np.full(48, 1.0), np.full(48, 2.0)]
        master = simulate_substation(consumers, tl_fraction=0.1, noise_frac=0.0)
        reported = [consumers[0],
                    apply_theft(consumers[1], TheftScenario(0.5, 0, 48))]
        tl = observed_tl(master, reported)
        assert np.all(tl > 0.1 * master + 0.9)

    def test_detect_substation_flags_theft(self):
        rng = np.random.default_rng(5)
        base = 2.0 + 0.5 * np.sin(2 * np.pi * np.arange(240) / 24)
        consumers = [base * rng.uniform(0.8, 1.2) for _ in range(4)]
        master = simulate_substation(consumers, tl_fraction=0.05,
                                     noise_frac=0.002, seed=1)
        tl_clean = observed_tl(master, consumers)
        tl_pred = persistence_forecast(tl_clean[:120], 240)
        cfg = DetectorConfig(window=24, k=3.0)
        stats = residual_stats(tl_pred[:120], tl_clean[:120], cfg)
        reported = [apply_theft(consumers[0], TheftScenario(0.5, 120, 240))] \
            + consumers[1:]
        alarms = detect_substation(master, reported, tl_pred, cfg, stats)
        assert any(a["hour"] >= 120 + cfg.window - 1 for a in alarms)
        clean_alarms = detect_substation(master, consumers, tl_pred, cfg, stats)
        assert len(clean_alarms) <= 0.05 * (240 - cfg.window + 1)

    def test_misaligned_inputs(self):
        with pytest.raises(InputError, match="misaligned"):
            detect_substation(np.ones(10), [np.ones(9)], np.ones(10),
                              DetectorConfig(), ResidualStats(0.0, 1.0))

    # the technical-loss model is the seasonal persistence baseline
    def test_seasonal_predictor_repeats_last_period(self):
        history = np.arange(48.0)
        out = persistence_forecast(history, 30, period=24)
        assert np.array_equal(out[:24], history[24:])
        assert out[24] == history[24]

    def test_seasonal_predictor_guard(self):
        with pytest.raises(InputError):
            persistence_forecast(np.ones(5), 10, period=24)

    @pytest.mark.parametrize("horizon", [0, 1, 24, 3 * 24 + 5])
    def test_seasonal_predictor_matches_loop_oracle(self, horizon):
        history = np.random.default_rng(0).normal(size=60)
        last = history[-24:]
        expected = np.array([last[h % 24] for h in range(horizon)])
        out = persistence_forecast(history, horizon, period=24)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)


def forecast_artifacts(tmp_path, monkeypatch, report) -> dict:
    """The files ``powernet forecast`` writes when the forecast it makes is
    ``report``, by name."""
    d = make_aligned_dataset(days=2, seed=0)
    spec = fit_feature_spec(d, slice(0, 24), window_len=3)
    (tmp_path / "dataset.json").write_text(dataset_to_json(d))
    (tmp_path / "checkpoint.json").write_text(
        checkpoint_to_json(init_params(2, 2, 2, 2), {}, spec.to_dict(), 0))
    monkeypatch.setattr(cli, "forecast_recursive", lambda *args: report)
    out = tmp_path / "out"
    assert cli.main(["forecast", "--checkpoint", str(tmp_path / "checkpoint.json"),
                     "--dataset", str(tmp_path / "dataset.json"),
                     "--horizon", str(report.horizon), "--out", str(out)]) == 0
    return {path.name: path.read_text() for path in out.iterdir()}


class TestForecastReport:
    def test_json_and_csv(self, tmp_path, monkeypatch):
        actual = np.array([1.0, 2.0])
        pred = np.array([1.1, 1.9])
        rep = ForecastReport(mode="recursive", horizon=2, predictions=pred,
                             actuals=actual)
        files = forecast_artifacts(tmp_path, monkeypatch, rep)
        doc = files["forecast_recursive.json"]
        assert '"mode": "recursive"' in doc
        assert json.loads(doc)["mape"] == mape(actual, pred)
        lines = files["forecast_recursive.csv"].strip().splitlines()
        assert lines[0] == "hour,actual_kw,predicted_kw"
        assert lines[1].startswith("1,1.0,")
        curve = files["forecast_recursive_curve.csv"].strip().splitlines()
        assert curve[0] == "hour,cum_mape,cum_mse,roll_mape,roll_mse"
        assert [float(v) for v in curve[2].split(",")[1:]] == [
            rep.curves.cum_mape[1], rep.curves.cum_mse[1],
            rep.curves.roll_mape[1], rep.curves.roll_mse[1]]
