"""End-to-end acceptance gate.

Each test checks one numbered release criterion at its stated tolerance and
prints a single ``[PASS]``/``[FAIL]`` line (visible under ``pytest -s`` or in
captured output). Criteria 4-6 run against seeded 60-day synthetic datasets
with the model trained on the first 30 days: criterion 4 uses the default
generator (with its gentle load-growth trend), criteria 5-6 use a stationary
variant where the forecaster and detector calibration stay valid over the
held-out month.
"""

import time

import numpy as np
import pytest

from oracles import grad_check, make_sinusoid_dataset
from powernet.baselines import (
    best_split, fit_gbt, fit_gbt_examples, flatten_features,
    persistence_forecast, tree_predict,
)
from powernet.features import acf, build_examples, fit_feature_spec, tail_splits
from powernet.forecast_anomaly import (
    DetectorConfig, TheftScenario, apply_theft, detect_consumer,
    forecast_recursive, forecast_with_actuals, residual_stats, theft_sweep,
)
from powernet.metrics import mape, mse
from powernet.model import forward_batch, init_params
from powernet.synth import make_aligned_dataset
from powernet.training import TrainConfig, loss, train


def report(criterion: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def _reference_run(data_seed: int, trend: float):
    """Seeded 60-day dataset; model trained on the first 720 hours under the
    624:48:48 protocol; the later 720 hours are held out for forecasting."""
    d = make_aligned_dataset(days=60, seed=data_seed, trend=trend)
    bounds = tail_splits(720)
    spec = fit_feature_spec(d, slice(*bounds[0]))
    data = build_examples(d, spec, bounds)
    cfg = TrainConfig(memory_size=16, max_epochs=300, patience=25,
                      dropout_rate=0.05, seed=0)
    params, _ = train(data, cfg)
    return d, spec, data, bounds, params


@pytest.fixture(scope="module")
def trended_run():
    """Reference run on the default generator (gentle load-growth trend),
    used for the model-comparison criterion."""
    return _reference_run(data_seed=0, trend=0.0015)


@pytest.fixture(scope="module")
def stationary_run():
    """Reference run on a stationary generator, used for the horizon and
    theft criteria: those model a fixed consumption regime in which the
    forecaster and detector calibration stay valid over the held-out month."""
    return _reference_run(data_seed=5, trend=0.0)


class TestCriterion1:
    def test_gradient_correctness(self):
        t0 = time.monotonic()
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m, d1, d2, d3 = (int(v) for v in rng.integers(3, 9, size=4))
            T = int(rng.choice([1, 2, 5, 24]))
            B = 3
            p = init_params(m, d1, d2, d3, seed=seed)
            # jitter off the zero-bias init: with b2 = 0 exactly, an example
            # whose first ReLU layer is fully inactive puts every second-layer
            # pre-activation exactly on the kink, where finite differences
            # are undefined regardless of gradient correctness
            vec = p.to_vector()
            p = p.from_vector(vec + 0.01 * rng.normal(size=vec.size))
            E = rng.normal(size=(B, T))
            FW = rng.normal(size=(B, 13))
            FC = rng.normal(size=(B, 5))
            y = rng.normal(size=B)
            lam = 1e-3

            def f(vec):
                value, _ = loss(E, FW, FC, y, p.from_vector(vec), l2_lambda=lam)
                return value

            _, grads = loss(E, FW, FC, y, p, l2_lambda=lam)
            err = grad_check(f, p.to_vector(), grads.to_vector())
            worst = max(worst, err)
        wall = time.monotonic() - t0
        report(1, worst <= 1e-4 and wall < 60,
               f"max FD gradient error {worst:.3g} (tol 1e-4) over 20 seeds "
               f"in {wall:.1f}s (limit 60s)")


class TestCriterion2:
    def test_metric_oracles(self):
        rng = np.random.default_rng(0)
        worst_mse = worst_mape = worst_acf = 0.0
        for _ in range(100):
            n = int(rng.integers(10, 150))
            a = rng.uniform(0.2, 4.0, n)
            f = a + rng.normal(0, 0.5, n)
            # definitional loops
            o_mse = sum((x - y) ** 2 for x, y in zip(a, f)) / n
            terms = [abs((x - y) / x) for x, y in zip(a, f)]
            o_mape = 100.0 * sum(terms) / n
            worst_mse = max(worst_mse, abs(mse(a, f) - o_mse))
            worst_mape = max(worst_mape, abs(mape(a, f) - o_mape))
            k = int(rng.integers(1, min(20, n - 1)))
            mean = a.mean()
            denom = sum((v - mean) ** 2 for v in a)
            o_acf = [sum((a[t] - mean) * (a[t + lag] - mean)
                         for t in range(n - lag)) / denom
                     for lag in range(1, k + 1)]
            worst_acf = max(worst_acf, float(np.max(np.abs(acf(a, k) - o_acf))))
        ok = worst_mse <= 1e-12 and worst_mape <= 1e-12 and worst_acf <= 1e-10
        report(2, ok, f"100 fixtures: |Δmse| {worst_mse:.2g} (tol 1e-12), "
                      f"|Δmape| {worst_mape:.2g} (tol 1e-12), "
                      f"|Δacf| {worst_acf:.2g} (tol 1e-10)")


class TestCriterion3:
    def test_synthetic_convergence(self):
        t0 = time.monotonic()
        d = make_sinusoid_dataset(days=30, seed=0, noise_frac=0.05)
        bounds = tail_splits(len(d))
        spec = fit_feature_spec(d, slice(*bounds[0]))
        data = build_examples(d, spec, bounds)
        cfg = TrainConfig(memory_size=16, max_epochs=100, patience=100, seed=0)
        params, _ = train(data, cfg)
        va = data.validation
        yhat, _ = forward_batch(va.E, va.FW, va.FC, params)
        pn_mape = mape(spec.denormalize_kw(va.y), spec.denormalize_kw(yhat))
        gbt = fit_gbt_examples(data, n_estimators=200, max_depth=3,
                               learning_rate=0.1)
        gb_mape = mape(spec.denormalize_kw(va.y),
                       spec.denormalize_kw(gbt.predict(flatten_features(va))))
        wall = time.monotonic() - t0
        ok = pn_mape < 5.0 and gb_mape < 8.0 and wall < 120
        report(3, ok, f"sinusoid val MAPE: powernet {pn_mape:.2f}% (<5%), "
                      f"gbt {gb_mape:.2f}% (<8%), wall {wall:.1f}s (limit 120s)")


class TestCriterion4:
    def test_model_ordering(self, trended_run):
        d, spec, data, bounds, params = trended_run
        te = data.test
        yhat, _ = forward_batch(te.E, te.FW, te.FC, params)
        pn = mse(spec.denormalize_kw(te.y), spec.denormalize_kw(yhat))
        gbt = fit_gbt_examples(data, n_estimators=200, max_depth=3,
                               learning_rate=0.1)
        gb = mse(spec.denormalize_kw(te.y),
                 spec.denormalize_kw(gbt.predict(flatten_features(te))))
        pe = mse(spec.denormalize_kw(te.y),
                 persistence_forecast(d.kw[:bounds[2][0]], len(te)))
        report(4, pn <= gb <= pe,
               f"test MSE powernet {pn:.5f} <= gbt {gb:.5f} <= persistence {pe:.5f}")


class TestCriterion5:
    def test_horizon_degradation(self, stationary_run):
        d, spec, _, _, params = stationary_run
        rec = forecast_recursive(params, spec, d, 720, 720)
        act = forecast_with_actuals(params, spec, d, 720, 720)
        c = rec.curves.cum_mape
        early = float(c[23])
        late = float(c[549:].min())
        ok = early < late and act.curves.cum_mape[-1] <= c[-1]
        report(5, ok, f"recursive cum MAPE {early:.2f}% @24h < {late:.2f}% "
                      f"@>=550h; actual-history {act.curves.cum_mape[-1]:.2f}% "
                      f"<= recursive {c[-1]:.2f}% at 720h")


class TestCriterion6:
    def test_theft_monotonicity_and_detection(self, stationary_run):
        t0 = time.monotonic()
        d, spec, _, _, params = stationary_run
        thetas = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
        sweep = [r["mape"] for r in theft_sweep(params, spec, d, 720, 336, thetas)]
        increasing = all(b > a for a, b in zip(sweep, sweep[1:]))
        ratio_ok = sweep[-1] > 5.0 * sweep[0]

        cfg = DetectorConfig(window=24, k=3.0)
        clean = forecast_with_actuals(params, spec, d, 744, 360)
        stats = residual_stats(clean.predictions, clean.actuals, cfg)
        test = forecast_with_actuals(params, spec, d, 1104, 336)
        windows = 336 - cfg.window + 1
        reported = apply_theft(test.actuals, TheftScenario(0.5, 0, 336))
        detection = len(detect_consumer(test.predictions, reported, cfg, stats)) / windows
        false_rate = len(detect_consumer(test.predictions, test.actuals,
                                         cfg, stats)) / windows
        wall = time.monotonic() - t0
        ok = (increasing and ratio_ok and detection >= 0.9
              and false_rate <= 0.05 and wall < 120)
        report(6, ok, f"sweep strictly increasing={increasing}, "
                      f"MAPE(0.9)/MAPE(0.1)={sweep[-1] / sweep[0]:.1f} (>5), "
                      f"detection {detection:.1%} (>=90%), false alarms "
                      f"{false_rate:.1%} (<=5%), wall {wall:.1f}s (limit 120s)")


class TestCriterion7:
    def test_byte_identical_outputs(self, tmp_path):
        import json
        from powernet.cli import main
        from powernet.dataio import dataset_to_json

        ds = tmp_path / "dataset.json"
        ds.write_text(dataset_to_json(make_aligned_dataset(days=10, seed=0)))
        fast = ["--splits", "96:48:48", "--window-len", "6",
                "--memory-size", "4", "--max-epochs", "3", "--patience", "3",
                "--seed", "5"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["train", "--dataset", str(ds),
                         "--out", str(out)] + fast) == 0
            assert main(["evaluate", "--checkpoint", str(out / "checkpoint.json"),
                         "--dataset", str(ds), "--split", "test",
                         "--out", str(out)]) == 0
            assert main(["forecast", "--checkpoint", str(out / "checkpoint.json"),
                         "--dataset", str(ds), "--mode", "recursive",
                         "--horizon", "24", "--out", str(out)]) == 0
            outs.append(out)
        files = ["checkpoint.json", "report.json", "curves.csv",
                 "evaluate_test.json", "forecast_recursive.json",
                 "forecast_recursive.csv"]
        same = {f: (outs[0] / f).read_bytes() == (outs[1] / f).read_bytes()
                for f in files}
        report(7, all(same.values()),
               f"repeated train/evaluate/forecast byte-identical: {same}")


class TestCriterion8:
    def test_gbt_properties(self):
        rng = np.random.default_rng(0)
        # staged training MSE is non-increasing
        X = rng.uniform(-2, 2, size=(150, 4))
        y = np.sin(X[:, 0]) + 0.3 * X[:, 1] ** 2 + rng.normal(0, 0.05, 150)
        model = fit_gbt(X, y, n_estimators=100, max_depth=3, learning_rate=0.1)
        curve = model.staged_train_mse(X, y)
        non_increasing = all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

        # splits match the exhaustive oracle on <=200-row fixtures
        splits_ok = True
        for trial in range(25):
            n = int(rng.integers(5, 201))
            k = int(rng.integers(1, 5))
            Xf = rng.normal(size=(n, k))
            yf = rng.normal(size=n)
            got = best_split(Xf, yf)
            want = _exhaustive_split(Xf, yf)
            if want is None:
                splits_ok &= got is None
            else:
                splits_ok &= (got is not None and got[0] == want[0]
                              and abs(got[1] - want[1]) < 1e-12
                              and abs(got[2] - want[2]) < 1e-8)
        report(8, non_increasing and splits_ok,
               f"staged MSE non-increasing over {len(curve) - 1} stages: "
               f"{non_increasing}; splits match exhaustive oracle on 25 "
               f"fixtures: {splits_ok}")


def _exhaustive_split(X, y):
    n, d = X.shape
    total = float(np.sum((y - y.mean()) ** 2))
    best = None
    for j in range(d):
        vals = np.unique(X[:, j])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) / 2.0
            left, right = y[X[:, j] <= thr], y[X[:, j] > thr]
            gain = total - float(np.sum((left - left.mean()) ** 2)
                                 + np.sum((right - right.mean()) ** 2))
            if best is None or gain > best[2]:
                best = (j, thr, gain)
    if best is None or best[2] <= 0:
        return None
    return best
