import dataclasses
import json
import tracemalloc

import numpy as np
import pytest

from oracles import make_sinusoid_dataset
from powernet import cli
from powernet.dataio import json_text
from powernet.features import build_examples, fit_feature_spec, tail_splits
from powernet.model import checkpoint_to_json, init_params
from powernet.numcore import InputError
from powernet.synth import make_aligned_dataset
from powernet.training import (
    ADAM_BETA1, ADAM_BETA2, ADAM_EPS, AdamState, TrainConfig, TrainingError,
    TrainReport, adam_step, grid_search, loss, train,
)


def small_data(days=8, seed=0, window=6):
    d = make_aligned_dataset(days=days, seed=seed)
    n = len(d)
    bounds = ((0, n - 48), (n - 48, n - 24), (n - 24, n))
    spec = fit_feature_spec(d, slice(*bounds[0]), window_len=window)
    return build_examples(d, spec, bounds)


def functional_adam_step(p, grads, state, lr):
    """The Adam update computed with fresh arrays, the oracle for the
    in-place ``adam_step``."""
    g = grads.vec
    state.t += 1
    state.m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * g
    state.v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * g * g
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.t)
    return p.from_vector(p.vec - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS))


def without_validation(data):
    """``data`` with an empty validation split."""
    v = data.validation
    return dataclasses.replace(data, validation=dataclasses.replace(
        v, E=v.E[:0], FW=v.FW[:0], FC=v.FC[:0], y=v.y[:0], t=v.t[:0]))


def small_cfg(**kwargs):
    base = dict(memory_size=4, d1=5, d2=4, d3=5, max_epochs=3, patience=2,
                batch_size=16, dropout_rate=0.0, seed=0)
    base.update(kwargs)
    return TrainConfig(**base)


class TestConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(InputError):
            TrainConfig(patience=0)
        with pytest.raises(InputError):
            TrainConfig(memory_size_grid=())

    @pytest.mark.parametrize("field, value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("l2_lambda", -1.0), ("l2_lambda", float("nan")),
        ("memory_size", 0), ("memory_size_grid", (4, 0)),
        ("d1", 0), ("d2", 0), ("d3", 0), ("stack", 0),
    ])
    def test_rejects_out_of_range_setting(self, field, value):
        with pytest.raises(InputError, match=field):
            TrainConfig(**{field: value})

    def test_to_dict_round_trips_through_kwargs(self):
        cfg = TrainConfig(memory_size=7, seed=3)
        d = cfg.to_dict()
        d["memory_size_grid"] = tuple(d["memory_size_grid"])
        assert TrainConfig(**d) == cfg


class TestAdam:
    def test_single_step_hand_computed(self):
        p = init_params(2, 3, 2, 3, seed=0)
        g = p.from_vector(np.ones(p.to_vector().size) * 0.5)
        state = AdamState.for_params(p)
        before = p.to_vector().copy()
        after = adam_step(p, g, state, lr=0.01).to_vector()
        # first step: m_hat = g, v_hat = g^2, update = lr*g/(|g|+eps)
        expected = before - 0.01 * 0.5 / (0.5 + ADAM_EPS)
        assert np.allclose(after, expected, atol=1e-12)
        assert state.t == 1

    def test_matches_reference_sequence(self):
        # independent scalar reference implementation over several steps
        p = init_params(1, 2, 2, 2, seed=1)
        theta_ref = p.to_vector().copy()
        m = np.zeros_like(theta_ref)
        v = np.zeros_like(theta_ref)
        state = AdamState.for_params(p)
        rng = np.random.default_rng(2)
        lr = 0.05
        for t in range(1, 6):
            gvec = rng.normal(size=theta_ref.size)
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * gvec
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * gvec ** 2
            theta_ref = theta_ref - lr * (m / (1 - ADAM_BETA1 ** t)) / (
                np.sqrt(v / (1 - ADAM_BETA2 ** t)) + ADAM_EPS)
            p = adam_step(p, p.from_vector(gvec), state, lr)
        assert np.allclose(p.to_vector(), theta_ref, atol=1e-12)

    def test_in_place_steps_equal_the_functional_oracle(self):
        p = init_params(5, 4, 3, 6, seed=8)
        q = p.from_vector(p.vec.copy())
        state, oracle = AdamState.for_params(p), AdamState.for_params(q)
        rng = np.random.default_rng(8)
        for _ in range(50):
            grads = p.from_vector(rng.normal(size=p.vec.size)
                                  * 10.0 ** rng.uniform(-8, 2))
            p = adam_step(p, grads, state, 0.01)
            q = functional_adam_step(q, grads, oracle, 0.01)
            assert np.array_equal(p.vec, q.vec)
        assert np.array_equal(state.m, oracle.m)
        assert np.array_equal(state.v, oracle.v)
        assert state.t == oracle.t == 50

    def test_step_updates_p_in_place_and_returns_it(self):
        p = init_params(3, 4, 3, 4, seed=9)
        vec, w1 = p.vec, p.w1
        oracle = p.from_vector(vec.copy())
        state, oracle_state = AdamState.for_params(p), AdamState.for_params(p)
        scratch = state.scratch
        g = p.from_vector(np.full(p.vec.size, 0.5))
        for _ in range(2):
            assert adam_step(p, g, state, 0.01) is p
            oracle = functional_adam_step(oracle, g, oracle_state, 0.01)
            assert p.vec is vec and p.w1 is w1 and state.scratch is scratch
            assert np.array_equal(vec, oracle.vec)
        assert np.array_equal(w1, oracle.w1)

    def test_descends_on_quadratic_slice(self):
        # repeated steps on a fixed batch must reduce the loss
        data = small_data()
        tr = data.train
        p = init_params(4, 5, 4, 5, seed=3)
        state = AdamState.for_params(p)
        v0, _ = loss(tr.E[:32], tr.FW[:32], tr.FC[:32], tr.y[:32], p)
        for _ in range(60):
            value, grads = loss(tr.E[:32], tr.FW[:32], tr.FC[:32], tr.y[:32], p)
            p = adam_step(p, grads, state, 0.01)
        v1, _ = loss(tr.E[:32], tr.FW[:32], tr.FC[:32], tr.y[:32], p)
        assert v1 < 0.5 * v0


class TestLoss:
    def test_l2_term_value(self):
        data = small_data()
        tr = data.train
        p = init_params(3, 4, 3, 4, seed=4)
        v0, _ = loss(tr.E[:8], tr.FW[:8], tr.FC[:8], tr.y[:8], p)
        lam = 0.01
        v1, _ = loss(tr.E[:8], tr.FW[:8], tr.FC[:8], tr.y[:8], p, l2_lambda=lam)
        penalty = lam * sum(float(np.sum(w ** 2)) for w in (p.w1, p.w2, p.w3, p.w4))
        assert v1 - v0 == pytest.approx(penalty, rel=1e-12)

    def test_l2_excludes_lstm_and_biases(self):
        data = small_data()
        tr = data.train
        p = init_params(3, 4, 3, 4, seed=5)
        _, g = loss(tr.E[:8], tr.FW[:8], tr.FC[:8], tr.y[:8], p, l2_lambda=0.5)
        _, g0 = loss(tr.E[:8], tr.FW[:8], tr.FC[:8], tr.y[:8], p)
        for a, b in zip(g.lstm, g0.lstm):
            assert np.array_equal(a.w_x, b.w_x)
            assert np.array_equal(a.b, b.b)
        assert np.array_equal(g.b4, g0.b4)
        assert not np.array_equal(g.w1, g0.w1)

    def test_empty_batch_rejected(self):
        data = small_data()
        tr = data.train
        p = init_params(3, 4, 3, 4, seed=6)
        with pytest.raises(InputError, match="empty batch"):
            loss(tr.E[:0], tr.FW[:0], tr.FC[:0], tr.y[:0], p)


class TestTrain:
    def test_reduces_validation_mse(self):
        data = small_data(days=10)
        cfg = small_cfg(max_epochs=30, patience=30, learning_rate=3e-3)
        _, report = train(data, cfg)
        assert report.best_val_mse < report.val_mse[0]

    def test_returns_best_epoch_params(self):
        data = small_data(days=10)
        cfg = small_cfg(max_epochs=15, patience=15)
        params, report = train(data, cfg)
        from powernet.training import _validation_mse
        assert _validation_mse(data.validation, params, data.spec) == pytest.approx(
            report.best_val_mse, rel=1e-12)

    def test_early_stopping_bounds_epochs(self):
        # a large step size makes validation MSE oscillate, so patience runs out
        data = small_data(days=10)
        cfg = small_cfg(max_epochs=200, patience=3, learning_rate=0.05)
        _, report = train(data, cfg)
        assert report.stopped_early
        assert len(report.val_mse) < 200
        assert len(report.val_mse) == report.best_epoch + 1 + cfg.patience
        # the best epoch is the first to reach the minimum: a tie is no new best
        assert report.best_epoch == report.val_mse.index(min(report.val_mse))

    def test_deterministic_given_seed(self):
        data = small_data(days=8)
        cfg = small_cfg(max_epochs=4, dropout_rate=0.2, seed=11)
        p1, r1 = train(data, cfg)
        p2, r2 = train(data, cfg)
        assert np.array_equal(p1.to_vector(), p2.to_vector())
        assert r1.to_dict() == r2.to_dict()

    def test_repeated_runs_give_byte_identical_checkpoints(self):
        # the second run records into new trace buffers laid out as the
        # first run's were; the training split does not fill its last
        # batch of 32, so every epoch ends in a short batch
        data = small_data(days=10)
        cfg = small_cfg(max_epochs=3, batch_size=32, dropout_rate=0.2, seed=4)
        texts = [checkpoint_to_json(train(data, cfg)[0], {}, {}, seed=4)
                 for _ in range(2)]
        assert len(data.train) % 32 != 0
        assert texts[0] == texts[1]

    def test_keeps_no_trace_buffers_after_returning(self):
        # one epoch's trace at window 48 is far larger than the result
        data = small_data(days=10, window=48)
        cfg = small_cfg(memory_size=16, max_epochs=1, patience=1, batch_size=32)
        train(data, cfg)   # warm caches outside the measurement
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            params, report = train(data, cfg)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        trace_bytes = (cfg.stack * 49 * 32 * 8 * (7 * 16 + 1))  # op, gate, tanh(c)
        assert peak - before > trace_bytes
        assert current - before < 4 * params.vec.nbytes + 100_000

    def test_seed_changes_outcome(self):
        data = small_data(days=8)
        p1, _ = train(data, small_cfg(seed=0))
        p2, _ = train(data, small_cfg(seed=1))
        assert not np.array_equal(p1.to_vector(), p2.to_vector())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        data = small_data(days=8)
        cfg = small_cfg(learning_rate=1e150, max_epochs=50, patience=50)
        with pytest.raises(TrainingError, match="diverged"):
            train(data, cfg)

    def test_empty_split_rejected(self):
        with pytest.raises(InputError, match="validation"):
            train(without_validation(small_data(days=8)), small_cfg())

    @pytest.mark.parametrize("split, where, bad", [
        ("train", "E", np.nan), ("train", "y", np.nan), ("train", "FC", -np.inf),
        ("validation", "FW", np.inf), ("validation", "y", np.inf)])
    def test_non_finite_example_is_an_input_error(self, split, where, bad):
        # an input fault, named by its split, and not a divergence
        data = small_data(days=8)
        getattr(getattr(data, split), where).flat[3] = bad
        with pytest.raises(InputError, match=f"^the {split} split holds a non-finite"):
            train(data, small_cfg())

    def test_learns_sinusoid_quickly(self):
        d = make_sinusoid_dataset(days=10, seed=0)
        n = len(d)
        bounds = ((0, n - 48), (n - 48, n - 24), (n - 24, n))
        spec = fit_feature_spec(d, slice(*bounds[0]), window_len=24)
        data = build_examples(d, spec, bounds)
        cfg = small_cfg(memory_size=8, max_epochs=40, patience=40,
                        learning_rate=3e-3)
        _, report = train(data, cfg)
        assert report.best_val_mse < 0.01   # kW^2, amplitude-1 signal


class TestGridSearch:
    def test_picks_best_cell_with_per_cell_seeds(self):
        data = small_data(days=9)
        cfg = small_cfg(memory_size_grid=(3, 5), max_epochs=5, patience=5)
        params, best_rep, reports = grid_search(data, cfg)
        assert set(reports) == {3, 5}
        assert best_rep.best_val_mse == min(r.best_val_mse for r in reports.values())
        # cell runs use seed cfg.seed + index; reproduce the winning cell
        k = list(cfg.memory_size_grid).index(best_rep.memory_size)
        cell_cfg = dataclasses.replace(cfg, memory_size=best_rep.memory_size,
                                       seed=cfg.seed + k)
        again, rep2 = train(data, cell_cfg)
        assert np.array_equal(again.to_vector(), params.to_vector())
        assert rep2.best_val_mse == best_rep.best_val_mse

    def test_repeated_size_is_trained_once(self, monkeypatch):
        # a repeat would overwrite the first run's entry in the reports,
        # which then disagree with the returned best
        from powernet import training
        seeds = []

        def counting_train(data, cfg):
            seeds.append((cfg.memory_size, cfg.seed))
            return train(data, cfg)

        monkeypatch.setattr(training, "train", counting_train)
        data = small_data(days=9)
        cfg = small_cfg(memory_size_grid=(4, 8, 4), max_epochs=2, patience=2)
        _, best_rep, reports = grid_search(data, cfg)
        assert seeds == [(4, 0), (8, 1)]
        assert set(reports) == {4, 8}
        assert reports[best_rep.memory_size] is best_rep

    def test_tie_prefers_earlier_memory_size(self, monkeypatch):
        # every cell reports the same validation MSE: the earlier size in
        # the grid wins, even when it is the larger one
        from powernet import training

        def tied_train(data, cfg):
            rep = TrainReport(val_mse=[0.5], best_epoch=0, memory_size=cfg.memory_size)
            return init_params(cfg.memory_size, cfg.d1, cfg.d2, cfg.d3), rep

        monkeypatch.setattr(training, "train", tied_train)
        cfg = small_cfg(memory_size_grid=(8, 4))
        params, best_rep, reports = grid_search(small_data(days=9), cfg)
        assert set(reports) == {8, 4}
        assert best_rep.memory_size == 8 and params.m == 8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_cell_skipped(self):
        data = small_data(days=9)
        cfg = small_cfg(memory_size_grid=(3, 4), max_epochs=3, patience=3,
                        learning_rate=1e150)
        with pytest.raises(TrainingError, match="every grid cell"):
            grid_search(data, cfg)

    def test_empty_validation_split_is_not_divergence(self):
        # an input fault stops the search instead of counting as a cell
        # that diverged
        cfg = small_cfg(memory_size_grid=(3, 4), max_epochs=2, patience=2)
        with pytest.raises(InputError, match="validation"):
            grid_search(without_validation(small_data(days=9)), cfg)


class TestTrainReport:
    """report.json is ``to_dict`` as ``dataio.json_text`` writes it."""

    def test_json_excludes_wall_clock(self):
        rep = TrainReport(train_loss=[1.0], val_mse=[2.0], best_epoch=0,
                          memory_size=4, wall_seconds=123.0)
        text = json_text(rep.to_dict())
        assert "wall" not in text
        assert "123" not in text

    def test_json_is_the_dict(self):
        rep = TrainReport(train_loss=[1.0, 0.25], val_mse=[2.0, 0.1 + 0.2],
                          best_epoch=1, memory_size=4, wall_seconds=1.0)
        assert json.loads(json_text(rep.to_dict())) == rep.to_dict()
        assert "wall_seconds" not in rep.to_dict()

    def test_curves_csv(self):
        text = cli._csv(["epoch", "train_loss", "val_mse"], [(0, 1.0, 2.0), (1, 0.5, 1.5)])
        lines = text.strip().splitlines()
        assert lines[0] == "epoch,train_loss,val_mse"
        assert lines[2].split(",") == ["1", "0.5", "1.5"]
