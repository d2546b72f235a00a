import json

import numpy as np
import pytest

from oracles import grad_check, sigmoid
from powernet.numcore import (
    Check, InputError, array, check, integer, items, one_of, real,
)


class TestElementwise:
    """ReLU as ``model._dense`` computes it, ``np.maximum(s, 0.0)``, and the
    sigmoid oracle that the gate tests compare against."""

    def test_relu_definition(self):
        assert np.array_equal(np.maximum([-1, 0, 2], 0.0), [0, 0, 2])

    def test_sigmoid_symmetry_point(self):
        assert sigmoid([0.0])[0] == 0.5

    def test_ranges(self):
        x = np.random.default_rng(2).normal(scale=3, size=100)
        s = sigmoid(x)
        r = np.maximum(x, 0.0)
        assert np.all((s > 0) & (s < 1))
        assert np.all(r >= 0)


class TestGradCheck:
    def test_quadratic_exact(self):
        err = grad_check(lambda p: p[0] ** 2, [3.0], [6.0], eps=1e-5)
        assert err < 1e-8

    def test_relu_linear_region(self):
        err = grad_check(lambda p: np.maximum(p, 0.0)[0], [0.5], [1.0], eps=1e-5)
        assert err < 1e-6

    def test_flags_wrong_gradient(self):
        err = grad_check(lambda p: p[0] ** 2, [3.0], [5.0], eps=1e-5)
        assert err > 1e-2

    def test_non_finite_evaluation(self):
        with pytest.raises(FloatingPointError), np.errstate(invalid="ignore"):
            grad_check(lambda p: float(np.log(p[0])), [0.0], [1.0], eps=1e-5)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            grad_check(lambda p: p[0], [1.0], [1.0], eps=0.0)

    def test_multivariate(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=5)
        p = rng.normal(size=5)

        def f(v):
            return float(np.tanh(w @ v))

        analytic = (1 - np.tanh(w @ p) ** 2) * w
        assert grad_check(f, p, analytic) < 1e-8


class TestCheck:
    """The one checker every reader of an outside document runs."""

    TABLE = {"n": integer(1), "x": real(0, 1), "pair": items(integer(), 2),
             "kw": array(real(0)), "v": one_of(1)}
    GOOD = {"n": 3, "x": 0.5, "pair": [1, 2], "kw": [0.5, 2], "v": 1}

    def test_passes_and_converts(self):
        out = check(self.GOOD, self.TABLE, "doc")
        assert out["pair"] == (1, 2)
        assert isinstance(out["kw"], np.ndarray) and out["kw"].tolist() == [0.5, 2]

    def test_numpy_ints_pass_and_bools_and_strings_fail(self):
        assert integer().ok(np.int64(3)) and real().ok(np.int32(3))
        for value in (True, "3", None):
            assert not integer().ok(value) and not real().ok(value)

    def test_an_array_is_not_one_number(self):
        from powernet.forecast_anomaly import DetectorConfig
        from powernet.training import TrainConfig
        for build, key, value in [(TrainConfig, "batch_size", [8, 16]),
                                  (TrainConfig, "learning_rate", [0.1, 0.2]),
                                  (DetectorConfig, "window", [3, 4]),
                                  (DetectorConfig, "k", [1.0, 2.0])]:
            with pytest.raises(InputError, match=f"{key}: expected .*, got array"):
                build(**{key: np.array(value)})
        assert not real().ok(np.array([])) and not integer().ok(np.array(3))

    def test_a_checked_number_is_a_python_number(self):
        from dataclasses import asdict
        from powernet.forecast_anomaly import DetectorConfig
        from powernet.training import TrainConfig
        out = check({**self.GOOD, "n": np.int64(3), "x": np.float32(0.5),
                     "pair": [np.int32(1), 2]}, self.TABLE, "doc")
        assert [type(out[k]) for k in ("n", "x")] == [int, float]
        assert out["pair"] == (1, 2) and type(out["pair"][0]) is int
        # a string is one value, not a list of its one-character strings
        texts = items(Check("string", lambda v: isinstance(v, str)))
        with pytest.raises(InputError, match="doc: expected list .* got 'ab'"):
            check("ab", texts, "doc")
        cfg = TrainConfig(batch_size=np.int64(8), learning_rate=np.float32(0.5),
                          memory_size_grid=(np.int64(4), 8))
        assert (type(cfg.batch_size), type(cfg.learning_rate)) == (int, float)
        assert type(cfg.memory_size_grid[0]) is int
        json.dumps(cfg.to_dict())
        det = DetectorConfig(window=np.int16(6), k=np.float64(2.5))
        assert (type(det.window), type(det.k)) == (int, float)
        json.dumps(asdict(det))

    @pytest.mark.parametrize("key, value, message", [
        ("n", 1.5, "doc: n: expected int >= 1, got 1.5"),
        ("n", True, "doc: n: expected int >= 1, got True"),
        ("x", float("nan"), "doc: x: expected real in [0, 1), got nan"),
        ("x", "0.5", "doc: x: expected real in [0, 1), got '0.5'"),
        ("pair", [1], "doc: pair: expected list of 2 (int), got [1]"),
        ("pair", [1, "2"], "doc: pair[1]: expected int, got '2'"),
        ("kw", [0.5, "0.4"], "doc: kw[1]: expected real >= 0, got '0.4'"),
        ("kw", [0.5, -1.0], "doc: kw[1]: expected real >= 0, got -1.0"),
        ("kw", 5, "doc: kw: expected list of any number of (real >= 0), got 5"),
        ("v", True, "doc: v: expected 1, got True"),
    ])
    def test_message_names_the_key_path_and_the_value(self, key, value, message):
        with pytest.raises(InputError) as info:
            check({**self.GOOD, key: value}, self.TABLE, "doc")
        assert info.value.args == (message,)

    def test_missing_key_and_non_object(self):
        with pytest.raises(InputError, match="doc: n: expected int >= 1, got nothing"):
            check({k: v for k, v in self.GOOD.items() if k != "n"}, self.TABLE, "doc")
        with pytest.raises(InputError, match=r"doc: expected object, got \[1\]"):
            check([1], self.TABLE, "doc")

    def test_long_value_is_cut_to_one_short_line(self):
        with pytest.raises(InputError) as info:
            check({**self.GOOD, "v": "x\n" * 100}, self.TABLE, "doc")
        got = str(info.value).split("got ")[1]
        assert "\n" not in str(info.value) and len(got) == 60 and got.endswith("...")


def test_every_field_and_written_key_has_one_check():
    # a new field, config key or document key must be checked where it is
    # read; each table has one entry per key
    from dataclasses import fields
    from powernet import cli, dataio, model
    from powernet.baselines import GbtModel, fit_tree
    from powernet.features import FeatureSpec
    from powernet.forecast_anomaly import DetectorConfig, TheftScenario
    from powernet.synth import make_aligned_dataset
    from powernet.training import TrainConfig
    for cls in (TrainConfig, FeatureSpec, DetectorConfig, TheftScenario):
        assert set(cls.CHECKS) - {"format_version"} == {f.name for f in fields(cls)}
    assert set(cli.CONFIG_CHECKS) == set(TrainConfig.CHECKS) | set(cli.EXAMPLE_DEFAULTS)
    assert not set(TrainConfig.CHECKS) & set(cli.EXAMPLE_DEFAULTS)
    spec = FeatureSpec(window_len=1, weather_mean=np.zeros(11), weather_std=np.ones(11))
    assert set(FeatureSpec.CHECKS) == set(spec.to_dict())
    assert set(GbtModel.CHECKS) == set(GbtModel(0.0).to_dict()) - {"model_type"}
    # every node of a fitted tree holds exactly one node table's keys
    X = np.random.default_rng(0).normal(size=(40, 3))
    stack, leaves = [fit_tree(X, X[:, 0] + X[:, 1] ** 2, 3)], []
    while stack:
        node = stack.pop()
        leaves.append("value" in node)
        table = GbtModel.LEAF_CHECKS if leaves[-1] else GbtModel.SPLIT_CHECKS
        assert set(node) == set(table)
        stack += [node[k] for k in ("left", "right") if k in node]
    assert set(leaves) == {True, False}
    text = model.checkpoint_to_json(model.init_params(2, 2, 2, 2), {}, {}, 0)
    assert set(model.CHECKPOINT_CHECKS) == set(json.loads(text))
    text = dataio.dataset_to_json(make_aligned_dataset(days=1, seed=0))
    assert set(dataio.DATASET_CHECKS) == set(json.loads(text))
