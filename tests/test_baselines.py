import json
import time

import numpy as np
import pytest

from powernet import baselines
from powernet.baselines import (
    GbtModel, TreeNode, _presort, _shortlist, best_split,
    fit_gbt, fit_gbt_examples, fit_tree, flatten_features, gbt_grid_search,
    persistence_forecast, tree_predict,
)
from powernet.features import build_examples, fit_feature_spec, tail_splits
from powernet.metrics import mse
from powernet.numcore import InputError
from powernet.synth import make_aligned_dataset


def exhaustive_best_split(X, y):
    """O(n^2 d) oracle: evaluate every midpoint candidate directly."""
    n, d = X.shape
    total = float(np.sum((y - y.mean()) ** 2))
    best = None
    for j in range(d):
        vals = np.unique(X[:, j])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) / 2.0
            left = y[X[:, j] <= thr]
            right = y[X[:, j] > thr]
            sse = (np.sum((left - left.mean()) ** 2)
                   + np.sum((right - right.mean()) ** 2))
            gain = total - float(sse)
            if best is None or gain > best[2] + 1e-12:
                best = (j, thr, gain)
    if best is None or best[2] <= 0:
        return None
    return best


def all_splits(X, y):
    """Every candidate (feature, threshold, gain), for tie inspection."""
    n, d = X.shape
    total = float(np.sum((y - y.mean()) ** 2))
    out = []
    for j in range(d):
        vals = np.unique(X[:, j])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = (a + b) / 2.0
            left = y[X[:, j] <= thr]
            right = y[X[:, j] > thr]
            sse = (np.sum((left - left.mean()) ** 2)
                   + np.sum((right - right.mean()) ** 2))
            out.append((j, thr, total - float(sse)))
    return out


def reference_gains(X: np.ndarray, y: np.ndarray):
    """(feature, position, threshold, gain) of every boundary, in (feature,
    position) order, by the per-boundary scalar formula; needs n >= 2."""
    n, n_features = X.shape
    total_sse = float(np.sum((y - y.mean()) ** 2))
    for j in range(n_features):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys ** 2)
        total_sum, total_sq = csum[-1], csq[-1]
        # split after position i (left = 0..i) only where the value changes
        boundary = np.nonzero(xs[:-1] < xs[1:])[0]
        for i in boundary:
            nl = i + 1
            nr = n - nl
            sse_l = csq[i] - csum[i] ** 2 / nl
            sse_r = (total_sq - csq[i]) - (total_sum - csum[i]) ** 2 / nr
            yield j, int(i), (xs[i] + xs[i + 1]) / 2.0, total_sse - (sse_l + sse_r)


def reference_best_split(X: np.ndarray, y: np.ndarray):
    """The per-boundary scalar loop, the exact oracle for the split engine:
    its choice, threshold and gain, bit for bit."""
    if len(y) < 2:
        return None
    best = None
    for j, _, threshold, gain in reference_gains(X, y):
        if best is None or gain > best[2]:
            best = (j, threshold, float(gain))
    if best is None or best[2] <= 0.0:
        return None
    return best


def reference_fit_tree(X, y, max_depth: int) -> TreeNode:
    """Greedy CART on reference_best_split, re-sorting every node."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)

    def grow(rows, depth):
        node_y = y[rows]
        if depth >= max_depth or len(rows) < 2:
            return TreeNode(value=float(node_y.mean()))
        split = reference_best_split(X[rows], node_y)
        if split is None:
            return TreeNode(value=float(node_y.mean()))
        j, thr, _ = split
        go_left = X[rows, j] <= thr
        return TreeNode(feature=j, threshold=thr,
                        left=grow(rows[go_left], depth + 1),
                        right=grow(rows[~go_left], depth + 1))

    return grow(np.arange(len(y)), 0)


def reference_fit_gbt(X, y, n_estimators, max_depth, learning_rate) -> GbtModel:
    """Boosting on reference_fit_tree, training predictions by tree_predict."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    model = GbtModel(initial_prediction=float(y.mean()),
                     learning_rate=learning_rate, max_depth=max_depth)
    pred = np.full(len(y), model.initial_prediction)
    for _ in range(n_estimators):
        tree = reference_fit_tree(X, y - pred, max_depth)
        pred += learning_rate * tree_predict(tree, X)
        model.trees.append(tree)
    return model


def vector_argmax_feature(X, y):
    """Feature of the first largest gain when every boundary's gain is
    computed in one array expression (array ** 2 is x*x, not libm pow)."""
    n = len(y)
    order = np.argsort(X, axis=0, kind="stable").T
    xs = np.take_along_axis(X.T, order, axis=1)
    csum = np.cumsum(y[order], axis=1)
    csq = np.cumsum(y[order] ** 2, axis=1)
    cl, ql = csum[:, :-1], csq[:, :-1]
    nl = np.arange(1, n, dtype=np.float64)
    gain = float(np.sum((y - y.mean()) ** 2)) - (
        (ql - cl ** 2 / nl)
        + ((csq[:, -1:] - ql) - (csum[:, -1:] - cl) ** 2 / (n - nl)))
    gain[~(xs[:, :-1] < xs[:, 1:])] = -np.inf
    return int(np.argmax(gain)) // (n - 1)


# two rows, feature 1 sorted the other way round from features 0 and 2:
# every split separates the same two rows, so all gains tie exactly and
# only rounding tells them apart
TWO_ROWS = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0]])


def two_row_target(rng, accept):
    """First seeded 2-row target y for which ``accept(y)`` holds."""
    for _ in range(200_000):
        y = rng.normal(size=2)
        if accept(y):
            return y
    raise AssertionError("seeded search found no fixture")


def pow_flip_target():
    """A 2-row target on TWO_ROWS where scalar pow and array x*x pick
    different features."""
    def flips(y):
        want = reference_best_split(TWO_ROWS, y)
        return want is not None and vector_argmax_feature(TWO_ROWS, y) != want[0]
    return two_row_target(np.random.default_rng(0), flips)


def oracle_fixtures():
    """Seeded (X, y) fixtures for the exact-equality tests."""
    rng = np.random.default_rng(11)
    out = []
    for n in (2, 3, 5, 17, 60):
        out.append((rng.normal(size=(n, 3)), rng.normal(size=n)))
        # integer-valued features: many equal values, few boundaries
        out.append((rng.integers(0, 4, size=(n, 4)).astype(float),
                    rng.normal(size=n)))
        # duplicated columns tie exactly
        X = rng.normal(size=(n, 2)).round(1)
        out.append((np.column_stack([X, X[:, ::-1], X[:, :1]]),
                    rng.normal(size=n).round(2)))
        # constant target: every gain is 0 up to rounding
        out.append((rng.normal(size=(n, 3)), np.full(n, 0.7)))
    out.append((np.zeros((4, 0)), rng.normal(size=4)))   # no features
    out.append((TWO_ROWS, pow_flip_target()))
    for n in (4, 9, 24, 70):
        # a column and its monotone transforms make the same partitions
        # from different values; duplicated small-integer columns and
        # targets with repeated values tie exactly
        c = rng.normal(size=n).round(1)
        small = rng.integers(0, 4, size=n).astype(float)
        X = np.column_stack([c, 3 * c + 1, np.exp(c), -c, small, small,
                             rng.integers(0, 24, size=n).astype(float)])
        out.append((X, rng.normal(size=n).round(1)))
        out.append((X, rng.integers(-2, 3, size=n) * 0.5))
    return out + constant_target_fixtures()


def constant_target_fixtures():
    """Seeded (X, y) with constant and piecewise-constant targets. The
    first column has few boundaries, so a position of the best gain can
    be missing from it and the winner sits in a later feature."""
    rng = np.random.default_rng(17)
    out = []
    for n in (2, 5, 33, 120):
        X = np.column_stack([rng.integers(0, 3, size=n).astype(float),
                             rng.normal(size=(n, 3)), rng.normal(size=n).round(1)])
        # sums of a constant need not give a zero SSE or zero gains
        for value in (0.7, 0.1, 1 / 3, -2.9, 123.456):
            out.append((X, np.full(n, value)))
        # steps along a feature: the nodes below them are constant
        out.append((X, np.where(X[:, 1] > 0, 2.5, 0.1)))
        out.append((X, (0.7 * X[:, 0]).round(1)))
        out.append((X, np.where(X[:, 4] > 0, 0.0, -0.0)))   # signed zeros
    return out


class TestPersistence:
    def test_repeats_last_period(self):
        history = np.arange(48.0)
        out = persistence_forecast(history, 24)
        assert np.array_equal(out, np.arange(24.0, 48.0))

    def test_recycles_beyond_one_period(self):
        history = np.arange(24.0)
        out = persistence_forecast(history, 50)
        assert np.array_equal(out[:24], out[24:48])
        assert out[48] == history[0] and out[49] == history[1]

    def test_short_history_rejected(self):
        with pytest.raises(InputError):
            persistence_forecast(np.ones(10), 5)

    def test_custom_period(self):
        out = persistence_forecast(np.array([1.0, 2.0, 3.0]), 4, period=2)
        assert np.array_equal(out, [2, 3, 2, 3])

    @pytest.mark.parametrize("horizon", [0, 1, 24, 3 * 24 + 5])
    def test_matches_loop_oracle(self, horizon):
        history = np.random.default_rng(0).normal(size=60)
        last = list(history[-24:])
        expected = np.asarray([last[h % 24] for h in range(horizon)])
        out = persistence_forecast(history, horizon)
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)


class TestBestSplit:
    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, 6))
            X = rng.normal(size=(n, d)).round(1)   # force duplicates
            y = rng.normal(size=n)
            got = best_split(X, y)
            want = exhaustive_best_split(X, y)
            if want is None:
                assert got is None
            else:
                # best gain always agrees; the (feature, threshold) choice
                # must agree whenever the gain is not mathematically tied
                # (ulp-level prefix-sum noise can break exact ties either way)
                assert got[2] == pytest.approx(want[2], abs=1e-9)
                tied = any(abs(g - want[2]) < 1e-9 and j != want[0]
                           for j, _, g in all_splits(X, y))
                if not tied:
                    assert got[0] == want[0]
                    assert got[1] == pytest.approx(want[1], abs=1e-12)

    def test_obvious_step(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        j, thr, gain = best_split(X, y)
        assert j == 0 and thr == 5.5
        assert gain == pytest.approx(np.sum((y - y.mean()) ** 2), abs=1e-12)

    def test_constant_target_no_split(self):
        X = np.arange(8.0).reshape(-1, 1)
        assert best_split(X, np.ones(8)) is None

    def test_constant_feature_no_split(self):
        X = np.ones((8, 1))
        assert best_split(X, np.arange(8.0)) is None

    def test_equals_scalar_reference(self):
        for X, y in oracle_fixtures():
            assert best_split(X, y) == reference_best_split(X, y)

    def test_shortlist_holds_every_scalar_maximum(self):
        # each fixture's root and seeded row subsets, as inner nodes see them
        rng = np.random.default_rng(5)
        for X, y in oracle_fixtures():
            for subset in range(10):
                rows = (np.arange(len(y)) if subset == 0
                        else np.flatnonzero(rng.random(len(y)) < 0.6))
                Xs, ys = X[rows], y[rows]
                n = len(ys)
                gains = list(reference_gains(Xs, ys)) if n >= 2 else []
                if not gains:
                    continue
                top = max(g for _, _, _, g in gains)
                want = {j * (n - 1) + i for j, i, _, g in gains if g == top}
                order = _presort(Xs)
                xs = np.take_along_axis(Xs.T, order, axis=1)
                csum = np.cumsum(ys[order], axis=1)
                scale = float(ys @ ys) + float(np.sum((ys - ys.mean()) ** 2))
                assert want <= set(_shortlist(csum, xs, scale).tolist())

    def test_shortlist_holds_every_scalar_maximum_at_bench_size(self):
        # 624 x 21 nodes as the gbt benchmark's roots see them, and seeded
        # row subsets down to n = 2. A large common offset makes the
        # centred score cancel; heavy tails spread the per-feature totals
        # S_j most for a given M. Features on a 0.01 grid tie at about
        # half the boundaries of the full node; the last seven negate the
        # first seven, so their best splits tie in exact arithmetic while
        # their prefix sums run in another order and round apart.
        rng = np.random.default_rng(29)
        X = rng.normal(size=(624, 14)).round(2)
        X = np.column_stack([X, -X[:, :7]])
        ties = np.mean([1 - (len(np.unique(col)) - 1) / 623 for col in X.T])
        assert 0.4 < ties < 0.6
        targets = [1e3 + rng.normal(size=624), rng.standard_t(1.5, size=624),
                   1e3 + rng.standard_t(1.5, size=624)]
        for y in targets:
            for n in (624, 312, 156, 78, 39, 20, 10, 5, 3, 2):
                rows = np.sort(rng.choice(624, size=n, replace=False))
                Xs, ys = X[rows], y[rows]
                gains = list(reference_gains(Xs, ys))
                if not gains:
                    continue
                top = max(g for _, _, _, g in gains)
                want = {j * (n - 1) + i for j, i, _, g in gains if g == top}
                order = _presort(Xs)
                xs = np.take_along_axis(Xs.T, order, axis=1)
                csum = np.cumsum(ys[order], axis=1)
                scale = float(ys @ ys) + float(np.sum((ys - ys.mean()) ** 2))
                assert want <= set(_shortlist(csum, xs, scale).tolist()), (n, y[:2])

    def test_constant_target_can_split(self):
        # a constant target's gains can round above zero: the node is
        # searched, not skipped, and splits as the scalar formula says
        splits = [best_split(X, y) for X, y in constant_target_fixtures()
                  if np.all(y == y[0])]
        assert any(s is not None and s[2] > 0.0 for s in splits)

    def test_constant_target_costs_about_a_normal_one(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(624, 21))
        targets = {"constant": np.full(624, 0.7), "normal": rng.normal(size=624)}
        best = dict.fromkeys(targets, np.inf)
        for _ in range(7):
            for name, y in targets.items():
                t0 = time.perf_counter()
                best_split(X, y)
                best[name] = min(best[name], time.perf_counter() - t0)
        assert best["constant"] < 3 * best["normal"], best

    def test_pow_rounding_fixture(self):
        # picking the vector argmax would change this split; the engine
        # keeps the scalar formula's choice
        y = pow_flip_target()
        want = reference_best_split(TWO_ROWS, y)
        assert vector_argmax_feature(TWO_ROWS, y) != want[0]
        assert best_split(TWO_ROWS, y) == want

    def test_exact_tie_can_resolve_to_higher_feature(self):
        # all three splits tie in exact arithmetic; rounding decides
        def higher(y):
            got = best_split(TWO_ROWS, y)
            return got is not None and got[0] > 0
        y = two_row_target(np.random.default_rng(1), higher)
        assert best_split(TWO_ROWS, y) == reference_best_split(TWO_ROWS, y)

    def test_tie_prefers_lowest_feature(self):
        # identical columns: gain ties exactly, feature 0 must win
        col = np.array([0.0, 0.0, 1.0, 1.0])
        X = np.column_stack([col, col])
        y = np.array([0.0, 0.0, 3.0, 3.0])
        j, thr, _ = best_split(X, y)
        assert j == 0 and thr == 0.5


class TestFitTree:
    def test_equals_scalar_reference(self):
        for X, y in oracle_fixtures():
            for depth in range(1, 7):
                assert (fit_tree(X, y, depth).to_dict()
                        == reference_fit_tree(X, y, depth).to_dict())

    def test_depth_zero_is_mean_leaf(self):
        X = np.arange(6.0).reshape(-1, 1)
        y = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        t = fit_tree(X, y, max_depth=0)
        assert t.is_leaf and t.value == pytest.approx(3.5)

    def test_depth_one_perfect_on_step(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0.0, 0.0, 5.0, 5.0])
        t = fit_tree(X, y, max_depth=1)
        assert np.allclose(tree_predict(t, X), y, atol=1e-12)

    def test_deep_tree_memorizes_unique_rows(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(16, 2))
        y = rng.normal(size=16)
        t = fit_tree(X, y, max_depth=10)
        assert np.allclose(tree_predict(t, X), y, atol=1e-12)

    def test_predictions_within_target_range(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 3))
        y = rng.normal(size=50)
        t = fit_tree(X, y, max_depth=3)
        pred = tree_predict(t, rng.normal(size=(100, 3)) * 5)
        assert pred.min() >= y.min() - 1e-12
        assert pred.max() <= y.max() + 1e-12


class TestGbt:
    def small_problem(self, seed=0, n=80):
        rng = np.random.default_rng(seed)
        X = rng.uniform(-2, 2, size=(n, 3))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + rng.normal(0, 0.05, n)
        return X, y

    def test_equals_scalar_reference(self):
        # training predictions come from the leaves, not tree_predict
        for X, y in oracle_fixtures():
            for depth in range(1, 7):
                got = fit_gbt(X, y, n_estimators=4, max_depth=depth,
                              learning_rate=0.5)
                want = reference_fit_gbt(X, y, n_estimators=4,
                                         max_depth=depth, learning_rate=0.5)
                assert got.to_json() == want.to_json()

    def test_staged_train_mse_non_increasing(self):
        X, y = self.small_problem()
        model = fit_gbt(X, y, n_estimators=40, max_depth=2, learning_rate=0.2)
        curve = model.staged_train_mse(X, y)
        assert len(curve) == 41
        assert all(b <= a + 1e-12 for a, b in zip(curve, curve[1:]))

    def test_stage_zero_is_mean_mse(self):
        X, y = self.small_problem(seed=1)
        model = fit_gbt(X, y, n_estimators=5)
        assert model.staged_train_mse(X, y)[0] == pytest.approx(np.var(y), abs=1e-12)

    def test_beats_mean_baseline(self):
        X, y = self.small_problem(seed=2)
        model = fit_gbt(X, y, n_estimators=50, max_depth=3, learning_rate=0.1)
        assert mse(y, model.predict(X)) < 0.2 * np.var(y)

    def test_manual_two_stage_equivalence(self):
        # boosting is exactly stage-wise residual fitting
        X, y = self.small_problem(seed=3, n=40)
        lr, depth = 0.3, 2
        model = fit_gbt(X, y, n_estimators=2, max_depth=depth, learning_rate=lr)
        pred = np.full(len(y), y.mean())
        t1 = fit_tree(X, y - pred, depth)
        pred = pred + lr * tree_predict(t1, X)
        t2 = fit_tree(X, y - pred, depth)
        pred = pred + lr * tree_predict(t2, X)
        assert np.allclose(model.predict(X), pred, atol=1e-12)

    def test_json_round_trip(self):
        X, y = self.small_problem(seed=4, n=30)
        model = fit_gbt(X, y, n_estimators=10, max_depth=3, learning_rate=0.05)
        back = GbtModel.from_dict(json.loads(model.to_json()))
        assert np.allclose(back.predict(X), model.predict(X), atol=0)
        assert back.to_json() == model.to_json()

    def test_version_guard(self):
        X, y = self.small_problem(seed=5, n=20)
        doc = fit_gbt(X, y, n_estimators=2).to_json().replace(
            '"format_version": 1', '"format_version": 99')
        with pytest.raises(InputError, match="version"):
            GbtModel.from_dict(json.loads(doc))

    def test_empty_training_set_rejected(self):
        with pytest.raises(InputError):
            fit_gbt(np.zeros((0, 2)), np.zeros(0))


class TestGridSearch:
    def setup_method(self):
        d = make_aligned_dataset(days=10, seed=6)
        n = len(d)
        bounds = ((0, n - 96), (n - 96, n - 48), (n - 48, n))
        spec = fit_feature_spec(d, slice(*bounds[0]), window_len=12)
        self.data = build_examples(d, spec, bounds)

    def test_prefix_reuse_matches_direct_fit(self):
        model, report = gbt_grid_search(self.data,
                                        n_estimators_grid=(5, 10),
                                        max_depth_grid=(2,),
                                        learning_rate_grid=(0.1,))
        cell = next(c for c in report
                    if c["n_estimators"] == 5 and c["max_depth"] == 2)
        direct = fit_gbt_examples(self.data, n_estimators=5, max_depth=2,
                                  learning_rate=0.1)
        got = mse(self.data.validation.y,
                  direct.predict(flatten_features(self.data.validation)))
        assert cell["val_mse"] == pytest.approx(got, abs=1e-12)

    def test_selects_minimum_val_mse(self):
        model, report = gbt_grid_search(self.data,
                                        n_estimators_grid=(5, 20),
                                        max_depth_grid=(1, 3),
                                        learning_rate_grid=(0.1,))
        best = min(report, key=lambda c: c["val_mse"])
        got = mse(self.data.validation.y,
                  model.predict(flatten_features(self.data.validation)))
        assert got == pytest.approx(best["val_mse"], abs=1e-12)
        assert len(report) == 4

    def test_one_presort_shared_by_every_cell(self, monkeypatch):
        presort, fit = baselines._presort, baselines.fit_gbt
        presorts, fits = [], []

        def counted_presort(X):
            presorts.append(X.shape)
            return presort(X)

        def kept_fit(*args, **kwargs):
            fits.append(fit(*args, **kwargs))
            return fits[-1]

        monkeypatch.setattr(baselines, "_presort", counted_presort)
        monkeypatch.setattr(baselines, "fit_gbt", kept_fit)
        grid = (3, 6)
        best, _ = gbt_grid_search(self.data, n_estimators_grid=grid,
                                  max_depth_grid=(1, 3),
                                  learning_rate_grid=(0.1, 1.0))
        monkeypatch.undo()
        assert len(presorts) == 1 and len(fits) == 4
        # each cell's model is its (depth, rate) fit cut to its tree count,
        # byte for byte what a standalone fit with that count writes
        X, y = flatten_features(self.data.train), self.data.train.y
        for full in fits:
            for n in grid:
                cell = GbtModel(full.initial_prediction, full.trees[:n],
                                full.learning_rate, full.max_depth)
                alone = fit_gbt(X, y, n_estimators=n, max_depth=full.max_depth,
                                learning_rate=full.learning_rate)
                assert cell.to_json() == alone.to_json()
        assert best.to_json() == fit_gbt(
            X, y, n_estimators=len(best.trees), max_depth=best.max_depth,
            learning_rate=best.learning_rate).to_json()

    def test_empty_grid_rejected(self):
        with pytest.raises(InputError):
            gbt_grid_search(self.data, n_estimators_grid=())


class TestFlattenFeatures:
    def test_layout(self):
        d = make_aligned_dataset(days=6, seed=7)
        n = len(d)
        bounds = ((0, n - 48), (n - 48, n - 24), (n - 24, n))
        spec = fit_feature_spec(d, slice(*bounds[0]), window_len=12)
        data = build_examples(d, spec, bounds)
        X = flatten_features(data.train)
        w = spec.window_len
        assert X.shape[1] == w + 13 + 5
        assert np.array_equal(X[:, :w], data.train.E)
        assert np.array_equal(X[:, w:w + 13], data.train.FW)
        assert np.array_equal(X[:, w + 13:], data.train.FC)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
class TestNonFiniteInput:
    """A NaN or inf in any array a GBT or persistence call reads is a
    InputError naming the argument, never a NaN model or a warning."""

    def problem(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(30, 3))
        return X, X[:, 0] + 0.1 * rng.normal(size=30)

    def test_fit_gbt_features(self, bad):
        X, y = self.problem()
        X[7, 1] = bad
        with pytest.raises(InputError, match="X"):
            fit_gbt(X, y, n_estimators=2)

    def test_fit_gbt_targets(self, bad):
        X, y = self.problem()
        y[4] = bad
        with pytest.raises(InputError, match="y"):
            fit_gbt(X, y, n_estimators=2)

    def test_predict_features(self, bad):
        X, y = self.problem()
        model = fit_gbt(X, y, n_estimators=2)
        X[0, 2] = bad
        with pytest.raises(InputError, match="X"):
            model.predict(X)

    def test_persistence_history(self, bad):
        history = np.arange(48.0)
        history[0] = bad   # before the last period: never repeated
        assert np.array_equal(persistence_forecast(history, 24), np.arange(24.0, 48.0))
        history[30] = bad
        with pytest.raises(InputError, match="history"):
            persistence_forecast(history, 24)

    def test_split_and_tree_features(self, bad):
        X, y = self.problem()
        X[11, 0] = bad
        for fit in (best_split, lambda X, y: fit_tree(X, y, 2)):
            with pytest.raises(InputError, match="^X holds"):
                fit(X, y)

    def test_split_and_tree_targets(self, bad):
        X, y = self.problem()
        y[0] = bad
        for fit in (best_split, lambda X, y: fit_tree(X, y, 2)):
            with pytest.raises(InputError, match="^y holds"):
                fit(X, y)
        # one row never splits, but its target is still read
        with pytest.raises(InputError, match="^y holds"):
            best_split(X[:1], y[:1])

    @pytest.mark.parametrize("where", ["E", "FW", "FC", "y"])
    def test_grid_search_validation(self, bad, where):
        d = make_aligned_dataset(days=10, seed=6)
        n = len(d)
        bounds = ((0, n - 96), (n - 96, n - 48), (n - 48, n))
        data = build_examples(d, fit_feature_spec(d, slice(*bounds[0]), window_len=12),
                              bounds)
        getattr(data.validation, where).flat[5] = bad
        name = "validation y" if where == "y" else "validation X"
        with pytest.raises(InputError, match=f"^{name} holds"):
            gbt_grid_search(data, n_estimators_grid=(1,), max_depth_grid=(1,),
                            learning_rate_grid=(0.1,))


class TestTargetMagnitude:
    """A target whose split scores would overflow is an InputError naming
    y; at the bound every score stays finite and the trees still split (the
    tests run with warnings as errors, so an overflow would raise)."""

    #: the feature of the root split, from each of the three fitting calls
    FITS = {"fit_gbt": lambda X, y: fit_gbt(X, y, n_estimators=3,
                                            learning_rate=1.0).trees[0].feature,
            "fit_tree": lambda X, y: fit_tree(X, y, 3).feature,
            "best_split": lambda X, y: best_split(X, y)[0]}

    def features(self):
        return np.random.default_rng(0).normal(size=(50, 3))

    @pytest.mark.parametrize("fit", FITS.values(), ids=FITS)
    def test_overflowing_targets_refused(self, fit):
        X = self.features()
        with pytest.raises(InputError, match="^y exceeds"):
            fit(X, 1e160 * X[:, 0])

    @pytest.mark.parametrize("fit", FITS.values(), ids=FITS)
    def test_targets_at_the_bound_split(self, fit):
        X = self.features()
        # max|y| is the limit itself: x / max|x| is 1.0 exactly at the largest
        limit = baselines.MAX_TARGET_MASS / len(X)
        assert fit(X, X[:, 0] / np.abs(X[:, 0]).max() * limit) == 0


class TestFitGbtInputRange:
    """The rest of what the target bound assumes: split thresholds stay
    finite for any finite features, and the learning rate is in (0, 2]
    (warnings are errors here, so an overflow would raise)."""

    def features(self):
        return np.random.default_rng(0).normal(size=(50, 3))

    def test_huge_features_give_finite_thresholds(self):
        X = self.features()
        model = fit_gbt(X / np.abs(X).max() * 1.5e308, X[:, 0], n_estimators=3)

        def thresholds(node):
            if node.is_leaf:
                return []
            return [node.threshold] + thresholds(node.left) + thresholds(node.right)
        found = [t for tree in model.trees for t in thresholds(tree)]
        assert found and np.isfinite(found).all()
        assert GbtModel.from_dict(json.loads(model.to_json())).trees[0].threshold == found[0]

    @pytest.mark.parametrize("rate", [0.0, -1.0, 2.5, float("nan")])
    def test_learning_rate_outside_the_bound_refused(self, rate):
        X = self.features()
        with pytest.raises(InputError, match="learning_rate"):
            fit_gbt(X, X[:, 0], n_estimators=2, learning_rate=rate)

    def test_learning_rate_at_the_bound_accepted(self):
        X = self.features()
        model = fit_gbt(X, X[:, 0], n_estimators=3, learning_rate=2.0)
        assert model.learning_rate == 2.0 and len(model.trees) == 3
