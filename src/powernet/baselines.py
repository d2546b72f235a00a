"""Comparison forecasters: a seasonal persistence baseline and from-scratch
gradient-boosted regression trees over the flattened example features.

Trees are exact CART: split candidates are midpoints between consecutive
sorted unique feature values, chosen by summed-squared-error reduction. The
rows are sorted by every feature once per fit and each node keeps that order
(the presorted exact-greedy search of XGBoost, arXiv:1603.02754), so a node
scores all its candidates in one pass over all features.

The choice is deterministic: the largest float64 gain wins, and among equal
float64 gains the lowest feature index, then the lowest threshold. Gains that
are equal in exact arithmetic can round differently, so two splits that tie
mathematically may resolve to the higher feature index.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .dataio import TimeSeries
from .features import ExampleSet, Split
from .metrics import mse

GBT_FORMAT_VERSION = 1

# parameter grids used for the tuned baseline comparison
DEFAULT_N_ESTIMATORS_GRID = (50, 100, 150, 200, 250, 300, 350, 400, 450, 500)
DEFAULT_MAX_DEPTH_GRID = (1, 2, 3, 4, 5)
DEFAULT_LEARNING_RATE_GRID = (0.001, 0.01, 0.1, 1.0)


class BaselineError(ValueError):
    pass


def persistence_forecast(history, horizon: int, period: int = 24) -> np.ndarray:
    """Repeat the value observed one period earlier, recursively for
    horizons beyond one period."""
    values = history.values if isinstance(history, TimeSeries) else np.asarray(history, dtype=np.float64)
    if len(values) < period:
        raise BaselineError(f"need at least {period} history values, have {len(values)}")
    return np.resize(values[-period:], horizon)


@dataclass
class TreeNode:
    feature: int = -1            # -1 marks a leaf
    threshold: float = 0.0
    left: "TreeNode" = None
    right: "TreeNode" = None
    value: float = 0.0

    @property
    def is_leaf(self):
        return self.feature < 0

    def to_dict(self):
        if self.is_leaf:
            return {"value": self.value}
        return {"feature": self.feature, "threshold": self.threshold,
                "left": self.left.to_dict(), "right": self.right.to_dict()}

    @classmethod
    def from_dict(cls, d, n_features=math.inf):
        """The tree of nested dict ``d``; a split feature outside
        [0, n_features) or a non-finite number is a BaselineError."""
        if "value" in d:
            return cls(value=_finite(d["value"]))
        feature = d["feature"]
        if not (isinstance(feature, int) and 0 <= feature < n_features):
            raise BaselineError(f"split feature {feature!r} is outside [0, {n_features})")
        return cls(feature=feature, threshold=_finite(d["threshold"]),
                   left=cls.from_dict(d["left"], n_features),
                   right=cls.from_dict(d["right"], n_features))


def _finite(value):
    if not math.isfinite(value):
        raise BaselineError(f"non-finite tree threshold or leaf value {value!r}")
    return value


def _presort(X: np.ndarray) -> np.ndarray:
    """(F, n) row order: row j lists the rows of X sorted by feature j,
    equal values in ascending row order."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def _split_search(XT, y, order, rows):
    """The split engine behind best_split and fit_tree.

    ``order`` holds the node's rows sorted by each feature (from _presort,
    filtered), ``rows`` the same rows in ascending order. Returns the best
    (feature, threshold, gain) or None, exactly as the per-boundary scalar
    formula below picks it.
    """
    n = len(rows)
    if n < 2 or len(order) == 0:
        return None
    node_y = y[rows]
    total_sse = float(np.sum((node_y - node_y.mean()) ** 2))
    xs = np.take_along_axis(XT, order, axis=1)
    ys = y[order]
    csum = np.cumsum(ys, axis=1)
    csq = np.cumsum(ys ** 2, axis=1)
    cl, ql = csum[:, :-1], csq[:, :-1]
    nl = np.arange(1, n, dtype=np.float64)
    gain = total_sse - ((ql - cl ** 2 / nl)
                        + ((csq[:, -1:] - ql) - (csum[:, -1:] - cl) ** 2 / (n - nl)))
    # split after position i (left = 0..i) only where the value changes
    gain[~(xs[:, :-1] < xs[:, 1:])] = -np.inf
    top = gain.max()
    if top == -np.inf:
        return None
    # Array ** 2 rounds x*x while the scalar ** 2 below calls libm pow; the
    # two differ in the last bit for a few values, which can flip near-ties.
    # The vector gains only shortlist: every gain within a few ulps of the
    # top is recomputed with the scalar formula, in (feature, position)
    # order, so the pick is the one the scalar formula makes.
    tol = 64 * np.finfo(np.float64).eps * (float(csq[:, -1].max()) + total_sse)
    best = None
    for k in np.flatnonzero(gain >= top - tol):
        j, i = divmod(int(k), n - 1)
        nl_i = i + 1
        sse_l = csq[j, i] - csum[j, i] ** 2 / nl_i
        sse_r = ((csq[j, -1] - csq[j, i])
                 - (csum[j, -1] - csum[j, i]) ** 2 / (n - nl_i))
        g = total_sse - (sse_l + sse_r)
        if best is None or g > best[2]:
            best = (j, (xs[j, i] + xs[j, i + 1]) / 2.0, float(g))
    if best is None or best[2] <= 0.0:
        return None
    return best


def best_split(X: np.ndarray, y: np.ndarray):
    """Best (feature, threshold, gain) by SSE reduction, or None.

    Candidates are midpoints between consecutive sorted unique values.
    The largest float64 gain wins; equal float64 gains keep the lowest
    feature index, then the lowest threshold. Splits that tie in exact
    arithmetic can round to different gains, so the winner among them need
    not be the lowest feature.
    """
    if len(y) < 2:
        return None
    return _split_search(np.asarray(X).T, y, _presort(X), np.arange(len(y)))


def _grow_tree(X, order, y, max_depth: int):
    """Grow one tree on rows presorted by _presort(X); returns (tree, the
    value of the leaf each training row lands in)."""
    XT = X.T
    fitted = np.empty(len(y))
    go_left = np.zeros(len(y), dtype=bool)

    def grow(order, rows, depth):
        split = None
        if depth < max_depth:
            split = _split_search(XT, y, order, rows)
        if split is None:
            value = float(y[rows].mean())
            fitted[rows] = value
            return TreeNode(value=value)
        j, thr, _ = split
        left = X[rows, j] <= thr
        go_left[rows] = left
        # boolean selection keeps each feature's order, and every feature
        # sends the same rows left, so the rows stay an (F, n_left) array
        to_left = go_left[order]
        n_features = len(order)
        return TreeNode(feature=j, threshold=thr,
                        left=grow(order[to_left].reshape(n_features, -1),
                                  rows[left], depth + 1),
                        right=grow(order[~to_left].reshape(n_features, -1),
                                   rows[~left], depth + 1))

    tree = grow(order, np.arange(len(y)), 0)
    return tree, fitted


def fit_tree(X, y, max_depth: int) -> TreeNode:
    """Greedy CART regression tree on residuals; leaves hold means."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(y) < 1:
        raise BaselineError("need at least one row")
    return _grow_tree(X, _presort(X), y, max_depth)[0]


def tree_predict(node: TreeNode, X: np.ndarray) -> np.ndarray:
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty(len(X))
    stack = [(node, np.arange(len(X)))]
    while stack:
        nd, rows = stack.pop()
        if len(rows) == 0:
            continue
        if nd.is_leaf:
            out[rows] = nd.value
        else:
            go_left = X[rows, nd.feature] <= nd.threshold
            stack.append((nd.left, rows[go_left]))
            stack.append((nd.right, rows[~go_left]))
    return out


def flatten_features(split: Split) -> np.ndarray:
    """The [consumption window; weather; calendar] layout shared with the
    neural model, as one flat row per example."""
    return np.concatenate([split.E, split.FW, split.FC], axis=1)


@dataclass
class GbtModel:
    initial_prediction: float
    trees: list = field(default_factory=list)
    learning_rate: float = 0.1
    max_depth: int = 3

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.full(len(X), self.initial_prediction)
        for tree in self.trees:
            out += self.learning_rate * tree_predict(tree, X)
        return out

    def staged_train_mse(self, X, y) -> list:
        """Training MSE after each boosting stage (stage 0 = mean only)."""
        pred = np.full(len(y), self.initial_prediction)
        curve = [mse(y, pred)]
        for tree in self.trees:
            pred = pred + self.learning_rate * tree_predict(tree, X)
            curve.append(mse(y, pred))
        return curve

    def to_dict(self) -> dict:
        return {
            "format_version": GBT_FORMAT_VERSION,
            "model_type": "gbt",
            "initial_prediction": self.initial_prediction,
            "learning_rate": self.learning_rate,
            "max_depth": self.max_depth,
            "trees": [t.to_dict() for t in self.trees],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=1, sort_keys=True,
                          allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "GbtModel":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, doc: dict, n_features=math.inf) -> "GbtModel":
        if doc.get("format_version") != GBT_FORMAT_VERSION:
            raise BaselineError(f"unsupported GBT checkpoint version {doc.get('format_version')}")
        return cls(initial_prediction=doc["initial_prediction"],
                   learning_rate=doc["learning_rate"],
                   max_depth=doc["max_depth"],
                   trees=[TreeNode.from_dict(t, n_features) for t in doc["trees"]])


def fit_gbt(X, y, n_estimators: int = 200, max_depth: int = 3,
            learning_rate: float = 0.1) -> GbtModel:
    """Stage-wise boosting on squared loss: each tree fits the residuals
    of the current ensemble, earlier trees stay unchanged."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(y) == 0:
        raise BaselineError("empty training set")
    model = GbtModel(initial_prediction=float(y.mean()),
                     learning_rate=learning_rate, max_depth=max_depth)
    pred = np.full(len(y), model.initial_prediction)
    order = _presort(X)
    for _ in range(n_estimators):
        tree, fitted = _grow_tree(X, order, y - pred, max_depth)
        pred += learning_rate * fitted
        model.trees.append(tree)
    return model


def fit_gbt_examples(data: ExampleSet, **kwargs) -> GbtModel:
    return fit_gbt(flatten_features(data.train), data.train.y, **kwargs)


def gbt_grid_search(data: ExampleSet,
                    n_estimators_grid=DEFAULT_N_ESTIMATORS_GRID,
                    max_depth_grid=DEFAULT_MAX_DEPTH_GRID,
                    learning_rate_grid=DEFAULT_LEARNING_RATE_GRID):
    """Exhaustive product search by validation MSE.

    Ties prefer fewer trees, then shallower trees, then a smaller learning
    rate. Returns (best model, per-cell report list).

    Only the largest tree count per (depth, lr) pair is actually fitted;
    smaller counts reuse its prefix, since boosting stages are independent
    of how many follow.
    """
    if not (n_estimators_grid and max_depth_grid and learning_rate_grid):
        raise BaselineError("grids must be non-empty")
    X_tr = flatten_features(data.train)
    X_val = flatten_features(data.validation)
    y_tr, y_val = data.train.y, data.validation.y
    n_grid = sorted(n_estimators_grid)
    cells = []
    for depth, lr in product(sorted(max_depth_grid), sorted(learning_rate_grid)):
        full = fit_gbt(X_tr, y_tr, n_estimators=n_grid[-1],
                       max_depth=depth, learning_rate=lr)
        pred = np.full(len(y_val), full.initial_prediction)
        k = 0
        for n_est in n_grid:
            while k < n_est:
                pred += lr * tree_predict(full.trees[k], X_val)
                k += 1
            cells.append({"n_estimators": n_est, "max_depth": depth,
                          "learning_rate": lr, "val_mse": mse(y_val, pred),
                          "_trees": full.trees[:n_est],
                          "_init": full.initial_prediction})
    best = min(cells, key=lambda c: (c["val_mse"], c["n_estimators"],
                                     c["max_depth"], c["learning_rate"]))
    model = GbtModel(initial_prediction=best["_init"], trees=best["_trees"],
                     learning_rate=best["learning_rate"],
                     max_depth=best["max_depth"])
    report = [{key: c[key] for key in ("n_estimators", "max_depth",
                                       "learning_rate", "val_mse")}
              for c in cells]
    return model, report
