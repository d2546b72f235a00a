"""Comparison forecasters: a seasonal persistence baseline and from-scratch
gradient-boosted regression trees over the flattened example features.

Trees are exact CART: split candidates are midpoints between consecutive
sorted unique feature values, chosen by summed-squared-error reduction. The
rows are sorted by every feature once per training matrix (a grid search
shares one sort over all its fits), and each node keeps that order and the
feature values in it (the presorted exact-greedy search of XGBoost,
arXiv:1603.02754): a split partitions both with one index, so a node ranks
all its candidates in three passes over all features. The rank is the
centred score (S_L - n_L*S/n)**2/(n_L*n_R) of the left target sum and the
two counts. It is that paper's eq. 7 for squared loss,
S_L**2/n_L + S_R**2/n_R, less S**2/n of the whole node and divided by n:
the same shift and scale for every candidate. Only candidates whose score
lies within a proven rounding bound of the top are scored again with the
scalar SSE-reduction formula, and that formula makes the choice. A node
whose targets are all equal ties every score; its scalar gain depends on
the position alone, so it is computed once per position.

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

from .features import ExampleSet, Split
from .metrics import mse
from .numcore import OBJECT, InputError, check, finite, integer, items, one_of, real

GBT_FORMAT_VERSION = 1

# parameter grids used for the tuned baseline comparison
DEFAULT_N_ESTIMATORS_GRID = (50, 100, 150, 200, 250, 300, 350, 400, 450, 500)
DEFAULT_MAX_DEPTH_GRID = (1, 2, 3, 4, 5)
DEFAULT_LEARNING_RATE_GRID = (0.001, 0.01, 0.1, 1.0)


#: The largest len(y) * max|y| of a training target. A node score squares a
#: sum of up to twice the residuals' magnitudes, and boosting at a learning
#: rate in (0, 2] never raises their sum of squares above Sigma(y**2), so
#: that sum stays within sqrt(n Sigma(y**2)) <= n max|y|: every square is at
#: most 4e306, below the float64 maximum of 1.8e308.
MAX_TARGET_MASS = 1e153


def _fit_inputs(X, y):
    """(X, y) as float64 arrays; a NaN or infinity in either, or a y over
    MAX_TARGET_MASS / len(y) in magnitude, is an InputError naming it."""
    X = finite(np.asarray(X, dtype=np.float64), "X")
    y = finite(np.asarray(y, dtype=np.float64), "y")
    if len(y) and np.abs(y).max() > MAX_TARGET_MASS / len(y):
        raise InputError(f"y exceeds {MAX_TARGET_MASS:g} / len(y) in magnitude: "
                         "its split scores would overflow")
    return X, y


def persistence_forecast(history, horizon: int, period: int = 24) -> np.ndarray:
    """Repeat the value observed one period earlier, recursively for
    horizons beyond one period; the last period must be finite."""
    values = np.asarray(history, dtype=np.float64)
    if len(values) < period:
        raise InputError(f"need at least {period} history values, have {len(values)}")
    return np.resize(finite(values[-period:], "history"), horizon)


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
        [0, n_features) or a non-finite number is an InputError naming
        its key and value."""
        leaf = {"value": real()}
        split = {"feature": integer(0, n_features), "threshold": real(),
                 "left": OBJECT, "right": OBJECT}

        def node(d):
            if isinstance(d, dict) and "value" in d:
                return cls(**check(d, leaf, "GBT tree"))
            f = check(d, split, "GBT tree")
            return cls(f["feature"], f["threshold"], node(f["left"]), node(f["right"]))
        return node(d)


def _presort(X: np.ndarray) -> np.ndarray:
    """(F, n) row order: row j lists the rows of X sorted by feature j,
    equal values in ascending row order."""
    return np.ascontiguousarray(np.argsort(X, axis=0, kind="stable").T)


def _presorted(X: np.ndarray):
    """(XT, order, xs) of a float64 X, what the split engine reads: XT is
    X.T C-ordered, order is _presort(X) and xs[j] the values of feature j
    in that order."""
    XT = np.ascontiguousarray(X.T)
    order = _presort(X)
    return XT, order, np.take_along_axis(XT, order, axis=1)


_EPS = float(np.finfo(np.float64).eps)


def _shortlist(csum, xs, scale):
    """Flat indices j * (n - 1) + i of every boundary whose scalar gain can
    be the largest, in (feature, position) order.

    ``csum`` holds the prefix sums of the node's targets along each
    feature's sorted order, ``xs`` the feature values in that order and
    ``scale`` is M = Sigma(y**2) + SSE, with SSE the node's sum of squared
    errors. A boundary after sorted position i of feature j counts only
    where the value changes. With c = csum[j, i], S_j = csum[j, -1],
    n_L = i + 1 and n_R = n - n_L, the scalar gain that _split_search
    computes,

        g = SSE - ((q_i - c**2/n_L) + ((Q_j - q_i) - (S_j - c)**2/n_R)),

    with q_i and Q_j prefix sums of y**2 along feature j, equals
    SSE - Sigma(y**2) + T_j in exact arithmetic, where
    T_j = c**2/n_L + (S_j - c)**2/n_R is the exact-greedy score of XGBoost
    (arXiv:1603.02754, eq. 7) on the float prefix sums. With one total
    S = csum[0, -1] for every feature, exactly

        T_j = n R + S**2/n + E_j,   R = (c - (S/n) n_L)**2 w,
        E_j = ((S_j - c)**2 - (S - c)**2) / n_R,   w = 1/(n_L n_R),

    so boundaries are ranked by R: three passes over the block (subtract
    (S/n) n_L, square, multiply by w), and no prefix sum of y**2. The block
    is worked at its full width n. Its last column, the node total, is no
    boundary: the compare of neighbours along the flattened ``xs`` marks it
    invalid with the ties. Every score is >= 0, so an invalid boundary
    multiplied by 0 leaves the plain maximum to the valid ones.

    The bound, with u = eps/2, Q = Sigma(y**2) and Y = max|y|; SSE <= Q,
    T_j <= Q and n R <= SSE up to rounding, so every partial result is at
    most M, and Sigma|y| Y <= (1 + sqrt(n - 1)/2) Q (Cauchy-Schwarz on the
    n - 1 values besides the largest):

    * the scalar formula rounds its two quotients (pow within one ulp) and
      five sums, and Q_j, a sequential sum of n squares, is within
      (n - 1)uQ of Q: |g - (SSE - Q + T_j)| <= (n + 10)uM;
    * S_j and S are sequential sums of the same n values, so
      |S_j - S| <= 2(n - 1)u Sigma|y|, and |S_j - c| <= n_R Y:
      |E_j| <= 2|S_j - S| Y <= (n - 1)(4 + 2 sqrt(n - 1))uQ;
    * the vector score r rounds (S/n) n_L twice and each of the other three
      steps once (n_L n_R is exact), and |c - (S/n) n_L| <= 2 n_L n_R Y/n:
      |r - R| <= 5uR + 8u|S| Y/n <= (13 + 4 sqrt(n - 1))uM/n.

    If boundary k has the largest scalar gain and m the largest score,
    g_k >= g_m gives T_k >= T_m - 2(n + 10)uM. Dividing by n,
    R_k >= R_m - (2(n + 10)uM + 2 max|E_j|)/n, and so
    r_k >= r_m - (4 sqrt(n) + 33)uM for every n >= 2. The shortlist keeps
    every score within (16 sqrt(n) + 32)eps M of the top: over twice that
    margin at n = 2 and over six times it at n = 624, which also covers
    second-order terms and the rounding of M and of the subtraction.
    """
    n = csum.shape[1]
    nl = np.arange(1, n + 1, dtype=np.float64)
    w = nl * (n - nl)
    w[-1] = 1.0                     # the node total: finite, and masked below
    np.divide(1.0, w, out=w)
    score = np.subtract(csum, nl * (csum[0, -1] / n))
    np.square(score, out=score)
    score *= w
    valid = np.empty(csum.size, dtype=bool)
    flat = xs.ravel()
    np.less(flat[:-1], flat[1:], out=valid[:-1])
    valid[n - 1::n] = False
    score *= valid.reshape(score.shape)
    top = np.maximum.reduce(score, axis=None)
    keep = np.greater_equal(score, top - (16 * math.sqrt(n) + 32) * _EPS * scale)
    keep = keep.ravel().nonzero()[0]
    keep = keep[valid.take(keep)]
    return keep - keep // n


def _split_search(y, order, xs, rows):
    """The split engine behind best_split and fit_tree.

    ``order`` holds the node's rows sorted by each feature (from _presort,
    partitioned down the tree), ``xs`` the feature values in that order
    and ``rows`` the same rows in ascending order. Returns the best
    (feature, threshold, gain) or None, exactly as the per-boundary scalar
    formula below picks it over every boundary.

    Array ** 2 rounds x*x while the scalar ** 2 below calls libm pow; the
    two differ in the last bit for a few values, which can flip near-ties.
    So the vector score only shortlists: the boundaries _shortlist keeps
    are recomputed with the scalar formula, in (feature, position) order,
    with q from a prefix sum of ys ** 2 over the rows of the shortlisted
    features, whose row j is the same sequential sum as
    np.cumsum(ys[j] ** 2). The largest float64 gain wins, equal gains keep
    the first boundary, and a best gain <= 0 is no split.

    The node's mean and SSE are the pairwise sums of ndarray.mean and
    np.sum, called as ufunc reductions without their Python wrappers.
    """
    n = len(rows)
    if n < 2 or len(order) == 0:
        return None
    node_y = y.take(rows)
    mean = np.add.reduce(node_y) / n
    dev = node_y - mean
    total_sse = float(np.add.reduce(np.multiply(dev, dev, out=dev)))
    ys = y.take(order)
    csum = ys.cumsum(axis=1)
    # Sigma(y**2) + SSE = 2 SSE + n mean**2, without a pass or a BLAS call
    shortlist = _shortlist(csum, xs, 2 * total_sse + n * float(mean) ** 2)
    if len(shortlist) == 0:
        return None
    width = n - 1
    # prefix sums of y**2 along features first..last, which hold the shortlist
    first, last = int(shortlist[0]) // width, int(shortlist[-1]) // width
    # A constant target ties every score, so the whole block is shortlisted.
    # Its prefix sums are then the same along every feature's order (up to
    # the sign of a zero, which squaring drops), so the scalar gain depends
    # on the position alone: compute it once per position, on Python floats
    # (whose ** is the same libm pow), and pick the first of the largest.
    constant = len(shortlist) > width and (node_y == node_y[0]).all()
    csq = np.square(ys[first:first + 1 if constant else last + 1]).cumsum(axis=1)

    def gain(c, q, i):
        """The scalar gain of the boundary after position i of one feature,
        from its prefix sums c of y and q of y**2."""
        nl_i = i + 1
        sse_l = q[i] - c[i] ** 2 / nl_i
        sse_r = (q[-1] - q[i]) - (c[-1] - c[i]) ** 2 / (n - nl_i)
        return total_sse - (sse_l + sse_r)

    if constant:
        c, q = csum[first].tolist(), csq[0].tolist()
        at = np.array([gain(c, q, i) for i in range(width)])
        gains = at.take(shortlist % width)
        j, i = divmod(int(shortlist[gains.argmax()]), width)
        best = (j, xs[j, i] / 2 + xs[j, i + 1] / 2, float(at[i]))
    else:
        best = None
        for k in shortlist.tolist():
            j, i = divmod(k, width)
            g = gain(csum[j], csq[j - first], i)
            if best is None or g > best[2]:
                best = (j, xs[j, i] / 2 + xs[j, i + 1] / 2, float(g))
    if best[2] <= 0.0:
        return None
    return best


def best_split(X: np.ndarray, y: np.ndarray):
    """Best (feature, threshold, gain) by SSE reduction, or None.

    Candidates are midpoints between consecutive sorted unique values.
    The largest float64 gain wins; equal float64 gains keep the lowest
    feature index, then the lowest threshold. Splits that tie in exact
    arithmetic can round to different gains, so the winner among them need
    not be the lowest feature. X and y are refused as fit_gbt refuses them.
    """
    X, y = _fit_inputs(X, y)
    if len(y) < 2:
        return None
    _, order, xs = _presorted(X)
    return _split_search(y, order, xs, np.arange(len(y)))


def _grow_tree(XT, order, xs, y, max_depth: int):
    """Grow one tree on (XT, order, xs) from _presorted(X); returns (tree,
    the value of the leaf each training row lands in)."""
    n_features = len(order)
    fitted = np.empty(len(y))
    go_left = np.zeros(len(y), dtype=bool)

    def grow(order, xs, rows, depth):
        split = None
        if depth < max_depth:
            split = _split_search(y, order, xs, rows)
        if split is None:
            # ndarray.mean's sum and divide, without its Python wrapper
            value = float(np.add.reduce(y.take(rows)) / len(rows))
            fitted[rows] = value
            return TreeNode(value=value)
        j, thr, _ = split
        left = XT[j].take(rows) <= thr
        left_order = left_xs = right_order = right_xs = None
        if depth + 1 < max_depth:           # children at max_depth are leaves
            go_left[rows] = left
            # every feature sends the same rows left and the flat positions
            # ascend, so one index keeps every feature's order, and its
            # values, as (F, n_child) arrays
            to_left = go_left.take(order).ravel()
            at = to_left.nonzero()[0]
            left_order = order.take(at).reshape(n_features, -1)
            left_xs = xs.take(at).reshape(n_features, -1)
            at = np.logical_not(to_left, out=to_left).nonzero()[0]
            right_order = order.take(at).reshape(n_features, -1)
            right_xs = xs.take(at).reshape(n_features, -1)
        return TreeNode(feature=j, threshold=thr,
                        left=grow(left_order, left_xs, rows[left], depth + 1),
                        right=grow(right_order, right_xs, rows[~left], depth + 1))

    tree = grow(order, xs, np.arange(len(y)), 0)
    # grow's closure refers to itself; breaking that cycle frees the
    # tree's buffers now rather than at the next cyclic collection
    del grow
    return tree, fitted


def fit_tree(X, y, max_depth: int) -> TreeNode:
    """Greedy CART regression tree on residuals; leaves hold means. X and y
    are refused as fit_gbt refuses them."""
    X, y = _fit_inputs(X, y)
    if len(y) < 1:
        raise InputError("need at least one row")
    return _grow_tree(*_presorted(X), y, max_depth)[0]


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

    #: What each key of ``to_dict``'s document holds; each tree is checked
    #: by ``TreeNode.from_dict``.
    CHECKS = {"format_version": one_of(GBT_FORMAT_VERSION),
              "initial_prediction": real(), "learning_rate": real(),
              "max_depth": integer(0), "trees": items(OBJECT)}

    def predict(self, X) -> np.ndarray:
        X = finite(np.atleast_2d(np.asarray(X, dtype=np.float64)), "X")
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
    def from_dict(cls, doc: dict, n_features=math.inf) -> "GbtModel":
        doc = check(doc, cls.CHECKS, "GBT checkpoint")
        return cls(initial_prediction=float(doc["initial_prediction"]),
                   learning_rate=float(doc["learning_rate"]),
                   max_depth=doc["max_depth"],
                   trees=[TreeNode.from_dict(t, n_features) for t in doc["trees"]])


def fit_gbt(X, y, n_estimators: int = 200, max_depth: int = 3,
            learning_rate: float = 0.1, *, presorted: tuple | None = None) -> GbtModel:
    """Stage-wise boosting on squared loss: each tree fits the residuals
    of the current ensemble, earlier trees stay unchanged.

    ``presorted``, _presorted(X) of this same X, saves the sort when the
    caller fits several models to one matrix, as gbt_grid_search does. A NaN
    or infinity in X or y, or a y over 1e153 / len(y) in magnitude, whose
    split scores would overflow, is an InputError naming it, and so is a
    ``learning_rate`` outside (0, 2], which that bound assumes."""
    if not 0.0 < learning_rate <= 2.0:
        raise InputError(f"learning_rate must be in (0, 2], got {learning_rate}")
    X, y = _fit_inputs(X, y)
    if len(y) == 0:
        raise InputError("empty training set")
    model = GbtModel(initial_prediction=float(y.mean()),
                     learning_rate=learning_rate, max_depth=max_depth)
    pred = np.full(len(y), model.initial_prediction)
    if presorted is None:
        presorted = _presorted(X)
    for _ in range(n_estimators):
        tree, fitted = _grow_tree(*presorted, y - pred, max_depth)
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
        raise InputError("grids must be non-empty")
    X_tr = flatten_features(data.train)
    X_val = finite(flatten_features(data.validation), "validation X")
    y_tr, y_val = data.train.y, finite(data.validation.y, "validation y")
    presorted = _presorted(np.asarray(X_tr, dtype=np.float64))
    n_grid = sorted(n_estimators_grid)
    cells = []
    for depth, lr in product(sorted(max_depth_grid), sorted(learning_rate_grid)):
        full = fit_gbt(X_tr, y_tr, n_estimators=n_grid[-1], max_depth=depth,
                       learning_rate=lr, presorted=presorted)
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
