"""Adam optimization of the network on the MSE + L2 objective, with
mini-batching, early stopping on validation MSE, and grid search over
LSTM memory sizes.

Everything is deterministic given the config seed: shuffling, dropout and
initialization all derive from numpy Generators seeded from it.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .features import ExampleSet, Split
from .metrics import mse
from .model import PowerNetParams, backward_batch, forward_batch, init_params
from .numcore import InputError, check, integer, items, real

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    """Training diverged: a loss or validation MSE is not finite."""


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 500
    patience: int = 10
    dropout_rate: float = 0.1
    l2_lambda: float = 1e-4
    memory_size_grid: tuple = (64, 128, 256, 512)
    memory_size: int = 64          # used by train(); grid_search overrides
    d1: int = 32
    d2: int = 16
    d3: int = 32
    stack: int = 2
    seed: int = 0

    #: What each field holds; the CLI checks its config against it too.
    CHECKS = {"learning_rate": real(0, strict=True), "dropout_rate": real(0, 1),
              "l2_lambda": real(0, 1), "memory_size_grid": items(integer(1)),
              "seed": integer(0), **dict.fromkeys(
                  ("batch_size", "max_epochs", "patience", "memory_size",
                   "d1", "d2", "d3", "stack"), integer(1))}

    def __post_init__(self):
        vars(self).update(check(vars(self), self.CHECKS, "training config"))

    def to_dict(self):
        d = self.__dict__.copy()
        d["memory_size_grid"] = list(self.memory_size_grid)
        return d


@dataclass
class AdamState:
    """Adam's moments and step count, and the two rows of scratch its
    steps run in."""

    m: np.ndarray
    v: np.ndarray
    scratch: np.ndarray = field(repr=False)   # (2, n)
    t: int = 0

    @classmethod
    def for_params(cls, p: PowerNetParams) -> "AdamState":
        n = p.vec.size
        return cls(m=np.zeros(n), v=np.zeros(n), scratch=np.empty((2, n)))


@dataclass
class TrainReport:
    train_loss: list = field(default_factory=list)    # per epoch
    val_mse: list = field(default_factory=list)       # per epoch, denormalized
    best_epoch: int = -1
    stopped_early: bool = False
    memory_size: int = 0
    wall_seconds: float = 0.0   # informational; excluded from serialization

    @property
    def best_val_mse(self) -> float:
        return self.val_mse[self.best_epoch]

    def to_dict(self) -> dict:
        # wall_seconds varies run to run and is deliberately left out so
        # identical configs produce byte-identical reports
        doc = asdict(self)
        del doc["wall_seconds"]
        return {**doc, "best_val_mse": self.best_val_mse}


def loss(E, fw, fc, y, p: PowerNetParams, l2_lambda: float = 0.0,
         dropout_rate: float = 0.0, rng=None):
    """Batch loss (mean squared error + L2 on the fully-connected weights)
    and its exact parameter gradients.

    L2 covers w1..w4 only: the fully-connected layers, not the LSTM weights
    and not the biases."""
    y = np.asarray(y, dtype=np.float64)
    if len(y) == 0:
        raise InputError("empty batch")
    yhat, trace = forward_batch(E, fw, fc, p, dropout_rate=dropout_rate,
                                train=True, rng=rng)
    resid = yhat - y
    value = float(np.mean(resid ** 2))
    grads = backward_batch(trace, 2.0 * resid / len(y), p)
    if l2_lambda > 0.0:
        for w, g in ((p.w1, grads.w1), (p.w2, grads.w2), (p.w3, grads.w3),
                     (p.w4, grads.w4)):
            value += l2_lambda * float(np.sum(w ** 2))
            g += 2.0 * l2_lambda * w
    return value, grads


def adam_step(p: PowerNetParams, grads: PowerNetParams, state: AdamState,
              lr: float) -> PowerNetParams:
    """One Adam update of ``p``, written into ``p.vec`` and computed in
    ``state``'s scratch; mutates state and returns ``p``."""
    g = grads.vec
    a, b = state.scratch
    state.t += 1
    m, v = state.m, state.v
    # the same operations in the same order as
    #   m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*g*g
    #   p = p - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    np.multiply(ADAM_BETA1, m, out=m)
    np.multiply(1.0 - ADAM_BETA1, g, out=a)
    np.add(m, a, out=m)
    np.multiply(ADAM_BETA2, v, out=v)
    np.multiply(1.0 - ADAM_BETA2, g, out=a)
    np.multiply(a, g, out=a)
    np.add(v, a, out=v)
    np.divide(m, 1.0 - ADAM_BETA1 ** state.t, out=a)
    np.multiply(lr, a, out=a)
    np.divide(v, 1.0 - ADAM_BETA2 ** state.t, out=b)
    np.sqrt(b, out=b)
    np.add(b, ADAM_EPS, out=b)
    np.divide(a, b, out=a)
    np.subtract(p.vec, a, out=p.vec)
    return p


def _validation_mse(split: Split, p: PowerNetParams, spec) -> float:
    yhat, _ = forward_batch(split.E, split.FW, split.FC, p)
    return mse(spec.denormalize_kw(split.y), spec.denormalize_kw(yhat))


def train(data: ExampleSet, cfg: TrainConfig):
    """Full training loop; returns (best params, TrainReport).

    Stops when validation MSE has not improved for cfg.patience epochs and
    returns the parameters of the best validation epoch.
    """
    tr = data.train
    if len(tr) == 0 or len(data.validation) == 0:
        raise InputError("train and validation splits must be non-empty")
    t0 = time.monotonic()
    rng = np.random.default_rng(cfg.seed)
    p = init_params(cfg.memory_size, cfg.d1, cfg.d2, cfg.d3,
                    seed=cfg.seed, stack=cfg.stack)
    state = AdamState.for_params(p)
    report = TrainReport(memory_size=cfg.memory_size)
    for epoch in range(cfg.max_epochs):
        order = rng.permutation(len(tr))
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(tr), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            value, grads = loss(tr.E[idx], tr.FW[idx], tr.FC[idx], tr.y[idx],
                                p, l2_lambda=cfg.l2_lambda,
                                dropout_rate=cfg.dropout_rate, rng=rng)
            if not np.isfinite(value):
                raise TrainingError(f"training diverged at epoch {epoch} (loss={value})")
            adam_step(p, grads, state, cfg.learning_rate)
            epoch_loss += value
            n_batches += 1
        report.train_loss.append(epoch_loss / n_batches)
        val = _validation_mse(data.validation, p, data.spec)
        if not np.isfinite(val):
            raise TrainingError(f"validation diverged at epoch {epoch}")
        report.val_mse.append(val)
        if epoch == 0 or val < report.best_val_mse:
            best_vec = p.to_vector().copy()   # Adam updates p in place
            report.best_epoch = epoch
        elif epoch - report.best_epoch >= cfg.patience:
            report.stopped_early = True
            break
    report.wall_seconds = time.monotonic() - t0
    return p.from_vector(best_vec), report


def grid_search(data: ExampleSet, cfg: TrainConfig):
    """One full training run per distinct memory size in the grid, in order
    of first appearance; the k-th (from 0) is seeded cfg.seed + k.

    Returns (best params, best TrainReport, {memory_size: TrainReport}).
    Divergent cells are skipped; ties go to the earlier memory size.
    """
    reports = {}
    best = None
    for k, m in enumerate(dict.fromkeys(cfg.memory_size_grid)):
        cell_cfg = replace(cfg, memory_size=m, seed=cfg.seed + k)
        try:
            params, rep = train(data, cell_cfg)
        except TrainingError:
            reports[m] = None
            continue
        reports[m] = rep
        if best is None or rep.best_val_mse < best[1].best_val_mse:
            best = (params, rep)
    if best is None:
        raise TrainingError("every grid cell diverged")
    return best[0], best[1], reports
