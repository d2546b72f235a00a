"""ReLU and its gradient, the shape error and a finite-difference
gradient checker. (The LSTM computes its sigmoid gates from one tanh in
``model``.)

All numeric state lives in float64 numpy arrays. Functions allocate fresh
outputs and never mutate their inputs.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


def as_vector(data) -> np.ndarray:
    a = np.asarray(data, dtype=np.float64)
    if a.ndim != 1:
        raise ShapeError(f"expected a 1-D vector, got shape {a.shape}")
    return a


def relu(x):
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def relu_grad(pre_activation):
    # Subgradient at exactly 0 is taken as 0, matching the forward pass.
    return (np.asarray(pre_activation) > 0.0).astype(np.float64)


def grad_check(f: Callable[[np.ndarray], float], p, analytic_grad,
               eps: float = 1e-5, refine: int = 3) -> float:
    """Max relative error between central differences of ``f`` and the
    supplied analytic gradient.

    Per-coordinate error is |fd - an| / max(1, |fd|, |an|); the max over
    all coordinates is returned. A coordinate whose error looks large is
    re-probed up to ``refine`` times with a 10x smaller step and keeps its
    best estimate: a central difference that happens to straddle a ReLU
    kink (a pre-activation within eps of zero) is wrong by O(1) however
    correct the gradient is, and shrinking the step moves the probe off
    the kink while staying above the roundoff floor.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    p = as_vector(p).copy()
    analytic = as_vector(analytic_grad)
    if analytic.shape != p.shape:
        raise ShapeError(f"gradient shape {analytic.shape} != param shape {p.shape}")

    def probe(i, h):
        orig = p[i]
        p[i] = orig + h
        f_plus = float(f(p))
        p[i] = orig - h
        f_minus = float(f(p))
        p[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise FloatingPointError(f"non-finite evaluation at coordinate {i}")
        fd = (f_plus - f_minus) / (2.0 * h)
        return abs(fd - analytic[i]) / max(1.0, abs(fd), abs(analytic[i]))

    worst = 0.0
    for i in range(p.size):
        err = probe(i, eps)
        h = eps
        for _ in range(refine):
            if err <= 1e-6:
                break
            h /= 10.0
            err = min(err, probe(i, h))
        worst = max(worst, err)
    return worst
