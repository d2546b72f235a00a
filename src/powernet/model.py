"""The forecasting network: a stacked LSTM over the consumption window,
an MLP over the 18 weather/calendar features, and a feed-forward regression
head over the concatenated encodings.

Forward and backward passes are hand-derived (backpropagation through time
for the recurrence) and operate on batches; gradients are exact and checked
against central finite differences in the test suite.

One time-major step, ``_lstm_step``, advances every stacked layer; it is
the only LSTM recurrence. ``forward_batch`` runs the fusion MLP, that step
over the window, then the head. With ``train=True`` the step records the
per-layer trace that ``backward_batch`` reads, and dropout applies.
Inference (``train=False``) and recursive forecasting call the same step
without a trace, holding one (B, m) state per layer, so memory does not
grow with the window; inference returns ``(yhat, None)``, bitwise equal
to train mode at dropout 0.

All weights live in one contiguous float64 vector, and every weight array is
a view into it. Gradients use the same layout, so the optimizer and the
finite-difference checker work on plain vectors; ``to_vector`` returns the
vector itself and ``from_vector`` wraps a vector without copying, so the
new parameters share its memory.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .numcore import sigmoid, relu, relu_grad, ShapeError

CHECKPOINT_FORMAT_VERSION = 1


@dataclass
class LstmLayerParams:
    """One LSTM layer; gate rows are stacked [i, f, g, o], each m rows."""

    w_x: np.ndarray   # (4m, input_dim)
    w_h: np.ndarray   # (4m, m)
    b: np.ndarray     # (4m,)

    @property
    def m(self) -> int:
        return self.w_h.shape[1]


def param_layout(m: int, d1: int, d2: int, d3: int, stack: int = 2,
                 n_aux_features: int = 18) -> tuple:
    """(name, start, stop, shape) of every parameter in the flat vector:
    the stacked LSTM layers bottom first, then w1, b1, ..., w4, b4."""
    shapes = []
    input_dim = 1
    for k in range(stack):
        shapes += [(f"lstm{k}.w_x", (4 * m, input_dim)),
                   (f"lstm{k}.w_h", (4 * m, m)), (f"lstm{k}.b", (4 * m,))]
        input_dim = m
    shapes += [("w1", (d1, n_aux_features)), ("b1", (d1,)),
               ("w2", (d2, d1)), ("b2", (d2,)),
               ("w3", (d3, m + d2)), ("b3", (d3,)), ("w4", (d3,)), ("b4", (1,))]
    layout = []
    start = 0
    for name, shape in shapes:
        stop = start + math.prod(shape)
        layout.append((name, start, stop, shape))
        start = stop
    return tuple(layout)


class PowerNetParams:
    """All trainable weights: ``vec`` laid out by ``layout``, with every
    weight array a view into it. Write into the views (``p.w1[:] = ...``);
    rebinding an attribute detaches it from ``vec``."""

    def __init__(self, vec: np.ndarray, layout: tuple):
        self.vec = vec
        self.layout = layout
        self._views = [vec[start:stop].reshape(shape)
                       for _, start, stop, shape in layout]
        n = len(self._views) - 8
        self.lstm = [LstmLayerParams(*self._views[k:k + 3])
                     for k in range(0, n, 3)]
        (self.w1, self.b1, self.w2, self.b2, self.w3, self.b3, self.w4,
         self._b4) = self._views[n:]

    @property
    def b4(self) -> float:
        return float(self._b4[0])

    @b4.setter
    def b4(self, value: float):
        self._b4[0] = value

    @property
    def m(self) -> int:
        return self.lstm[-1].m

    def arrays(self):
        """(name, view) pairs in layout order; b4 is a 1-vector."""
        return [(entry[0], view) for entry, view in zip(self.layout, self._views)]

    def to_vector(self) -> np.ndarray:
        """The parameter vector itself, not a copy."""
        return self.vec

    def from_vector(self, vec: np.ndarray) -> "PowerNetParams":
        """Params with the same layout whose views share ``vec``'s memory."""
        vec = np.ascontiguousarray(vec, dtype=np.float64)
        if vec.shape != self.vec.shape:
            raise ShapeError(f"vector has shape {vec.shape}, params need {self.vec.shape}")
        return PowerNetParams(vec, self.layout)

    def zeros_like(self) -> "PowerNetParams":
        return PowerNetParams(np.zeros(self.vec.size), self.layout)


def _xavier(rng, w):
    """Fill the 2-D view ``w`` with Xavier-uniform draws."""
    rows, cols = w.shape
    bound = np.sqrt(6.0 / (rows + cols))
    w[:] = rng.uniform(-bound, bound, size=(rows, cols))


def init_params(m: int, d1: int, d2: int, d3: int, seed: int = 0,
                stack: int = 2, n_aux_features: int = 18) -> PowerNetParams:
    """Xavier-uniform weights, zero biases except forget-gate bias = 1."""
    rng = np.random.default_rng(seed)
    layout = param_layout(m, d1, d2, d3, stack, n_aux_features)
    p = PowerNetParams(np.zeros(layout[-1][2]), layout)
    for layer in p.lstm:
        _xavier(rng, layer.w_x)
        _xavier(rng, layer.w_h)
        layer.b[m:2 * m] = 1.0   # forget-gate block
    for w in (p.w1, p.w2, p.w3, p.w4[None, :]):
        _xavier(rng, w)
    return p


@dataclass
class _LstmTrace:
    x: list          # per-t layer input (B, in)
    i: list
    f: list
    g: list
    o: list
    c: list          # c_t
    c_prev: list
    h_prev: list
    tanh_c: list


@dataclass
class ForwardTrace:
    """Everything the backward pass needs from one forward evaluation."""

    layers: list            # _LstmTrace per stacked layer
    h_final: np.ndarray     # (B, m)
    u: np.ndarray           # (B, 18) MLP input
    s1: np.ndarray
    a1d: np.ndarray
    s2: np.ndarray
    z: np.ndarray           # (B, m + d2) head input
    zd: np.ndarray
    s3: np.ndarray
    rd: np.ndarray
    mask2: np.ndarray | None
    mask3: np.ndarray | None
    mask4: np.ndarray | None


def _layer_weights(layers: list) -> list:
    """(w_x.T, w_h.T, b, m) per layer, as ``_lstm_step`` takes them."""
    return [(layer.w_x.T, layer.w_h.T, layer.b, layer.m) for layer in layers]


def _lstm_step(x: np.ndarray, h: list, c: list, weights: list, traces=None):
    """Advance every layer one time step on the layer-0 input ``x`` (B, 1)
    or (1, 1), which broadcasts over the rows. ``h`` and ``c`` hold each
    layer's (B, m) state and are rebound in place to the new state.
    ``traces``, one ``_LstmTrace`` per layer or None, gets this step
    appended for the backward pass."""
    for k, (wx_t, wh_t, b, m) in enumerate(weights):
        z = x @ wx_t + h[k] @ wh_t + b
        s = sigmoid(z)   # one sigmoid for the block; i, f and o are views
        i, f, o = s[:, :m], s[:, m:2 * m], s[:, 3 * m:]
        g = np.tanh(z[:, 2 * m:3 * m])
        c_t = f * c[k] + i * g
        tanh_c = np.tanh(c_t)
        h_t = o * tanh_c
        if traces is not None:
            tr = traces[k]
            tr.x.append(x); tr.c_prev.append(c[k]); tr.h_prev.append(h[k])
            # contiguous gate copies keep the backward pass fast
            tr.i.append(i.copy()); tr.f.append(f.copy()); tr.g.append(g)
            tr.o.append(o.copy()); tr.c.append(c_t); tr.tanh_c.append(tanh_c)
        c[k], h[k] = c_t, h_t
        x = h_t


def _lstm_run(E: np.ndarray, layers: list, traces=None) -> np.ndarray:
    """Final top-layer hidden state (B, m) for the (B, T) windows ``E``,
    run through ``_lstm_step``, which records each step into ``traces``."""
    B = E.shape[0]
    weights = _layer_weights(layers)
    h = [np.zeros((B, layer.m)) for layer in layers]
    c = [np.zeros((B, layer.m)) for layer in layers]
    for t in range(E.shape[1]):
        _lstm_step(E[:, t:t + 1], h, c, weights, traces)
    return h[-1]


def _lstm_backward(tr: _LstmTrace, p: LstmLayerParams, dH_ext: np.ndarray,
                   grad: LstmLayerParams) -> np.ndarray:
    """BPTT for one layer; dH_ext is (B, T, m) upstream gradient on each h_t.

    Accumulates the weight gradients into ``grad`` (zero on entry) and
    returns dX, shaped like the layer input.
    """
    T = len(tr.x)
    B, _, m = dH_ext.shape
    dX = np.empty((B, T, p.w_x.shape[1]))
    dh_rec = np.zeros((B, m))
    dc_rec = np.zeros((B, m))
    for t in range(T - 1, -1, -1):
        i, f, g, o = tr.i[t], tr.f[t], tr.g[t], tr.o[t]
        dh = dH_ext[:, t, :] + dh_rec
        dc = dc_rec + dh * o * (1.0 - tr.tanh_c[t] ** 2)
        do = dh * tr.tanh_c[t]
        di = dc * g
        dg = dc * i
        df = dc * tr.c_prev[t]
        dc_rec = dc * f
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g ** 2),
            do * o * (1.0 - o),
        ], axis=1)
        grad.w_x += dz.T @ tr.x[t]
        grad.w_h += dz.T @ tr.h_prev[t]
        grad.b += dz.sum(axis=0)
        dX[:, t, :] = dz @ p.w_x
        dh_rec = dz @ p.w_h
    return dX


def _dropout_mask(rng, shape, rate):
    if rate <= 0.0:
        return None
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def _fusion(u: np.ndarray, p: PowerNetParams, mask2=None):
    """The MLP over the (B, 18) weather/calendar input ``u``; returns
    (s1, a1d, s2, o) with ``o`` its (B, d2) encoding. ``mask2`` is the
    dropout mask on the input of w2, or None."""
    s1 = u @ p.w1.T + p.b1
    a1 = relu(s1)
    a1d = a1 * mask2 if mask2 is not None else a1
    s2 = a1d @ p.w2.T + p.b2
    return s1, a1d, s2, relu(s2)


def _head(h_final: np.ndarray, o: np.ndarray, p: PowerNetParams,
          mask3=None, mask4=None):
    """The regression head over the LSTM state (B, m) and the fusion
    encoding (B, d2); returns (z, zd, s3, rd, yhat (B,)). ``mask3`` and
    ``mask4`` are the dropout masks on the inputs of w3 and w4, or None."""
    z = np.concatenate([h_final, o], axis=1)
    zd = z * mask3 if mask3 is not None else z
    s3 = zd @ p.w3.T + p.b3
    r = relu(s3)
    rd = r * mask4 if mask4 is not None else r
    return z, zd, s3, rd, rd @ p.w4 + p.b4


def forward_batch(E: np.ndarray, fw: np.ndarray, fc: np.ndarray,
                  p: PowerNetParams, dropout_rate: float = 0.0,
                  train: bool = False, rng=None):
    """Batched forward pass; returns (yhat (B,), trace).

    ``train=True`` records the ForwardTrace that ``backward_batch`` needs
    and applies inverted-dropout masks to the inputs of the w2, w3 and w4
    layers when ``dropout_rate > 0``. ``train=False`` is inference: no
    masks, no rng, no trace (None), and the LSTM keeps only its current
    state. Both modes run the same LSTM step and give bitwise equal
    ``yhat`` at dropout 0.
    """
    if not 0.0 <= dropout_rate < 1.0:
        raise ValueError("dropout_rate must be in [0, 1)")
    E = np.asarray(E, dtype=np.float64)
    if E.ndim != 2 or E.shape[1] < 1:
        raise ShapeError(f"E must be (B, T) with T >= 1, got {E.shape}")
    B = E.shape[0]
    use_dropout = train and dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ValueError("train-mode dropout needs an rng")
    u = np.concatenate([np.asarray(fw, dtype=np.float64),
                        np.asarray(fc, dtype=np.float64)], axis=1)
    if u.shape != (B, p.w1.shape[1]):
        raise ShapeError(f"fusion input is {u.shape}, expected {(B, p.w1.shape[1])}")

    # masks on the inputs of w2, w3 and w4, drawn in that order
    shapes = ((B, p.w1.shape[0]), (B, p.w3.shape[1]), (B, p.w3.shape[0]))
    mask2, mask3, mask4 = ([_dropout_mask(rng, s, dropout_rate) for s in shapes]
                           if use_dropout else [None] * 3)
    s1, a1d, s2, o = _fusion(u, p, mask2)
    traces = ([_LstmTrace([], [], [], [], [], [], [], [], []) for _ in p.lstm]
              if train else None)
    h_final = _lstm_run(E, p.lstm, traces)
    z, zd, s3, rd, yhat = _head(h_final, o, p, mask3, mask4)
    trace = (ForwardTrace(layers=traces, h_final=h_final, u=u, s1=s1,
                          a1d=a1d, s2=s2, z=z, zd=zd, s3=s3, rd=rd,
                          mask2=mask2, mask3=mask3, mask4=mask4)
             if train else None)
    return yhat, trace


def backward_batch(trace: ForwardTrace, dyhat: np.ndarray,
                   p: PowerNetParams) -> PowerNetParams:
    """Exact gradients of sum_b dyhat_b * yhat_b w.r.t. every parameter."""
    dyhat = np.asarray(dyhat, dtype=np.float64)
    B = dyhat.shape[0]
    m = p.m
    grads = p.zeros_like()

    grads.w4[:] = trace.rd.T @ dyhat
    grads.b4 = dyhat.sum()
    dr = dyhat[:, None] * p.w4[None, :]
    if trace.mask4 is not None:
        dr = dr * trace.mask4
    ds3 = dr * relu_grad(trace.s3)
    grads.w3[:] = ds3.T @ trace.zd
    grads.b3[:] = ds3.sum(axis=0)
    dz = ds3 @ p.w3
    if trace.mask3 is not None:
        dz = dz * trace.mask3
    dh_final = dz[:, :m]
    do = dz[:, m:]

    ds2 = do * relu_grad(trace.s2)
    grads.w2[:] = ds2.T @ trace.a1d
    grads.b2[:] = ds2.sum(axis=0)
    da1 = ds2 @ p.w2
    if trace.mask2 is not None:
        da1 = da1 * trace.mask2
    ds1 = da1 * relu_grad(trace.s1)
    grads.w1[:] = ds1.T @ trace.u
    grads.b1[:] = ds1.sum(axis=0)

    T = len(trace.layers[0].x)
    dH_ext = np.zeros((B, T, m))
    dH_ext[:, -1, :] = dh_final
    for k in range(len(p.lstm) - 1, -1, -1):
        dH_ext = _lstm_backward(trace.layers[k], p.lstm[k], dH_ext,
                                grads.lstm[k])
    return grads


# checkpoint serialization ---------------------------------------------------

def checkpoint_to_json(p: PowerNetParams, hyper: dict, feature_spec: dict,
                       seed: int) -> str:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model_type": "powernet",
        "hyperparameters": hyper,
        "seed": seed,
        "feature_spec": feature_spec,
        "params": {name: {"shape": list(a.shape), "data": a.ravel().tolist()}
                   for name, a in p.arrays()},
        "stack": len(p.lstm),
    }
    return json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)


def checkpoint_from_json(text: str):
    """Returns (params, hyperparameters, feature_spec_doc, seed)."""
    return checkpoint_from_dict(json.loads(text))


def checkpoint_from_dict(doc: dict):
    """checkpoint_from_json on an already parsed document."""
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('format_version')}")
    raw = doc["params"]
    shapes = {name: tuple(entry["shape"]) for name, entry in raw.items()}
    _, m = shapes["lstm0.w_h"]
    (d1, _), (d2, _), (d3, _) = shapes["w1"], shapes["w2"], shapes["w3"]
    stack = doc["stack"]
    if len(shapes) != 3 * stack + 8:
        raise ValueError(f"stack {stack} does not fit {len(shapes)} parameters")
    layout = param_layout(m, d1, d2, d3, stack)
    expected = {name: shape for name, _, _, shape in layout}
    if shapes != expected:
        name = min(set(shapes) ^ set(expected)
                   or {n for n in expected if shapes[n] != expected[n]})
        raise ValueError(f"parameter {name} does not fit a {stack}-layer network "
                         f"with m={m}, d1={d1}, d2={d2}, d3={d3}")
    vec = np.concatenate([
        np.asarray(raw[name]["data"], dtype=np.float64).reshape(stop - start)
        for name, start, stop, _ in layout])
    for name, start, stop, _ in layout:
        if not np.isfinite(vec[start:stop]).all():
            raise ValueError(f"parameter {name} has a non-finite value")
    return (PowerNetParams(vec, layout), doc["hyperparameters"],
            doc["feature_spec"], doc["seed"])
