"""The forecasting network: a stacked LSTM over the consumption window,
an MLP over the 18 weather/calendar features, and a feed-forward regression
head over the concatenated encodings.

Forward and backward passes are hand-derived (backpropagation through time
for the recurrence) and operate on batches; gradients are exact and checked
against central finite differences in the test suite.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .numcore import sigmoid, relu, relu_grad, ShapeError

GATE_ORDER = "ifgo"   # input, forget, candidate, output blocks of the 4m rows

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

    @property
    def input_dim(self) -> int:
        return self.w_x.shape[1]


@dataclass
class PowerNetParams:
    """All trainable weights of the network."""

    lstm: list            # stacked LstmLayerParams, bottom first
    w1: np.ndarray        # (d1, 18)
    b1: np.ndarray
    w2: np.ndarray        # (d2, d1)
    b2: np.ndarray
    w3: np.ndarray        # (d3, m + d2)
    b3: np.ndarray
    w4: np.ndarray        # (d3,)
    b4: float

    @property
    def m(self) -> int:
        return self.lstm[-1].m

    def arrays(self):
        """(name, array) pairs in a fixed order; b4 is exposed as a 1-vector."""
        out = []
        for k, layer in enumerate(self.lstm):
            out += [(f"lstm{k}.w_x", layer.w_x), (f"lstm{k}.w_h", layer.w_h),
                    (f"lstm{k}.b", layer.b)]
        out += [("w1", self.w1), ("b1", self.b1), ("w2", self.w2), ("b2", self.b2),
                ("w3", self.w3), ("b3", self.b3), ("w4", self.w4),
                ("b4", np.array([self.b4]))]
        return out

    def to_vector(self) -> np.ndarray:
        return np.concatenate([a.ravel() for _, a in self.arrays()])

    def from_vector(self, vec: np.ndarray) -> "PowerNetParams":
        """New params with the same shapes, values taken from a flat vector."""
        vec = np.asarray(vec, dtype=np.float64)
        pieces = {}
        offset = 0
        for name, a in self.arrays():
            pieces[name] = vec[offset:offset + a.size].reshape(a.shape).copy()
            offset += a.size
        if offset != vec.size:
            raise ShapeError(f"vector has {vec.size} entries, params need {offset}")
        lstm = [LstmLayerParams(w_x=pieces[f"lstm{k}.w_x"],
                                w_h=pieces[f"lstm{k}.w_h"],
                                b=pieces[f"lstm{k}.b"])
                for k in range(len(self.lstm))]
        return PowerNetParams(lstm=lstm, w1=pieces["w1"], b1=pieces["b1"],
                              w2=pieces["w2"], b2=pieces["b2"],
                              w3=pieces["w3"], b3=pieces["b3"],
                              w4=pieces["w4"], b4=float(pieces["b4"][0]))

    def zeros_like(self) -> "PowerNetParams":
        return self.from_vector(np.zeros(self.to_vector().size))


def _xavier(rng, rows, cols):
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_params(m: int, d1: int, d2: int, d3: int, seed: int = 0,
                stack: int = 2, n_aux_features: int = 18) -> PowerNetParams:
    """Xavier-uniform weights, zero biases except forget-gate bias = 1."""
    rng = np.random.default_rng(seed)
    lstm = []
    input_dim = 1
    for _ in range(stack):
        b = np.zeros(4 * m)
        b[m:2 * m] = 1.0   # forget-gate block
        lstm.append(LstmLayerParams(
            w_x=_xavier(rng, 4 * m, input_dim),
            w_h=_xavier(rng, 4 * m, m),
            b=b,
        ))
        input_dim = m
    return PowerNetParams(
        lstm=lstm,
        w1=_xavier(rng, d1, n_aux_features), b1=np.zeros(d1),
        w2=_xavier(rng, d2, d1), b2=np.zeros(d2),
        w3=_xavier(rng, d3, m + d2), b3=np.zeros(d3),
        w4=_xavier(rng, 1, d3)[0], b4=0.0,
    )


def lstm_step(x_t, h_prev, c_prev, p: LstmLayerParams):
    """Single-example LSTM cell update; returns (h_t, c_t)."""
    x_t = np.atleast_1d(np.asarray(x_t, dtype=np.float64))
    z = p.w_x @ x_t + p.w_h @ h_prev + p.b
    m = p.m
    i = sigmoid(z[:m])
    f = sigmoid(z[m:2 * m])
    g = np.tanh(z[2 * m:3 * m])
    o = sigmoid(z[3 * m:])
    c_t = f * c_prev + i * g
    h_t = o * np.tanh(c_t)
    return h_t, c_t


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


def _lstm_forward(X: np.ndarray, p: LstmLayerParams):
    """Run one layer over (B, T, in) input; returns (H (B,T,m), trace)."""
    B, T, _ = X.shape
    m = p.m
    h = np.zeros((B, m))
    c = np.zeros((B, m))
    tr = _LstmTrace([], [], [], [], [], [], [], [], [])
    H = np.empty((B, T, m))
    wx_t = p.w_x.T
    wh_t = p.w_h.T
    for t in range(T):
        x_t = X[:, t, :]
        z = x_t @ wx_t + h @ wh_t + p.b
        i = sigmoid(z[:, :m])
        f = sigmoid(z[:, m:2 * m])
        g = np.tanh(z[:, 2 * m:3 * m])
        o = sigmoid(z[:, 3 * m:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        tr.x.append(x_t)
        tr.i.append(i); tr.f.append(f); tr.g.append(g); tr.o.append(o)
        tr.c.append(c_new); tr.c_prev.append(c); tr.h_prev.append(h)
        tr.tanh_c.append(tanh_c)
        H[:, t, :] = h_new
        h, c = h_new, c_new
    return H, tr


def _lstm_backward(tr: _LstmTrace, p: LstmLayerParams, dH_ext: np.ndarray):
    """BPTT for one layer; dH_ext is (B, T, m) upstream gradient on each h_t.

    Returns (dw_x, dw_h, db, dX) with dX shaped like the layer input.
    """
    T = len(tr.x)
    B, _, m = dH_ext.shape
    dw_x = np.zeros_like(p.w_x)
    dw_h = np.zeros_like(p.w_h)
    db = np.zeros_like(p.b)
    dX = np.empty((B, T, p.input_dim))
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
        dw_x += dz.T @ tr.x[t]
        dw_h += dz.T @ tr.h_prev[t]
        db += dz.sum(axis=0)
        dX[:, t, :] = dz @ p.w_x
        dh_rec = dz @ p.w_h
    return dw_x, dw_h, db, dX


def _dropout_mask(rng, shape, rate):
    if rate <= 0.0:
        return None
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def forward_batch(E: np.ndarray, fw: np.ndarray, fc: np.ndarray,
                  p: PowerNetParams, dropout_rate: float = 0.0,
                  train: bool = False, rng=None):
    """Batched forward pass; returns (yhat (B,), ForwardTrace).

    In train mode inverted-dropout masks are applied to the inputs of the
    w2, w3 and w4 layers; inference applies no masks and needs no rng.
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

    X = E[:, :, None]
    layer_traces = []
    for layer in p.lstm:
        X, tr = _lstm_forward(X, layer)
        layer_traces.append(tr)
    h_final = X[:, -1, :]

    u = np.concatenate([np.asarray(fw, dtype=np.float64),
                        np.asarray(fc, dtype=np.float64)], axis=1)
    s1 = u @ p.w1.T + p.b1
    a1 = relu(s1)
    mask2 = _dropout_mask(rng, a1.shape, dropout_rate) if use_dropout else None
    a1d = a1 * mask2 if mask2 is not None else a1
    s2 = a1d @ p.w2.T + p.b2
    o = relu(s2)

    z = np.concatenate([h_final, o], axis=1)
    mask3 = _dropout_mask(rng, z.shape, dropout_rate) if use_dropout else None
    zd = z * mask3 if mask3 is not None else z
    s3 = zd @ p.w3.T + p.b3
    r = relu(s3)
    mask4 = _dropout_mask(rng, r.shape, dropout_rate) if use_dropout else None
    rd = r * mask4 if mask4 is not None else r
    yhat = rd @ p.w4 + p.b4

    trace = ForwardTrace(layers=layer_traces, h_final=h_final, u=u, s1=s1,
                         a1d=a1d, s2=s2, z=z, zd=zd, s3=s3, rd=rd,
                         mask2=mask2, mask3=mask3, mask4=mask4)
    return yhat, trace


def backward_batch(trace: ForwardTrace, dyhat: np.ndarray,
                   p: PowerNetParams) -> PowerNetParams:
    """Exact gradients of sum_b dyhat_b * yhat_b w.r.t. every parameter."""
    dyhat = np.asarray(dyhat, dtype=np.float64)
    B = dyhat.shape[0]
    m = p.m

    dw4 = trace.rd.T @ dyhat
    db4 = float(dyhat.sum())
    dr = dyhat[:, None] * p.w4[None, :]
    if trace.mask4 is not None:
        dr = dr * trace.mask4
    ds3 = dr * relu_grad(trace.s3)
    dw3 = ds3.T @ trace.zd
    db3 = ds3.sum(axis=0)
    dz = ds3 @ p.w3
    if trace.mask3 is not None:
        dz = dz * trace.mask3
    dh_final = dz[:, :m]
    do = dz[:, m:]

    ds2 = do * relu_grad(trace.s2)
    dw2 = ds2.T @ trace.a1d
    db2 = ds2.sum(axis=0)
    da1 = ds2 @ p.w2
    if trace.mask2 is not None:
        da1 = da1 * trace.mask2
    ds1 = da1 * relu_grad(trace.s1)
    dw1 = ds1.T @ trace.u
    db1 = ds1.sum(axis=0)

    T = len(trace.layers[0].x)
    dH_ext = np.zeros((B, T, m))
    dH_ext[:, -1, :] = dh_final
    lstm_grads = [None] * len(p.lstm)
    for k in range(len(p.lstm) - 1, -1, -1):
        dwx, dwh, dbv, dX = _lstm_backward(trace.layers[k], p.lstm[k], dH_ext)
        lstm_grads[k] = LstmLayerParams(w_x=dwx, w_h=dwh, b=dbv)
        dH_ext = dX

    return PowerNetParams(lstm=lstm_grads, w1=dw1, b1=db1, w2=dw2, b2=db2,
                          w3=dw3, b3=db3, w4=dw4, b4=db4)


# single-example conveniences ------------------------------------------------

def encode(E, p: PowerNetParams):
    """Encode one consumption window; returns (h_final (m,), trace)."""
    E = np.asarray(E, dtype=np.float64)
    if E.ndim != 1 or len(E) < 1:
        raise ShapeError("encode expects a non-empty 1-D sequence")
    X = E[None, :, None]
    traces = []
    for layer in p.lstm:
        X, tr = _lstm_forward(X, layer)
        traces.append(tr)
    return X[0, -1, :], traces


def fuse(f_w, f_c, p: PowerNetParams):
    """Weather/calendar fusion MLP; returns (o (d2,), trace)."""
    u = np.concatenate([np.asarray(f_w, dtype=np.float64),
                        np.asarray(f_c, dtype=np.float64)])
    if len(u) != p.w1.shape[1]:
        raise ShapeError(f"fusion input has {len(u)} features, expected {p.w1.shape[1]}")
    s1 = p.w1 @ u + p.b1
    a1 = relu(s1)
    s2 = p.w2 @ a1 + p.b2
    return relu(s2), (s1, s2)


def predict_head(h_final, o, p: PowerNetParams) -> float:
    """Regression head on the concatenated encodings."""
    z = np.concatenate([h_final, o])
    if len(z) != p.w3.shape[1]:
        raise ShapeError(f"head input has {len(z)} entries, expected {p.w3.shape[1]}")
    r = relu(p.w3 @ z + p.b3)
    return float(p.w4 @ r + p.b4)


def forward(E, f_w, f_c, p: PowerNetParams, dropout_rate: float = 0.0,
            mode: str = "infer", rng_seed: int = 0):
    """Single-example forward; deterministic given rng_seed in train mode."""
    if mode not in ("train", "infer"):
        raise ValueError(f"unknown mode {mode!r}")
    rng = np.random.default_rng(rng_seed) if mode == "train" else None
    yhat, trace = forward_batch(
        np.asarray(E, dtype=np.float64)[None, :],
        np.asarray(f_w, dtype=np.float64)[None, :],
        np.asarray(f_c, dtype=np.float64)[None, :],
        p, dropout_rate=dropout_rate, train=(mode == "train"), rng=rng)
    return float(yhat[0]), trace


# checkpoint serialization ---------------------------------------------------

def checkpoint_to_json(p: PowerNetParams, hyper: dict, feature_spec_doc,
                       seed: int) -> str:
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model_type": "powernet",
        "hyperparameters": hyper,
        "seed": seed,
        "feature_spec": json.loads(feature_spec_doc) if isinstance(feature_spec_doc, str) else feature_spec_doc,
        "params": {name: {"shape": list(a.shape), "data": a.ravel().tolist()}
                   for name, a in p.arrays()},
        "stack": len(p.lstm),
    }
    return json.dumps(doc, indent=1, sort_keys=True)


def checkpoint_from_json(text: str):
    """Returns (params, hyperparameters, feature_spec_doc, seed)."""
    return checkpoint_from_dict(json.loads(text))


def checkpoint_from_dict(doc: dict):
    """checkpoint_from_json on an already parsed document."""
    if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('format_version')}")
    raw = doc["params"]

    def arr(name):
        entry = raw[name]
        return np.asarray(entry["data"], dtype=np.float64).reshape(entry["shape"])

    lstm = []
    for k in range(doc["stack"]):
        lstm.append(LstmLayerParams(w_x=arr(f"lstm{k}.w_x"),
                                    w_h=arr(f"lstm{k}.w_h"),
                                    b=arr(f"lstm{k}.b")))
    p = PowerNetParams(lstm=lstm, w1=arr("w1"), b1=arr("b1"),
                       w2=arr("w2"), b2=arr("b2"), w3=arr("w3"), b3=arr("b3"),
                       w4=arr("w4"), b4=float(arr("b4")[0]))
    return p, doc["hyperparameters"], doc["feature_spec"], doc["seed"]
