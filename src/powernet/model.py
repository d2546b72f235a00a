"""The forecasting network: a stacked LSTM over the consumption window,
an MLP over the 18 weather/calendar features, and a feed-forward regression
head over the concatenated encodings.

Forward and backward passes are hand-derived (backpropagation through time
for the recurrence) and operate on batches; gradients are exact and checked
against central finite differences in the test suite.

All weights live in one contiguous float64 vector, and every weight array is
a view into it. Each LSTM layer is stored as the one block its step
multiplies, w = [w_x | w_h | b], with its gate rows in the order
[i, f, o, g] so that the three sigmoid gates form one block. Gradients use
the same layout, so the optimizer and the finite-difference checker work on
plain vectors; ``to_vector`` returns the vector itself and ``from_vector``
wraps a vector without copying, so the new parameters share its memory.
Only the model's outer boundary sees the paper's gate order [i, f, g, o]:
``init_params`` draws in it, and ``PowerNetParams.arrays`` and so the
checkpoint hold it.

One time-major step, ``_lstm_step``, advances every stacked layer; it is
the only LSTM recurrence. ``forward_batch`` runs the fusion MLP, that step
over the window, then the head. Each layer keeps a stacked operand
[x; h; 1] with one column per window and multiplies its block by it. The
i, f and o rows of the (4m, B) product are halved, and one tanh then gives
g directly and the sigmoid gates as sigmoid(z) = 1/2 + tanh(z/2)/2; c and h
are then written in place, h straight into the operand of the next step
and of the layer above.

With ``train=True`` the step records into time-major trace arrays that
hold every step's operand and gates, and dropout applies; ``train`` keeps
one set of those arrays, with the backward pass's scratch, and reuses it
for every batch. ``backward_batch`` makes one product per layer-step for
[dW_x | dW_h | db], added into the gradient's block, and one for
[dx; dh]. Inference (``train=False``) and ``forward_recursive`` run the
same step on one step of those arrays, holding only the current state, so
memory does not grow with the window, and bind that step's views once per
call instead of once per step; inference returns ``(yhat, None)``, bitwise
equal to train mode at dropout 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .features import N_AUX_FEATURES
from .numcore import (OBJECT, InputError, array, check, integer, items, one_of,
                      real, relu, relu_grad)

CHECKPOINT_FORMAT_VERSION = 1


class LstmLayerParams:
    """One LSTM layer: ``w`` is its block [w_x | w_h | b], (4m, in + m + 1)
    with gate rows stacked [i, f, o, g], each m rows; ``w_x``, ``w_h`` and
    ``b`` are views of it."""

    def __init__(self, w: np.ndarray):
        self.w = w
        self.m = m = w.shape[0] // 4
        self.w_x, self.w_h, self.b = w[:, :-m - 1], w[:, -m - 1:-1], w[:, -1]


def _document_rows(m: int) -> np.ndarray:
    """The row index that takes gate-stacked rows from the kernel's
    [i, f, o, g] to the paper's [i, f, g, o], and back: the swap is its own
    inverse."""
    return np.r_[:2 * m, 3 * m:4 * m, 2 * m:3 * m]


def param_layout(m: int, d1: int, d2: int, d3: int, stack: int = 2) -> tuple:
    """(name, start, stop, shape) of every parameter in the flat vector:
    the stacked LSTM layers' blocks bottom first, then w1, b1, ..., w4, b4."""
    shapes = [(f"lstm{k}.w", (4 * m, (m if k else 1) + m + 1)) for k in range(stack)]
    shapes += [("w1", (d1, N_AUX_FEATURES)), ("b1", (d1,)),
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
        self.lstm = [LstmLayerParams(w) for w in self._views[:n]]
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
        """(name, array) pairs as the checkpoint holds them: per LSTM layer,
        copies of w_x, w_h and b with gate rows [i, f, g, o], then views of
        w1, b1, ..., w4, b4 (b4 a 1-vector)."""
        n = len(self.lstm)
        lstm = [(f"lstm{k}.{part}", getattr(layer, part)[_document_rows(layer.m)])
                for k, layer in enumerate(self.lstm) for part in ("w_x", "w_h", "b")]
        return lstm + [(entry[0], view)
                       for entry, view in zip(self.layout[n:], self._views[n:])]

    def to_vector(self) -> np.ndarray:
        """The parameter vector itself, not a copy."""
        return self.vec

    def from_vector(self, vec: np.ndarray) -> "PowerNetParams":
        """Params with the same layout whose views share ``vec``'s memory."""
        vec = np.ascontiguousarray(vec, dtype=np.float64)
        if vec.shape != self.vec.shape:
            raise InputError(f"vector has shape {vec.shape}, params need {self.vec.shape}")
        return PowerNetParams(vec, self.layout)

    def zeros_like(self) -> "PowerNetParams":
        return PowerNetParams(np.zeros(self.vec.size), self.layout)


def _xavier(rng, rows: int, cols: int) -> np.ndarray:
    """A (rows, cols) array of Xavier-uniform draws."""
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_params(m: int, d1: int, d2: int, d3: int, seed: int = 0,
                stack: int = 2) -> PowerNetParams:
    """Xavier-uniform weights, zero biases except forget-gate bias = 1,
    drawn in the order of ``arrays``."""
    rng = np.random.default_rng(seed)
    layout = param_layout(m, d1, d2, d3, stack)
    p = PowerNetParams(np.zeros(layout[-1][2]), layout)
    rows = _document_rows(m)
    for layer in p.lstm:
        layer.w_x[:] = _xavier(rng, *layer.w_x.shape)[rows]
        layer.w_h[:] = _xavier(rng, *layer.w_h.shape)[rows]
        layer.b[m:2 * m] = 1.0   # forget-gate block, in either gate order
    for w in (p.w1, p.w2, p.w3, p.w4[None, :]):
        w[:] = _xavier(rng, *w.shape)
    return p


_BPTT_CHUNK = 16   # steps whose gate derivatives the backward pass takes at once


class _LstmTrace:
    """One layer's buffers for one run, all carved from one array: the
    time-major trace, ``steps`` deep (T + 1 steps for training, one step
    that every time step overwrites for inference), and for training the
    backward pass's scratch. ``w`` is the layer's block itself.

    Each step holds one column per window, so that every block the step
    works on is contiguous: ``op[t]`` is the (in + m + 1, B) operand
    [x_t; h_{t-1}; 1] of the step's one product with ``w``, ``gate[t]``
    (5m, B) holds the activated gates [i; f; o; g] above c_{t-1}, so that
    i*g and f*c_{t-1} are one product, and ``tanh_c[t]`` is tanh(c_t);
    ``prod`` is scratch for [i*g; f*c_{t-1}].
    """

    def __init__(self, layer: LstmLayerParams, steps: int, B: int,
                 train: bool = False, flat=None):
        """Buffers carved from ``flat`` when it is large enough, else from
        a new array (``self.flat`` either way), with h_{-1} = c_{-1} = 0
        and the operand's ones row written; everything else is written
        before it is read."""
        m, n_in = layer.m, layer.w_x.shape[1]
        self.m, self.n_in, self.w = m, n_in, layer.w
        w_op = n_in + m + 1
        fields = [("op", (steps, w_op, B)), ("gate", (steps, 5 * m, B)),
                  ("tanh_c", (max(steps - 1, 1), m, B)), ("prod", (2 * m, B))]
        if train:
            chunk = min(steps - 1, _BPTT_CHUNK)
            fields += [("w_xh", (n_in + m, 4 * m)), ("step_acc", (4 * m, w_op)),
                       ("dxh", (n_in + m, B)), ("dc", (m, B)),
                       ("deriv", (chunk, 4 * m, B)), ("dc_dh", (chunk, m, B)),
                       ("dz", (4 * m, B)), ("tmp", (m, B)), ("dh_sum", (m, B))]
        sizes = [math.prod(shape) for _, shape in fields]
        if flat is None or flat.size < sum(sizes):
            flat = np.empty(sum(sizes))
        self.flat = flat
        start = 0
        for (name, shape), size in zip(fields, sizes):
            setattr(self, name, flat[start:start + size].reshape(shape))
            start += size
        self.op[:, -1] = 1.0
        self.op[0, n_in:-1] = 0.0
        self.gate[0, 4 * m:] = 0.0


@dataclass
class ForwardTrace:
    """Everything the backward pass needs from one forward evaluation."""

    layers: list            # _LstmTrace per stacked layer
    u: np.ndarray           # (B, 18) MLP input
    s1: np.ndarray
    a1d: np.ndarray
    s2: np.ndarray
    zd: np.ndarray          # (B, m + d2) head input after dropout
    s3: np.ndarray
    rd: np.ndarray
    mask2: np.ndarray | None
    mask3: np.ndarray | None
    mask4: np.ndarray | None


def _step_views(traces: list, t: int = 0, t_next: int = 0) -> list:
    """Per layer, the views ``_lstm_step`` works on for one time step that
    reads the operand and gates of step t and writes c_t and h_t into step
    t_next: the weights, the operand, the gate block and its parts, the
    prod scratch and its halves, c, tanh(c), o, h, and the x rows of the
    layer above at step t (None for the top layer). Training binds them
    for every step with t_next = t + 1 and so keeps every step; inference
    binds them once with t = t_next = 0 and works in place."""
    views = []
    for k, tr in enumerate(traces):
        m, gate, prod = tr.m, tr.gate, tr.prod
        views.append((tr.w, tr.op[t], gate[t, :4 * m], gate[t, :3 * m],
                      gate[t, :2 * m], gate[t, 3 * m:], prod, prod[:m], prod[m:],
                      gate[t_next, 4 * m:], tr.tanh_c[t], gate[t, 2 * m:3 * m],
                      tr.op[t_next, tr.n_in:-1],
                      traces[k + 1].op[t, :m] if k + 1 < len(traces) else None))
    return views


def _lstm_step(views: list):
    """Advance every layer one time step on the views of ``_step_views``,
    writing h into the x rows of the layer above. The caller has written
    layer 0's input into the x row of its operand."""
    for w, op, z, s, i_f, g_c, prod, ig, fc, c, tanh_c, o, h, x_next in views:
        np.matmul(w, op, out=z)
        np.multiply(s, 0.5, out=s)      # sigmoid(z) = 1/2 + tanh(z/2)/2
        np.tanh(z, out=z)
        np.multiply(s, 0.5, out=s)
        np.add(s, 0.5, out=s)
        np.multiply(i_f, g_c, out=prod)
        np.add(ig, fc, out=c)
        np.tanh(c, out=tanh_c)
        np.multiply(o, tanh_c, out=h)
        if x_next is not None:
            x_next[...] = h


def _lstm_backward(traces: list, grads: list, dh_final: np.ndarray):
    """BPTT through the stacked layers, one time step at a time from the
    last, top layer first, in the scratch of the training ``traces``.
    ``dh_final`` (B, m) is the upstream gradient on the top layer's last h.
    Arrays hold one column per window, as in the trace.

    ``dz`` is the gradient with respect to the pre-activation
    z = w [x; h_prev; 1]. Each step adds dz [x; h_prev; 1]^T into the
    layer's block in ``grads`` (zero on entry), and [dx; dh] is one product
    with the block's transpose. The activation derivatives
    (sigma (1 - sigma) = s - s^2 for i, f and o, 1 - g^2 for g) and
    o (1 - tanh(c)^2) are taken ``_BPTT_CHUNK`` steps at a time.
    """
    T = len(traces[0].tanh_c)
    m = dh_final.shape[1]
    chunk = len(traces[0].deriv)
    for tr in traces:
        tr.w_xh[...] = tr.w[:, :-1].T   # contiguous, for a faster product
        for a in (tr.dxh, tr.dc):
            a[...] = 0.0
    traces[-1].dxh[-m:] = dh_final.T   # dh of the (absent) step after the last
    top = len(traces) - 1
    for t in range(T - 1, -1, -1):
        j = t % chunk
        if t == T - 1 or j == chunk - 1:   # first step of a chunk, from its end
            for tr in traces:
                gate, d, e = tr.gate[t - j:t + 1], tr.deriv[:j + 1], tr.dc_dh[:j + 1]
                np.multiply(gate[:, :4 * m], gate[:, :4 * m], out=d)
                np.subtract(gate[:, :3 * m], d[:, :3 * m], out=d[:, :3 * m])
                np.subtract(1.0, d[:, 3 * m:], out=d[:, 3 * m:])
                tanh_c = tr.tanh_c[t - j:t + 1]
                np.multiply(tanh_c, tanh_c, out=e)
                np.subtract(1.0, e, out=e)
                np.multiply(e, gate[:, 2 * m:3 * m], out=e)
        for k in range(top, -1, -1):
            tr, gw = traces[k], grads[k].w
            gate, dc, dz, tmp = tr.gate[t], tr.dc, tr.dz, tr.tmp
            dh = tr.dxh[tr.n_in:]
            if k < top:   # plus the gradient on this h as the input above
                dh = np.add(dh, traces[k + 1].dxh[:m], out=tr.dh_sum)
            np.multiply(tr.dc_dh[j], dh, out=tmp)
            np.add(dc, tmp, out=dc)
            # [dc g; dc c_prev; dh tanh(c); dc i] times the derivatives
            np.multiply(dc, gate[3 * m:].reshape(2, m, -1),
                        out=dz[:2 * m].reshape(2, m, -1))
            np.multiply(dh, tr.tanh_c[t], out=dz[2 * m:3 * m])
            np.multiply(dc, gate[:m], out=dz[3 * m:])
            np.multiply(dz, tr.deriv[j], out=dz)
            np.multiply(dc, gate[m:2 * m], out=dc)   # dc for step t - 1
            np.matmul(dz, tr.op[t].T, out=tr.step_acc)
            np.add(gw, tr.step_acc, out=gw)
            np.matmul(tr.w_xh, dz, out=tr.dxh)


def _dropout_mask(rng, shape, rate):
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def _fusion(fw, fc, B: int, p: PowerNetParams, mask2=None):
    """The MLP over the weather/calendar input ``u``, [fw | fc] checked to
    be (B, 18); returns (u, s1, a1d, s2, o) with ``o`` its (B, d2)
    encoding. ``mask2`` is the dropout mask on the input of w2, or None."""
    u = np.concatenate([np.asarray(fw, dtype=np.float64),
                        np.asarray(fc, dtype=np.float64)], axis=1)
    if u.shape != (B, p.w1.shape[1]):
        raise InputError(f"fusion input is {u.shape}, expected {(B, p.w1.shape[1])}")
    s1 = u @ p.w1.T + p.b1
    a1 = relu(s1)
    a1d = a1 * mask2 if mask2 is not None else a1
    s2 = a1d @ p.w2.T + p.b2
    return u, s1, a1d, s2, relu(s2)


def _head(z: np.ndarray, p: PowerNetParams, mask3=None, mask4=None, out=None):
    """The regression head over z = [h | o], the LSTM state (B, m) beside
    the fusion encoding (B, d2); returns (zd, s3, rd, yhat (B,)).
    ``mask3`` and ``mask4`` are the dropout masks on the inputs of w3 and
    w4, or None. ``out``, a (B, d3) and a (B,) buffer, takes s3, then
    relu(s3) in its place, and yhat, for a caller that reads only yhat."""
    zd = z * mask3 if mask3 is not None else z
    s3, y = out or (None, None)
    s3 = np.matmul(zd, p.w3.T, out=s3)
    s3 += p.b3
    r = np.maximum(s3, 0.0, out=None if out is None else s3)
    rd = r * mask4 if mask4 is not None else r
    y = np.matmul(rd, p.w4, out=y)
    y += p.b4
    return zd, s3, rd, y


def forward_batch(E: np.ndarray, fw: np.ndarray, fc: np.ndarray,
                  p: PowerNetParams, dropout_rate: float = 0.0,
                  train: bool = False, rng=None, *, workspace: list | None = None):
    """Batched forward pass; returns (yhat (B,), trace).

    ``train=True`` records the ForwardTrace that ``backward_batch`` needs
    and applies inverted-dropout masks to the inputs of the w2, w3 and w4
    layers when ``dropout_rate > 0``. ``train=False`` is inference: no
    masks, no rng, no trace (None), and the LSTM keeps only its current
    state. Both modes run the same LSTM step and give bitwise equal
    ``yhat`` at dropout 0.

    ``workspace``, a list owned by the caller, keeps the training trace's
    memory between calls: the first call fills it, and later calls whose
    trace fits record into the same arrays instead of allocating new ones.
    The trace a call returns is valid until the next call that uses the
    workspace.
    """
    if not 0.0 <= dropout_rate < 1.0:
        raise InputError("dropout_rate must be in [0, 1)")
    E = np.asarray(E, dtype=np.float64)
    if E.ndim != 2 or E.shape[1] < 1:
        raise InputError(f"E must be (B, T) with T >= 1, got {E.shape}")
    B = E.shape[0]
    use_dropout = train and dropout_rate > 0.0
    if use_dropout and rng is None:
        raise InputError("train-mode dropout needs an rng")

    # masks on the inputs of w2, w3 and w4, drawn in that order
    shapes = ((B, p.w1.shape[0]), (B, p.w3.shape[1]), (B, p.w3.shape[0]))
    mask2, mask3, mask4 = ([_dropout_mask(rng, s, dropout_rate) for s in shapes]
                           if use_dropout else [None] * 3)
    u, s1, a1d, s2, o = _fusion(fw, fc, B, p, mask2)
    T = E.shape[1]
    if train:   # time step t reads trace step t and writes t + 1: all kept
        traces = _training_traces(p.lstm, B, T, workspace)
    else:       # every time step reads and overwrites the one trace step
        traces = [_LstmTrace(layer, 1, B) for layer in p.lstm]
    x, keep = traces[0].op[:, 0], int(train)
    views = None if train else _step_views(traces)
    for t in range(T):
        x[keep * t] = E[:, t]
        _lstm_step(views or _step_views(traces, t, t + 1))
    top = traces[-1]
    z = np.concatenate([top.op[keep * T, top.n_in:-1].T, o], axis=1)
    zd, s3, rd, yhat = _head(z, p, mask3, mask4)
    trace = (ForwardTrace(layers=traces, u=u, s1=s1, a1d=a1d, s2=s2, zd=zd,
                          s3=s3, rd=rd, mask2=mask2, mask3=mask3, mask4=mask4)
             if train else None)
    return yhat, trace


def _training_traces(layers: list, B: int, T: int, workspace) -> list:
    """Training traces for B windows of T steps: the workspace's, pointed
    at the layers' blocks, when they have these shapes; otherwise new ones,
    carved from the workspace's arrays where those are large enough, which
    the workspace then keeps."""
    kept = workspace if workspace and len(workspace) == len(layers) else []
    if kept and all(tr.op.shape == (T + 1, layer.w.shape[1], B)
                    for tr, layer in zip(kept, layers)):
        for tr, layer in zip(kept, layers):
            tr.w = layer.w
        return list(kept)
    flats = [tr.flat for tr in kept] or [None] * len(layers)
    traces = [_LstmTrace(layer, T + 1, B, True, flat)
              for layer, flat in zip(layers, flats)]
    if workspace is not None:
        workspace[:] = traces
    return traces


def forward_recursive(history: np.ndarray, fw: np.ndarray, fc: np.ndarray,
                      p: PowerNetParams, feed) -> np.ndarray:
    """Predictions yhat (H,) for the H hours after the normalized window
    ``history`` (n,), with ``fw`` and ``fc`` the H hours' fusion features
    as in ``forward_batch``; ``feed(yhat_j)`` returns the normalized input
    that follows hour j.

    Hour j is predicted from the window of inputs j .. j+n-1, where the
    first n inputs are ``history`` and input n+j is ``feed`` of the
    prediction of hour j. All windows in flight at a step read the same
    input, so the n of them advance together as the columns of one
    n-column LSTM state per layer, used as a ring: window j lives in
    column j mod n, whose h and c are zeroed when it starts. Each step
    advances every column, and the window that has read its n inputs goes
    to the head. The fusion MLP runs once over the whole horizon.
    """
    n, horizon, m = len(history), len(fw), p.m
    z = np.empty((horizon, m + p.w2.shape[0]))   # [h | o] per hour
    z[:, m:] = _fusion(fw, fc, horizon, p)[-1]
    out = (np.empty((1, p.w3.shape[0])), np.empty(1))
    yhat = np.empty(horizon)
    ring = min(n, horizon)   # windows j >= horizon are never started
    traces = [_LstmTrace(layer, 1, ring) for layer in p.lstm]
    views, x = _step_views(traces), traces[0].op[0, 0]
    # per ring column, the h and c of every layer, the top layer's last
    columns = [[a[:, r] for tr in traces
                for a in (tr.op[0, tr.n_in:-1], tr.gate[0, 4 * tr.m:])]
               for r in range(ring)]
    for step in range(n + horizon - 1):
        if step < horizon:   # window `step` starts from a zero state
            for a in columns[step % n]:
                a.fill(0.0)
        x[...] = history[step] if step < n else fed
        _lstm_step(views)
        done = step - n + 1          # the window that has read n inputs
        if done >= 0:
            z[done, :m] = columns[done % n][-2]   # the top layer's h
            yhat[done] = _head(z[done:done + 1], p, out=out)[-1][0]
            fed = feed(yhat[done])   # the input of the next step
    return yhat


def backward_batch(trace: ForwardTrace, dyhat: np.ndarray,
                   p: PowerNetParams) -> PowerNetParams:
    """Exact gradients of sum_b dyhat_b * yhat_b w.r.t. every parameter."""
    dyhat = np.asarray(dyhat, dtype=np.float64)
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

    _lstm_backward(trace.layers, grads.lstm, dh_final)
    return grads


# checkpoint serialization ---------------------------------------------------

def checkpoint_to_json(p: PowerNetParams, hyper: dict, feature_spec: dict,
                       seed: int) -> str:
    """The checkpoint as ``json.dumps(doc, indent=1, sort_keys=True,
    allow_nan=False)`` writes it. Each parameter's data is one join of
    ``float.__repr__`` (json's float format) put in place of a null: the
    only nulls after the top-level params key, the one line that is a
    newline, one space and "params"."""
    if not np.isfinite(p.vec).all():
        raise ValueError("Out of range float values are not JSON compliant")
    arrays = p.arrays()
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "model_type": "powernet",
        "hyperparameters": hyper,
        "seed": seed,
        "feature_spec": feature_spec,
        "params": {name: {"shape": list(a.shape), "data": None}
                   for name, a in arrays},
        "stack": len(p.lstm),
    }
    text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)
    before, key, after = text.partition('\n "params": ')
    head, *parts = after.split('"data": null')
    data = ('"data": [\n    ' + ",\n    ".join(map(float.__repr__, a.ravel().tolist()))
            + "\n   ]" for _, a in sorted(arrays, key=lambda e: e[0]))
    return before + key + head + "".join(d + part for d, part in zip(data, parts))


def checkpoint_from_json(text: str):
    """Returns (params, hyperparameters, feature_spec_doc, seed)."""
    return checkpoint_from_dict(json.loads(text))


#: What each key of a checkpoint holds; ``FeatureSpec.from_dict`` checks
#: ``feature_spec``, and ``_PARAM_CHECKS`` each parameter.
CHECKPOINT_CHECKS = {"format_version": one_of(CHECKPOINT_FORMAT_VERSION),
                     "model_type": one_of("powernet"), "hyperparameters": OBJECT,
                     "seed": integer(0), "feature_spec": OBJECT, "params": OBJECT,
                     "stack": integer(1)}
_PARAM_CHECKS = {"shape": items(integer(1)), "data": array(real())}


def checkpoint_from_dict(doc: dict):
    """checkpoint_from_json on an already parsed document."""
    doc = check(doc, CHECKPOINT_CHECKS, "checkpoint")
    raw = {name: check(entry, _PARAM_CHECKS, f"checkpoint: params.{name}")
           for name, entry in doc["params"].items()}
    shapes = {name: entry["shape"] for name, entry in raw.items()}
    _, m = shapes["lstm0.w_h"]
    (d1, _), (d2, _), (d3, _) = shapes["w1"], shapes["w2"], shapes["w3"]
    stack = doc["stack"]
    if len(shapes) != 3 * stack + 8:
        raise InputError(f"stack {stack} does not fit {len(shapes)} parameters")
    layout = param_layout(m, d1, d2, d3, stack)
    # the checkpoint's arrays, each entry the index in ``vec`` it fills
    index = PowerNetParams(np.arange(layout[-1][2], dtype=np.float64), layout).arrays()
    expected = {name: a.shape for name, a in index}
    if shapes != expected:
        name = min(set(shapes) ^ set(expected)
                   or {n for n in expected if shapes[n] != expected[n]})
        raise InputError(f"parameter {name} does not fit a {stack}-layer network "
                         f"with m={m}, d1={d1}, d2={d2}, d3={d3}")
    for name, a in index:
        if len(raw[name]["data"]) != a.size:
            raise InputError(f"checkpoint: params.{name}: data has {len(raw[name]['data'])} "
                             f"entries, shape {list(a.shape)} needs {a.size}")
    vec = np.empty(layout[-1][2])
    vec[np.concatenate([a.ravel() for _, a in index]).astype(np.intp)] = np.concatenate(
        [raw[name]["data"] for name in expected])
    return (PowerNetParams(vec, layout), doc["hyperparameters"],
            doc["feature_spec"], doc["seed"])
