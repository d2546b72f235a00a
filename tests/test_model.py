import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from oracles import grad_check, sigmoid
from powernet.model import (
    checkpoint_from_dict, checkpoint_from_json, checkpoint_to_json,
    forward_batch, forward_recursive, backward_batch, init_params, param_layout,
)
from powernet.numcore import InputError
from powernet.training import loss


def small_params(m=4, d1=5, d2=3, d3=6, seed=0, stack=2):
    return init_params(m, d1, d2, d3, seed=seed, stack=stack)


def zero_params(m=3, d1=4, d2=3, d3=5):
    p = small_params(m, d1, d2, d3)
    return p.from_vector(np.zeros(p.to_vector().size))


def reference_lstm_step(x_t, h_prev, c_prev, p, k):
    """Single-example cell update of LSTM layer k, the oracle for the
    batched layer; returns (h_t, c_t). It reads the layer as the checkpoint
    holds it, gate rows [i, f, g, o], so it also pins that order as the one
    the network computes with."""
    x_t = np.atleast_1d(np.asarray(x_t, dtype=np.float64))
    arrays = dict(p.arrays())
    w_x, w_h, b = (arrays[f"lstm{k}.{part}"] for part in ("w_x", "w_h", "b"))
    z = w_x @ x_t + w_h @ h_prev + b
    m = len(h_prev)
    i = sigmoid(z[:m])
    f = sigmoid(z[m:2 * m])
    g = np.tanh(z[2 * m:3 * m])
    o = sigmoid(z[3 * m:])
    c_t = f * c_prev + i * g
    h_t = o * np.tanh(c_t)
    return h_t, c_t


def gates(tr):
    """The (T, B, m) views, by time step, of a training trace's gates i, f,
    o and g, of c_{t-1} and c_t and of tanh(c_t)."""
    m = tr.m
    by_t = {"i": tr.gate[:-1, :m], "f": tr.gate[:-1, m:2 * m],
            "o": tr.gate[:-1, 2 * m:3 * m], "g": tr.gate[:-1, 3 * m:4 * m],
            "c_prev": tr.gate[:-1, 4 * m:], "c": tr.gate[1:, 4 * m:],
            "tanh_c": tr.tanh_c}
    return SimpleNamespace(**{k: v.transpose(0, 2, 1) for k, v in by_t.items()})


def h_final(trace):
    """The top LSTM layer's last hidden state (B, m) in a training trace."""
    top = trace.layers[-1]
    return top.op[-1, top.n_in:-1].T


def forward_one(E, fw, fc, p, train=True, **kwargs):
    """forward_batch on one example (B=1); returns (yhat, trace). Train
    mode by default, so that the trace is recorded."""
    yhat, trace = forward_batch(np.asarray(E, dtype=np.float64)[None, :],
                                np.asarray(fw, dtype=np.float64)[None, :],
                                np.asarray(fc, dtype=np.float64)[None, :],
                                p, train=train, **kwargs)
    return float(yhat[0]), trace


def encode_one(E, p):
    """Final hidden state of the top LSTM layer for one window."""
    return h_final(forward_one(E, np.zeros(13), np.zeros(5), p)[1])[0]


def fuse_one(fw, fc, p):
    """Output of the weather/calendar MLP for one example."""
    trace = forward_one(np.zeros(1), fw, fc, p)[1]
    return trace.head[0][0][0, p.m:]   # the head's first input, [h | o]


class TestLstmStep:
    def test_zero_weights_algebra(self):
        # zero weights, bias only on the candidate block: i = f = o = 0.5 and
        # g = tanh(b_g) at every step, so c_t = 0.5*c_prev + 0.5*g and
        # h_t = 0.5*tanh(c_t), with c_prev taken from the trace
        p = zero_params()
        m = p.m
        doc = json.loads(checkpoint_to_json(p, {}, {}, seed=0))
        doc["params"]["lstm0.b"]["data"][2 * m:3 * m] = [1.0, -2.0, 0.5]
        p = checkpoint_from_dict(doc)[0]
        g = np.tanh([1.0, -2.0, 0.5])
        _, trace = forward_one([0.7, -0.3, 0.2], np.zeros(13), np.zeros(5), p)
        tr0 = gates(trace.layers[0])
        for t in range(3):
            c_prev = tr0.c_prev[t][0]
            assert np.allclose(tr0.c[t][0], 0.5 * c_prev + 0.5 * g, atol=1e-12)
            assert np.allclose(tr0.o[t][0] * tr0.tanh_c[t][0],
                               0.5 * np.tanh(tr0.c[t][0]), atol=1e-12)
        assert np.any(tr0.c_prev[2][0] != 0)

    def test_scalar_oracle_all_ones(self):
        # m=1, all weights and bias 1, x=0, h_prev=0, c_prev=0
        p = small_params(m=1, stack=1)
        layer = p.lstm[0]
        for a in (layer.w_x, layer.w_h, layer.b):
            a[:] = 1.0
        _, trace = forward_one([0.0], np.zeros(13), np.zeros(5), p)
        s1 = sigmoid(np.array([1.0]))[0]
        g = np.tanh(1.0)
        c_expected = s1 * g
        h_expected = s1 * np.tanh(c_expected)
        assert abs(gates(trace.layers[0]).c[0][0, 0] - c_expected) < 1e-12
        assert abs(h_final(trace)[0, 0] - h_expected) < 1e-12

    def test_hidden_state_bounded(self):
        rng = np.random.default_rng(1)
        p = small_params(m=2, stack=1)
        layer = p.lstm[0]
        for a in (layer.w_x, layer.w_h, layer.b):
            a[:] = rng.normal(size=a.shape) * 5
        with np.errstate(over="ignore"):   # saturated gates overflow exp
            _, trace = forward_one(rng.normal(size=4) * 100, np.zeros(13),
                                   np.zeros(5), p)
        tr0 = gates(trace.layers[0])
        for t in range(4):
            assert np.all(np.abs(tr0.o[t] * tr0.tanh_c[t]) < 1.0)


class TestEncode:
    def test_single_step_base_case(self):
        p = small_params()
        E = np.array([0.4])
        h_final = encode_one(E, p)
        h1, c1 = reference_lstm_step(E, np.zeros(p.m), np.zeros(p.m), p, 0)
        h2, _ = reference_lstm_step(h1, np.zeros(p.m), np.zeros(p.m), p, 1)
        assert np.allclose(h_final, h2, atol=1e-12)

    def test_matches_reference_cell_over_time_and_batch(self):
        p = small_params(stack=3, seed=3)
        rng = np.random.default_rng(3)
        E = rng.normal(size=(3, 7))
        _, trace = forward_batch(E, np.zeros((3, 13)), np.zeros((3, 5)), p,
                                 train=True)
        for b in range(3):
            xs = list(E[b])
            for k in range(len(p.lstm)):
                h, c = np.zeros(p.m), np.zeros(p.m)
                hs = []
                for x in xs:
                    h, c = reference_lstm_step(x, h, c, p, k)
                    hs.append(h)
                xs = hs
            assert np.allclose(h_final(trace)[b], xs[-1], atol=1e-12)

    def test_order_sensitivity(self):
        p = small_params()
        E = np.array([0.1, 0.9, -0.4, 0.3])
        a = encode_one(E, p)
        b = encode_one(E[::-1], p)
        assert not np.allclose(a, b)

    def test_zero_weight_fixed_point(self):
        # zero params: every step gives c=0.5*c_prev, with c_0=0 -> h stays
        # at 0.5*tanh(0) = 0 for all t
        p = zero_params()
        h_final = encode_one(np.zeros(6), p)
        assert np.allclose(h_final, 0.0, atol=1e-15)

    def test_causality(self):
        p = small_params()
        rng = np.random.default_rng(2)
        E = rng.normal(size=8)
        _, tr1 = forward_batch(E[None, :], np.zeros((1, 13)), np.zeros((1, 5)), p,
                               train=True)
        E2 = E.copy()
        E2[5] += 1.0
        _, tr2 = forward_batch(E2[None, :], np.zeros((1, 13)), np.zeros((1, 5)), p,
                               train=True)
        for layer in range(2):
            for t in range(5):
                assert np.allclose(gates(tr1.layers[layer]).c[t],
                                   gates(tr2.layers[layer]).c[t])

    def test_empty_sequence_rejected(self):
        with pytest.raises(InputError):
            forward_batch(np.zeros((1, 0)), np.zeros((1, 13)), np.zeros((1, 5)),
                          small_params())


class TestFusedStep:
    """The one-tanh gate block and the stacked operand."""

    @pytest.mark.parametrize("stack", [1, 2, 3])
    @pytest.mark.parametrize("B", [1, 3, 32])
    @pytest.mark.parametrize("T", [1, 5, 24, 168])
    def test_matches_reference_cell(self, stack, B, T):
        p = small_params(m=3, stack=stack, seed=stack)
        rng = np.random.default_rng(100 * B + T)
        E = rng.normal(size=(B, T))
        FW, FC = rng.normal(size=(B, 13)), rng.normal(size=(B, 5))
        _, trace = forward_batch(E, FW, FC, p, train=True)
        y_infer, _ = forward_batch(E, FW, FC, p)
        assert np.array_equal(y_infer, forward_batch(E, FW, FC, p, train=True)[0])
        for b in range(B):
            xs = list(E[b])
            for k, tr in enumerate(map(gates, trace.layers)):
                h, c = np.zeros(p.m), np.zeros(p.m)
                hs = []
                for t, x in enumerate(xs):
                    h, c = reference_lstm_step(x, h, c, p, k)
                    assert np.allclose(tr.c[t][b], c, rtol=0, atol=1e-12)
                    hs.append(h)
                xs = hs
            assert np.allclose(h_final(trace)[b], xs[-1], rtol=0, atol=1e-12)

    def test_gates_equal_the_logistic_function(self):
        # one unit whose every gate sees z = x; sigmoid is 1/2 + tanh(z/2)/2
        p = small_params(m=1, stack=1)
        layer = p.lstm[0]
        layer.w_x[:] = 1.0
        layer.w_h[:] = 0.0
        layer.b[:] = 0.0
        z = np.linspace(-40.0, 40.0, 8001)
        _, trace = forward_batch(z[:, None], np.zeros((z.size, 13)),
                                 np.zeros((z.size, 5)), p, train=True)
        tr = gates(trace.layers[0])
        for gate in (tr.i, tr.f, tr.o):
            assert np.abs(gate[0][:, 0] - sigmoid(z)).max() <= 1e-15
        assert np.array_equal(tr.g[0][:, 0], np.tanh(z))


class TestFuse:
    def test_zero_input_zero_bias(self):
        p = zero_params()
        o = fuse_one(np.zeros(13), np.zeros(5), p)
        assert np.array_equal(o, np.zeros_like(o))

    def test_nonnegative_output(self):
        p = small_params()
        rng = np.random.default_rng(3)
        o = fuse_one(rng.normal(size=13), rng.normal(size=5), p)
        assert np.all(o >= 0)

    def test_matches_loop_oracle(self):
        p = small_params()
        rng = np.random.default_rng(4)
        f_w, f_c = rng.normal(size=13), rng.normal(size=5)
        u = np.concatenate([f_w, f_c])
        hidden = np.array([max(sum(p.w1[i, j] * u[j] for j in range(18)) + p.b1[i], 0)
                           for i in range(p.w1.shape[0])])
        expected = np.array([max(sum(p.w2[i, j] * hidden[j] for j in range(len(hidden))) + p.b2[i], 0)
                             for i in range(p.w2.shape[0])])
        o = fuse_one(f_w, f_c, p)
        assert np.allclose(o, expected, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            forward_one(np.zeros(3), np.zeros(10), np.zeros(5), small_params())


class TestPredictHead:
    def test_zero_weights_collapse_to_bias(self):
        q = zero_params()
        q.b4[:] = 1.75
        rng = np.random.default_rng(5)
        y, _ = forward_one(rng.normal(size=4), rng.normal(size=13),
                           rng.normal(size=5), q)
        assert y == 1.75

    def test_outer_layer_linearity(self):
        p = small_params()
        rng = np.random.default_rng(5)
        E, fw, fc = rng.normal(size=4), rng.normal(size=13), rng.normal(size=5)
        y1, _ = forward_one(E, fw, fc, p)
        q = p.from_vector(p.to_vector().copy())
        q.w4[:] = 2 * q.w4
        y2, _ = forward_one(E, fw, fc, q)
        assert y2 - p.b4 == pytest.approx(2 * (y1 - p.b4))

    def test_matches_loop_oracle(self):
        p = small_params()
        rng = np.random.default_rng(6)
        y, trace = forward_one(rng.normal(size=4), rng.normal(size=13),
                               rng.normal(size=5), p)
        z = trace.head[0][0][0]   # no dropout: the head's input itself
        assert np.array_equal(z[:p.m], h_final(trace)[0])
        r = [max(sum(p.w3[i, j] * z[j] for j in range(len(z))) + p.b3[i], 0)
             for i in range(p.w3.shape[0])]
        expected = sum(p.w4[i] * r[i] for i in range(len(r))) + p.b4
        assert y == pytest.approx(expected, abs=1e-12)

    def test_piecewise_affine_on_stable_relu_pattern(self):
        # with the window fixed, the output is piecewise affine in the
        # weather/calendar input; a tiny step keeps every ReLU pattern
        p = small_params()
        rng = np.random.default_rng(7)
        E, fc = rng.normal(size=4), rng.normal(size=5)
        fw1 = rng.normal(size=13)
        fw2 = fw1 + 1e-4 * rng.normal(size=13)
        y1, tr1 = forward_one(E, fw1, fc, p)
        y2, tr2 = forward_one(E, fw2, fc, p)
        mid, tr_mid = forward_one(E, (fw1 + fw2) / 2, fc, p)
        def patterns(trace):   # the signs of s1, s2 and s3
            return [s > 0 for _, s, _ in trace.fusion + trace.head[:1]]

        for pattern, other, middle in zip(patterns(tr1), patterns(tr2), patterns(tr_mid)):
            assert np.array_equal(pattern, other)
            assert np.array_equal(pattern, middle)
        assert mid == pytest.approx((y1 + y2) / 2, abs=1e-10)


class TestForward:
    def test_dropout_zero_train_equals_infer(self):
        p = small_params()
        rng = np.random.default_rng(8)
        E, fw, fc = rng.normal(size=24), rng.normal(size=13), rng.normal(size=5)
        y_train, _ = forward_one(E, fw, fc, p, dropout_rate=0.0, train=True,
                                 rng=np.random.default_rng(0))
        y_infer, _ = forward_one(E, fw, fc, p, train=False)
        assert y_train == y_infer

    def test_seeded_determinism(self):
        p = small_params()
        rng = np.random.default_rng(9)
        E, fw, fc = rng.normal(size=12), rng.normal(size=13), rng.normal(size=5)

        def draw(seed):
            return forward_one(E, fw, fc, p, dropout_rate=0.4, train=True,
                               rng=np.random.default_rng(seed))[0]
        a = draw(7)
        assert a == draw(7)
        assert a != draw(8)

    def test_inverted_dropout_expectation(self):
        # With every ReLU unit firmly active for any mask draw, the output is
        # multilinear in the independent masks, so E[train output] equals the
        # infer output exactly; the MC average then isolates the 1/(1-p)
        # inverted scaling.  (With ReLU patterns that flip across draws the
        # expectation is genuinely biased, so this is the honest test point.)
        p = small_params(m=3, d1=4, d2=3, d3=4, seed=11)
        rng = np.random.default_rng(10)
        for w in (p.w1, p.w2, p.w3, p.w4):
            w *= 0.03 / (np.abs(w).max() + 1e-12)
        for b in (p.b1, p.b2, p.b3):
            b[:] = 10.0
        E, fw, fc = rng.normal(size=6), rng.normal(size=13), rng.normal(size=5)
        y_infer, _ = forward_one(E, fw, fc, p, train=False)
        draws = [forward_one(E, fw, fc, p, dropout_rate=0.2, train=True,
                             rng=np.random.default_rng(s))[0]
                 for s in range(10_000)]
        assert np.mean(draws) == pytest.approx(y_infer, rel=0.02)

    def test_inference_returns_no_trace(self):
        rng = np.random.default_rng(18)
        yhat, trace = forward_batch(rng.normal(size=(2, 5)), rng.normal(size=(2, 13)),
                                    rng.normal(size=(2, 5)), small_params())
        assert yhat.shape == (2,) and trace is None

    @pytest.mark.parametrize("stack", [1, 2, 3])
    def test_inference_bitwise_equals_train_mode(self, stack):
        # at m=64 the products of the layers above the first run as two row
        # halves at B=32 and B=48, and as one product at B <= 24
        rng = np.random.default_rng(19)
        for m, B in ((4, 1), (4, 4), (64, 24), (64, 32), (64, 48)):
            p = small_params(m=m, stack=stack, seed=stack)
            for T in (1, 5, 24):
                E = rng.normal(size=(B, T))
                FW, FC = rng.normal(size=(B, 13)), rng.normal(size=(B, 5))
                y_train, _ = forward_batch(E, FW, FC, p, train=True)
                y_infer, _ = forward_batch(E, FW, FC, p, train=False)
                assert np.array_equal(y_train, y_infer), (m, B, T)

    def test_inference_memory_is_independent_of_the_window(self):
        # the training trace grows as T*B*m; inference holds one (B, m)
        # state per layer, so its peak is far below one trace
        p = small_params(m=16, seed=20)
        rng = np.random.default_rng(20)
        args = (rng.normal(size=(64, 168)), rng.normal(size=(64, 13)),
                rng.normal(size=(64, 5)), p)

        def peak_bytes(train):
            tracemalloc.start()
            try:
                forward_batch(*args, train=train)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak_bytes(False) < peak_bytes(True) / 10

    def test_inference_holds_no_copy_of_the_weights(self):
        # the step multiplies each layer's stored block itself, so neither
        # a recursive forecast nor an inference batch allocates one
        p = small_params(m=128, d1=32, d2=16, d3=32, seed=22)
        rng = np.random.default_rng(22)
        block = 4 * 128 * (2 * 128 + 1) * 8   # layer 1's [w_x | w_h | b], bytes

        def peak_bytes(run):
            tracemalloc.start()
            try:
                run()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        fw, fc = rng.normal(size=(24, 13)), rng.normal(size=(24, 5))
        assert peak_bytes(lambda: forward_recursive(rng.normal(size=3), fw, fc, p,
                                                    float)) < block
        E = rng.normal(size=(8, 24))
        assert peak_bytes(lambda: forward_batch(E, fw[:8], fc[:8], p)) < block

    def test_invalid_dropout(self):
        with pytest.raises(InputError):
            forward_one(np.zeros(3), np.zeros(13), np.zeros(5), small_params(),
                        dropout_rate=1.0, train=True, rng=np.random.default_rng(0))


class TestBackward:
    def loss_fn(self, p, E, FW, FC, y, l2=0.0):
        def f(vec):
            value, _ = loss(E, FW, FC, y, p.from_vector(vec), l2_lambda=l2)
            return value
        return f

    def test_grad_check_small_model(self):
        rng = np.random.default_rng(12)
        p = small_params(m=6, d1=6, d2=5, d3=6, seed=12)
        E = rng.normal(size=(2, 5))
        FW = rng.normal(size=(2, 13))
        FC = rng.normal(size=(2, 5))
        y = rng.normal(size=2)
        _, grads = loss(E, FW, FC, y, p)
        err = grad_check(self.loss_fn(p, E, FW, FC, y), p.to_vector(),
                         grads.to_vector())
        assert err < 1e-4

    def test_grad_check_with_l2(self):
        rng = np.random.default_rng(13)
        p = small_params(m=3, d1=4, d2=3, d3=4, seed=13)
        E = rng.normal(size=(3, 4))
        FW = rng.normal(size=(3, 13))
        FC = rng.normal(size=(3, 5))
        y = rng.normal(size=3)
        _, grads = loss(E, FW, FC, y, p, l2_lambda=0.01)
        err = grad_check(self.loss_fn(p, E, FW, FC, y, l2=0.01),
                         p.to_vector(), grads.to_vector())
        assert err < 1e-4

    def test_grad_check_with_dropout(self):
        # a fresh rng per evaluation draws the same masks every time, so
        # the loss is one fixed function of the parameters
        rng = np.random.default_rng(17)
        p = small_params(m=4, d1=5, d2=4, d3=6, seed=17)
        vec = p.to_vector()
        p = p.from_vector(vec + 0.01 * rng.normal(size=vec.size))
        E, FW, FC = (rng.normal(size=(3, n)) for n in (5, 13, 5))
        y = rng.normal(size=3)

        def f(vec):
            return loss(E, FW, FC, y, p.from_vector(vec), dropout_rate=0.3,
                        rng=np.random.default_rng(5))[0]

        _, grads = loss(E, FW, FC, y, p, dropout_rate=0.3,
                        rng=np.random.default_rng(5))
        assert grad_check(f, p.to_vector(), grads.to_vector()) < 1e-4

    def test_directional_derivatives_at_training_size(self):
        # m=64, B=32: the LSTM products run as row halves and the weight
        # gradient as an NN product; central differences along seeded
        # directions in each LSTM block and in the whole vector
        rng = np.random.default_rng(21)
        p = init_params(64, 32, 16, 32, seed=21)
        E, FW, FC = (rng.normal(size=(32, n)) for n in (3, 13, 5))
        y = rng.normal(size=32)

        def f(vec):
            return loss(E, FW, FC, y, p.from_vector(vec), l2_lambda=1e-4,
                        dropout_rate=0.1, rng=np.random.default_rng(5))[0]

        vec = p.to_vector()
        grad = loss(E, FW, FC, y, p, l2_lambda=1e-4, dropout_rate=0.1,
                    rng=np.random.default_rng(5))[1].to_vector()
        blocks = [(start, stop) for name, start, stop, _ in p.layout
                  if name.startswith("lstm")] + [(0, vec.size)]
        h = 1e-5
        for start, stop in blocks:
            for _ in range(2):
                v = np.zeros(vec.size)
                v[start:stop] = rng.normal(size=stop - start)
                v /= np.linalg.norm(v)
                fd = (f(vec + h * v) - f(vec - h * v)) / (2 * h)
                assert fd == pytest.approx(grad @ v, rel=1e-6, abs=1e-9), (start, stop)

    def test_zero_upstream_gradient(self):
        p = small_params()
        rng = np.random.default_rng(14)
        _, trace = forward_batch(rng.normal(size=(2, 4)), rng.normal(size=(2, 13)),
                                 rng.normal(size=(2, 5)), p, train=True)
        grads = backward_batch(trace, np.zeros(2), p)
        assert np.array_equal(grads.to_vector(), np.zeros_like(grads.to_vector()))

    def test_b4_gradient_is_upstream_sum(self):
        p = small_params()
        rng = np.random.default_rng(15)
        _, trace = forward_batch(rng.normal(size=(3, 4)), rng.normal(size=(3, 13)),
                                 rng.normal(size=(3, 5)), p, train=True)
        dy = np.array([0.3, -1.2, 2.0])
        grads = backward_batch(trace, dy, p)
        assert grads.b4 == pytest.approx(dy.sum(), abs=1e-12)

    def test_grad_check_across_shapes_and_lengths(self):
        rng = np.random.default_rng(16)
        for T in (1, 2, 5):
            m, d1, d2, d3 = rng.integers(3, 9, size=4)
            p = init_params(int(m), int(d1), int(d2), int(d3),
                            seed=int(rng.integers(1000)))
            E = rng.normal(size=(1, T))
            FW = rng.normal(size=(1, 13))
            FC = rng.normal(size=(1, 5))
            y = rng.normal(size=1)
            _, grads = loss(E, FW, FC, y, p)
            err = grad_check(self.loss_fn(p, E, FW, FC, y), p.to_vector(),
                             grads.to_vector())
            assert err < 1e-4, f"T={T} shapes {(m, d1, d2, d3)}"


class TestInitParams:
    def test_determinism(self):
        a = init_params(5, 4, 3, 6, seed=42)
        b = init_params(5, 4, 3, 6, seed=42)
        assert np.array_equal(a.to_vector(), b.to_vector())

    def test_forget_gate_bias(self):
        p = init_params(5, 4, 3, 6, seed=0)
        for layer in p.lstm:
            m = layer.m
            assert np.array_equal(layer.b[m:2 * m], np.ones(m))
            assert np.array_equal(layer.b[:m], np.zeros(m))

    def test_weight_mean_statistics(self):
        # uniform(-a, a) sample mean within 3 sigma of 0 for 10^4 draws
        p = init_params(50, 50, 50, 50, seed=1)
        w = p.w3.ravel()
        assert w.size >= 3000
        a = np.sqrt(6.0 / sum(p.w3.shape))
        sigma_mean = (2 * a / np.sqrt(12)) / np.sqrt(w.size)
        assert abs(w.mean()) < 3 * sigma_mean

    def test_draws_in_layout_order(self):
        # one Xavier draw per weight matrix, LSTM layers first, then w1..w4
        m, d1, d2, d3 = 3, 4, 2, 5
        p = init_params(m, d1, d2, d3, seed=7, stack=2)
        rng = np.random.default_rng(7)

        def xavier(rows, cols):
            bound = np.sqrt(6.0 / (rows + cols))
            return rng.uniform(-bound, bound, size=(rows, cols)).ravel()
        forget = np.zeros(4 * m)
        forget[m:2 * m] = 1.0
        expected = np.concatenate([
            xavier(4 * m, 1), xavier(4 * m, m), forget,
            xavier(4 * m, m), xavier(4 * m, m), forget,
            xavier(d1, 18), np.zeros(d1), xavier(d2, d1), np.zeros(d2),
            xavier(d3, m + d2), np.zeros(d3), xavier(1, d3), [0.0]])
        assert np.array_equal(np.concatenate([a.ravel() for _, a in p.arrays()]),
                              expected)


class TestParamsBuffer:
    def test_views_tile_the_vector(self):
        # each LSTM layer is one block [w_x | w_h | b], then w1, b1, ..., b4
        p = small_params(stack=3)
        views = [layer.w for layer in p.lstm] + [getattr(p, n) for n, *_ in p.layout[3:]]
        stop = 0
        for (name, start, stop_, shape), a in zip(p.layout, views, strict=True):
            assert a.shape == shape and start == stop
            assert np.shares_memory(a, p.vec)
            assert np.array_equal(a.ravel(), p.vec[start:stop_])
            stop = stop_
        assert stop == p.vec.size
        for k, layer in enumerate(p.lstm):
            assert p.layout[k][0] == f"lstm{k}.w"
            for part in (layer.w_x, layer.w_h, layer.b):
                assert np.shares_memory(part, layer.w)
            assert np.array_equal(np.column_stack([layer.w_x, layer.w_h, layer.b]),
                                  layer.w)
        assert p.layout == param_layout(4, 5, 3, 6, stack=3)
        assert [n for n, *_ in p.layout][-2:] == ["w4", "b4"]

    def test_from_vector_shares_memory(self):
        p = small_params()
        vec = np.arange(p.vec.size, dtype=np.float64)
        q = p.from_vector(vec)
        assert q.to_vector() is vec and q.layout is p.layout
        vec[0] = -7.0
        assert q.lstm[0].w_x[0, 0] == -7.0
        assert q.b4 == vec[-1]

    def test_from_vector_size_mismatch(self):
        p = small_params()
        with pytest.raises(InputError):
            p.from_vector(np.zeros(p.vec.size + 1))

    def test_gradients_share_the_layout(self):
        p = small_params()
        rng = np.random.default_rng(17)
        _, trace = forward_batch(rng.normal(size=(2, 3)), rng.normal(size=(2, 13)),
                                 rng.normal(size=(2, 5)), p, train=True)
        grads = backward_batch(trace, np.ones(2), p)
        assert grads.layout is p.layout
        assert not np.shares_memory(grads.vec, p.vec)


class TestCheckpoint:
    def test_round_trip(self):
        from powernet.features import FeatureSpec
        p = small_params(seed=21)
        spec = FeatureSpec(window_len=24, summary_vocab={"Clear": 1},
                           icon_vocab={"rain": 1},
                           weather_mean=np.zeros(11), weather_std=np.ones(11))
        text = checkpoint_to_json(p, {"memory_size": p.m}, spec.to_dict(), seed=21)
        q, hyper, spec_doc, seed = checkpoint_from_json(text)
        assert np.array_equal(q.to_vector(), p.to_vector())
        assert q.layout == p.layout
        assert hyper["memory_size"] == p.m
        assert spec_doc == spec.to_dict()
        assert seed == 21

    def test_version_guard(self):
        p = small_params()
        text = checkpoint_to_json(p, {}, {}, seed=0)
        doc = json.loads(text)
        doc["format_version"] = 99
        with pytest.raises(InputError, match="version"):
            checkpoint_from_json(json.dumps(doc))

    @pytest.mark.parametrize("seed, stack, digest", [
        (0, 1, "b06c35dfda428918990ccf52b65d2f29015cac2ea918fcf7857ffac1f89ee44e"),
        (0, 2, "2205a129115a5b06718690072d22023b2d864296e1105a63d8dc4886fe9708b5"),
        (0, 3, "2314c2e730ff117b620e485644cea4cb2222e942ca0aba43f77b28dd75eb5928"),
        (1, 1, "e48af1cea9eaa9c4c0d7e51af28f66193638599f57cafdb7973ef2f16dacde3e"),
        (1, 2, "782f4a5ba79e4bc089a09f678a987993429741f8678b77c13634ab6c265ef151"),
        (1, 3, "c11426a0f84f510dd21f03f4436fb8bb1b6e609b3edf93b02f2357b51d9d95bb"),
    ])
    def test_initial_checkpoint_bytes_are_pinned(self, seed, stack, digest):
        # the draws, their order and the checkpoint's names, shapes and
        # number format; no tanh is involved, so no libm or BLAS either
        text = checkpoint_to_json(init_params(5, 4, 3, 6, seed=seed, stack=stack),
                                  {}, {}, seed)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_byte_identical_for_same_params(self):
        p = small_params(seed=5)
        a = checkpoint_to_json(p, {"x": 1}, {}, seed=5)
        b = checkpoint_to_json(small_params(seed=5), {"x": 1}, {}, seed=5)
        assert a == b

    def test_mis_shaped_parameter_rejected(self):
        doc = json.loads(checkpoint_to_json(small_params(), {}, {}, seed=0))
        doc["params"]["w1"] = {"shape": [5, 17], "data": [0.0] * 85}
        with pytest.raises(InputError, match="w1"):
            checkpoint_from_dict(doc)

    def test_stack_must_match_parameters(self):
        doc = json.loads(checkpoint_to_json(small_params(), {}, {}, seed=0))
        doc["stack"] = 1
        with pytest.raises(InputError, match="stack"):
            checkpoint_from_dict(doc)

    def test_recorded_shapes_must_agree(self):
        # m, d1, d2, d3 are read from lstm0.w_h and w1..w3; every other
        # shape must follow from them
        doc = json.loads(checkpoint_to_json(small_params(), {}, {}, seed=0))
        doc["params"]["w3"]["shape"] = [6, 8]
        with pytest.raises(InputError, match="w3"):
            checkpoint_from_dict(doc)

    def test_data_length_must_match_shape(self):
        doc = json.loads(checkpoint_to_json(small_params(), {}, {}, seed=0))
        doc["params"]["b2"]["data"] = [1.0]
        with pytest.raises(InputError):
            checkpoint_from_dict(doc)
