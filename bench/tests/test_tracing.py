import types

import pytest

import tracing


def span(name, start, end, parent, rid=1, counts=None):
    return (name, start, end, parent, rid, counts)


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    spans = [span("root", 0, 10, -1), span("a", 1, 4, 0),
             span("b", 5, 9, 0), span("c", 6, 8, 2)]
    assert tracing.self_times(spans) == [3, 3, 2, 2]
    # summed self time equals the root's duration
    assert sum(tracing.self_times(spans)) == 10


def test_aggregate_and_layer_metrics():
    spans = [
        span("dataio.load_consumption", 0.0, 1.0, -1, counts={"rows": 10, "rows_malformed": 1}),
        span("baselines.best_split", 1.0, 2.0, -1, counts={"useful": 1}),
        span("baselines.best_split", 2.0, 2.5, -1, rid=2, counts={"useful": 0}),
        span("synth.write_fixture_dir", 0.0, 3.0, -1, rid=tracing.SETUP_RID),
        span("dataio.align", 0.0, 9.0, -1, rid=None),    # outside any op
    ]
    m = tracing.layer_metrics(spans, n_ops=2, op_wall_s=4.0)
    assert m["dataio.load_consumption.s"] == pytest.approx(0.5)
    assert m["dataio.load_consumption.rows"] == 5
    assert m["baselines.best_split.calls"] == 1
    assert m["baselines.best_split.useful_ratio"] == pytest.approx(0.5)
    assert m["synth.write_fixture_dir.s"] == pytest.approx(3.0)
    assert "dataio.align.s" not in m
    assert m["trace.op.s"] == pytest.approx(2.0)
    assert m["trace.unattributed.s"] == pytest.approx((4.0 - 2.5) / 2)


def test_wrapper_records_nested_spans_per_request():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: next(ticks))

    def inner(x):
        return x + 1

    def outer(x):
        return w_inner(x) * 2

    w_inner = tracer.wrap(inner, tracing.Layer("m.inner"))
    w_outer = tracer.wrap(outer, tracing.Layer(
        "m.outer", counts=lambda a, k, r, pre: {"value": r}))
    assert w_outer(1) == 4            # rid unset: nothing recorded
    assert tracer.spans == []
    tracer.rid = 7
    assert w_outer(1) == 4
    (n1, s1, e1, p1, r1, c1), (n2, s2, e2, p2, r2, c2) = tracer.spans
    assert (n1, p1, r1, c1) == ("m.outer", -1, 7, {"value": 4})
    assert (n2, p2, r2) == ("m.inner", 0, 7)
    assert s1 < s2 < e2 < e1


def test_install_patches_every_alias_and_uninstall_restores():
    def fn():
        return 1

    home = types.ModuleType("home")
    home.fn = fn
    user = types.ModuleType("user")
    user.fn_alias = fn
    tracer = tracing.Tracer()
    tracer.install({"home": home, "user": user}, [tracing.Layer("home.fn")])
    assert home.fn is not fn and user.fn_alias is home.fn
    tracer.rid = 1
    assert user.fn_alias() == 1
    assert [s[0] for s in tracer.spans] == ["home.fn"]
    tracer.uninstall()
    assert home.fn is fn and user.fn_alias is fn


def test_gemm_flops_counts_each_product():
    from powernet.model import init_params
    p = init_params(m=4, d1=3, d2=2, d3=5, stack=2)
    # layer 1: 16 rows x (1 + 4); layer 2: 16 x (4 + 4); per step per example
    lstm = 2 * 16 * (1 + 4) + 2 * 16 * (4 + 4)
    mlp_head = 2 * (3 * 18 + 2 * 3 + 5 * (4 + 2) + 5)
    assert tracing.gemm_flops(batch=1, steps=1, p=p) == lstm + mlp_head
    assert tracing.gemm_flops(batch=3, steps=7, p=p) == 3 * (7 * lstm + mlp_head)
