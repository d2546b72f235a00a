import run


class FakeWorkload:
    min_ops = 3

    def __init__(self, op, check):
        self.op, self.check = op, check


def boom(*_):
    raise RuntimeError("boom")


def test_failures_are_counted_per_operation():
    phase = run.Phase()
    run.run_op(FakeWorkload(lambda i: {"ok": i}, lambda out: []), 1, phase)
    run.run_op(FakeWorkload(boom, lambda out: []), 2, phase)
    run.run_op(FakeWorkload(lambda i: {}, lambda out: ["bad", "worse"]), 3, phase)
    run.run_op(FakeWorkload(lambda i: {}, boom), 4, phase)
    assert len(phase.intervals) == 4
    assert phase.failed == 3
    assert phase.failures == ["op 2: raised RuntimeError: boom", "op 3: bad",
                              "op 3: worse", "op 4: check raised RuntimeError: boom"]


def test_measure_runs_at_least_min_ops():
    calls = []

    class Probe:
        def scaled(self, t0, t1):
            return t1 - t0

    wl = FakeWorkload(calls.append, lambda out: [])
    phase = run.measure(wl, 0.0, 5, Probe())
    assert calls == [5, 6, 7]
    assert len(phase.scaled) == 3
