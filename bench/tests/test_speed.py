import time

import pytest

import speed


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_scale_uses_the_probes_around_an_interval():
    clock = FakeClock()
    costs = iter([2e-3, 4e-3])

    def kernel():                  # advances the fake clock by its cost
        clock.now += next(costs)

    probe = speed.SpeedProbe(clock=clock, kernel=kernel)
    probe.sample()                 # t=0: 2 ms
    clock.now = 10.0
    probe.sample()                 # t=10: 4 ms
    assert probe.values == pytest.approx([2e-3, 4e-3])
    assert probe.probe_time(0.0, 1.0) == pytest.approx(2e-3)
    # both samples fall in the interval: their median sets the speed, and
    # the probe's own time inside the interval is not counted
    assert probe.speed(0.0, 10.0) == pytest.approx(3e-3)
    assert probe.scaled(0.0, 10.0) == pytest.approx(
        (10.0 - 6e-3) * speed.REFERENCE_PROBE_S / 3e-3)
    # far from every sample: the nearest one
    assert probe.speed(3.0, 4.0) == pytest.approx(2e-3)
    assert probe.speed(11.0, 12.0) == pytest.approx(4e-3)


def test_timer_samples_while_active():
    with speed.SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
    n = len(probe.values)
    assert n >= 0.2 / speed.PROBE_EVERY_S / 2
    time.sleep(2 * speed.PROBE_EVERY_S)
    assert len(probe.values) == n          # the timer stopped on exit


def test_no_samples_is_an_error():
    with pytest.raises(ValueError):
        speed.SpeedProbe(kernel=lambda: None).speed(0.0, 1.0)
