"""Machine-speed probe for steady timings on a shared host.

On a host whose cores are shared with other tenants, the same code runs up
to twice as slow for stretches of a second to half a minute, and the
slowdown shows in CPU time as well as wall time. The runner therefore
samples the machine's speed while it measures: a timer signal runs a short
fixed probe kernel every ``PROBE_EVERY_S`` seconds, also in the middle of an
operation. An operation's latency is its wall time minus the probe time
inside it, scaled by ``REFERENCE_PROBE_S / probe time``, where the probe
time is the median of the samples taken during the operation and within
``WINDOW_S`` of it. The scaled latency is what the operation would take on
the reference machine. Raw wall times are kept alongside.

The kernel mixes what the program spends its time on: interpreted float
arithmetic, numpy scalar indexing, small numpy calls and a small matrix
product. Its code is the benchmark's own, so a change to the program cannot
speed it up. Each sample runs it once, cold: the interrupted code has
evicted its caches, as the neighbours' load evicts the program's. Timed
warm, it tracked the slowdowns of the gbt workload less well (run-to-run
spread of op_ms_p50 18% instead of 5%).

The cold kernel also feels which code ran before it. Interleaved with the
split loop of ``best_split``, with recursive forecasts and with a large
sort in the same minute, it took 207, 170 and 226 us. A change that alters
a workload's mix of code can therefore move that workload's scaled times
by up to about a tenth on its own; compare ``wall_ms`` as well.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: Probe time that defines the reference speed: about the kernel's time when
#: it runs alone on a 2-core x86-64 container host (numpy 2.4, OpenBLAS on
#: one thread) in its fast state. Inside a workload it runs cold and takes
#: roughly twice as long, so scaled times read about half of wall times.
REFERENCE_PROBE_S = 100e-6

#: Interval of the timer signal that takes a sample.
PROBE_EVERY_S = 0.02

#: Samples this close to an operation also describe its speed.
WINDOW_S = 0.25


class SpeedProbe:
    """Probe samples over time and the scaled latencies they imply.

    Use as a context manager to sample on a timer; ``sample`` takes one
    sample by hand.
    """

    def __init__(self, clock=time.perf_counter, kernel=None):
        self.clock = clock
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((8, 32))
        self._b = rng.standard_normal((32, 64))
        self._v = rng.standard_normal(32)
        self._c = np.cumsum(rng.standard_normal(128))
        self._idx = np.arange(1, 128, 2)
        self.kernel = kernel or self._kernel
        self.times = []          # when each sample started, ascending
        self.values = []         # seconds each sample took
        self._previous = None

    def _kernel(self):
        x = 0.0
        for i in range(200):
            x = x * 0.5 + i
        c = self._c
        for i in self._idx:
            x += c[i] - c[i] ** 2 / (i + 1)
        v = self._v
        for _ in range(12):
            v = np.tanh(v * 0.5 + 0.1)
        for _ in range(3):
            np.maximum(self._a @ self._b, 0.0).sum()

    def sample(self, *_signal_args):
        t0 = self.clock()
        self.kernel()
        self.values.append(self.clock() - t0)
        self.times.append(t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def _range(self, lo, hi):
        return bisect.bisect_left(self.times, lo), bisect.bisect_right(self.times, hi)

    def probe_time(self, t0: float, t1: float) -> float:
        """Seconds the probe itself ran inside [t0, t1]."""
        i, j = self._range(t0, t1)
        return sum(self.values[i:j])

    def speed(self, t0: float, t1: float) -> float:
        """Median probe time during [t0, t1] widened by WINDOW_S; the
        nearest sample when none falls there."""
        if not self.values:
            raise ValueError("no probe samples")
        i, j = self._range(t0 - WINDOW_S, t1 + WINDOW_S)
        if i < j:
            return statistics.median(self.values[i:j])
        # no sample in the window: i is the first sample after it
        near = [k for k in (i - 1, i) if 0 <= k < len(self.values)]
        k = min(near, key=lambda k: max(t0 - self.times[k], self.times[k] - t1))
        return self.values[k]

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds [t0, t1] would take on the reference machine, without
        the probe's own time."""
        busy = (t1 - t0) - self.probe_time(t0, t1)
        return busy * REFERENCE_PROBE_S / self.speed(t0, t1)
