"""Order statistics shared by the benchmark runner and the comparator."""

from __future__ import annotations

import statistics

#: Percentiles the runner may report as a tail, lowest first.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: A tail percentile is trusted only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' method of
    ``statistics.quantiles``); a single value is its own percentile."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile {pct} outside [0, 100]")
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples rank above the ``pct`` percentile, whose
    position in the sorted samples is ``(n - 1) * pct / 100``."""
    if n < 1:
        return 0
    return n - 1 - int((n - 1) * pct / 100.0)


def tail_percentile(n: int) -> float:
    """Highest of TAIL_PERCENTILES with at least MIN_BEYOND of ``n``
    samples beyond it; the median when none qualifies."""
    best = TAIL_PERCENTILES[0]
    for pct in TAIL_PERCENTILES:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them;
    fewer than two values collapse to the value itself."""
    xs = list(values)
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile distance as a share of the median (0 when the median
    is 0 and the quartiles agree, infinite when only the median is 0)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(med)
