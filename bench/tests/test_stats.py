import statistics

import pytest

from stats import percentile, quartiles, samples_beyond, spread, tail_percentile


def test_percentile_interpolates_like_inclusive_quantiles():
    xs = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
    cuts = statistics.quantiles(xs, n=100, method="inclusive")
    for pct in (1, 25, 50, 90, 99):
        assert percentile(xs, pct) == pytest.approx(cuts[pct - 1])
    assert percentile(xs, 0) == 1.0
    assert percentile(xs, 100) == 10.0
    assert percentile([3.0], 99) == 3.0


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_counts_ranks_above_the_percentile():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(100, 99) == 1
    assert samples_beyond(10, 50) == 5
    assert samples_beyond(0, 50) == 0
    # brute force: values 0..n-1 strictly above the percentile
    for n in (1, 7, 50, 911, 1000):
        xs = list(range(n))
        for pct in (50, 90, 99):
            cut = percentile(xs, pct)
            assert samples_beyond(n, pct) == sum(x > cut for x in xs)


def test_sample_count_rule():
    # 1000 requests leave ten beyond p99, as forecast_serve needs
    assert samples_beyond(1000, 99) >= 10
    assert samples_beyond(900, 99) < 10
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(999) == 99.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(19) == 50.0
    assert tail_percentile(3) == 50.0        # nothing qualifies: the median
    assert tail_percentile(20000) == 99.9


def test_quartiles_and_spread_match_statistics():
    xs = [10.0, 11.0, 9.0, 12.0, 10.5, 9.5, 10.2, 10.8, 9.9, 10.1]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    assert quartiles(xs) == (q1, med, q3)
    assert spread(xs) == pytest.approx((q3 - q1) / med)
    assert quartiles([4.0]) == (4.0, 4.0, 4.0)
    assert spread([0.0, 0.0, 0.0]) == 0.0
