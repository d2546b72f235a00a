import numpy as np
import pytest

from powernet import cli
from powernet.metrics import ROLL_WINDOW, ZERO_FLOOR, ErrorCurve, error_curve, mape, mse
from powernet.numcore import InputError


def mse_oracle(a, f):
    """Definitional loop."""
    total = 0.0
    for x, y in zip(a, f):
        total += (x - y) ** 2
    return total / len(a)


def mape_oracle(a, f, floor=1e-6):
    terms = [abs((x - y) / x) for x, y in zip(a, f) if abs(x) > floor]
    return 100.0 * sum(terms) / len(terms)


class TestMse:
    def test_perfect_forecast_is_zero(self):
        a = np.array([1.0, 2.0, 3.0])
        assert mse(a, a) == 0.0

    def test_hand_computed(self):
        # errors 1, -2, 0 -> (1 + 4 + 0) / 3
        assert mse([1, 2, 3], [0, 4, 3]) == pytest.approx(5 / 3, abs=1e-15)

    def test_matches_oracle_on_random_fixtures(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 200))
            a = rng.normal(2, 1, n)
            f = rng.normal(2, 1, n)
            assert mse(a, f) == pytest.approx(mse_oracle(a, f), abs=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, f = rng.normal(size=50), rng.normal(size=50)
        assert mse(a, f) == mse(f, a)

    def test_shape_mismatch(self):
        with pytest.raises(InputError):
            mse([1, 2], [1, 2, 3])

    def test_empty(self):
        with pytest.raises(InputError):
            mse([], [])


class TestMape:
    def test_perfect_forecast_is_zero(self):
        a = np.array([1.0, 2.0])
        assert mape(a, a) == 0.0

    def test_hand_computed_percent(self):
        # |2-1|/2 and |4-5|/4 -> (0.5 + 0.25)/2 * 100 = 37.5
        assert mape([2, 4], [1, 5]) == pytest.approx(37.5, abs=1e-12)

    def test_matches_oracle_on_random_fixtures(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n = int(rng.integers(1, 200))
            a = np.append(rng.uniform(0.5, 3.0, n), ZERO_FLOOR)   # at the floor: left out
            f = a + rng.normal(0, 0.3, n + 1)
            assert mape(a, f) == pytest.approx(mape_oracle(a, f), abs=1e-12)

    def test_zero_actuals_excluded(self):
        # only the nonzero term contributes
        assert mape([0.0, 2.0], [1.0, 1.0]) == pytest.approx(50.0, abs=1e-12)

    def test_all_zero_actuals_rejected(self):
        with pytest.raises(InputError, match="floor"):
            mape([0.0, 0.0], [1.0, 1.0])


@pytest.mark.filterwarnings("error")
class TestNonFinite:
    """A non-finite actual is an InputError naming it, never a metric that
    drops it or a warning; a non-finite forecast gives a non-finite metric,
    the callers' overflow signal."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("metric", [mse, mape, error_curve],
                             ids=lambda f: f.__name__)
    def test_actual_rejected(self, metric, bad):
        with pytest.raises(InputError, match="^actual holds a non-finite value$"):
            metric([1.0, bad, 2.0], [1.0, 1.0, 1.0])

    def test_infinite_forecast_passes_through(self):
        assert mse([1.0, 2.0], [1.0, np.inf]) == np.inf
        assert mape([1.0, 2.0], [1.0, -np.inf]) == np.inf
        assert np.isinf(error_curve([1.0, 2.0], [1.0, np.inf]).cum_mse[-1])


def reference_rolling(a, f, window, zero_floor):
    """Loop oracle of the rolling series: (roll_mape, roll_mse)."""
    n = len(a)
    sq = (a - f) ** 2
    keep = np.abs(a) > zero_floor
    pct = np.zeros(n)
    pct[keep] = 100.0 * np.abs((a[keep] - f[keep]) / a[keep])
    roll_mape = np.empty(n)
    roll_mse = np.empty(n)
    for i in range(n):
        lo = max(0, i - window + 1)
        roll_mse[i] = sq[lo:i + 1].mean()
        k = keep[lo:i + 1]
        roll_mape[i] = pct[lo:i + 1][k].mean() if k.any() else np.nan
    return roll_mape, roll_mse


class TestErrorCurve:
    def test_cumulative_prefix_definition(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.5, 3.0, 60)
        f = a + rng.normal(0, 0.2, 60)
        c = error_curve(a, f)
        for i in (0, 7, 30, 59):
            assert c.cum_mse[i] == pytest.approx(mse(a[:i + 1], f[:i + 1]), abs=1e-12)
            assert c.cum_mape[i] == pytest.approx(mape(a[:i + 1], f[:i + 1]), abs=1e-12)

    def test_rolling_window_definition(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.5, 3.0, 60)
        f = a + rng.normal(0, 0.2, 60)
        c = error_curve(a, f)
        assert ROLL_WINDOW == 24
        for i in (0, 10, 40, 59):
            lo = max(0, i - 23)
            assert c.roll_mse[i] == pytest.approx(mse(a[lo:i + 1], f[lo:i + 1]), abs=1e-12)
            assert c.roll_mape[i] == pytest.approx(mape(a[lo:i + 1], f[lo:i + 1]), abs=1e-12)

    def test_rolling_equals_loop_oracle(self):
        rng = np.random.default_rng(6)
        window = ROLL_WINDOW
        for trial in range(200):
            n = int(rng.integers(1, 120))
            a = rng.uniform(0.0, 3.0, n) * 10.0 ** rng.uniform(-3, 3, n)
            a[rng.random(n) < rng.choice([0.0, 0.05, 0.5, 1.0])] = 0.0
            a = np.append(a, ZERO_FLOOR)   # at the floor: left out
            f = a + rng.normal(0, 0.3, n + 1)
            c = error_curve(a, f)
            roll_mape, roll_mse = reference_rolling(a, f, window, ZERO_FLOOR)
            # full windows bit for bit; the first window-1 hours are the
            # cumulative curve, whose running sum adds in another order
            w = min(window - 1, len(a))
            assert np.array_equal(c.roll_mse[w:], roll_mse[w:])
            assert np.array_equal(c.roll_mape[w:], roll_mape[w:], equal_nan=True)
            np.testing.assert_allclose(c.roll_mse[:w], roll_mse[:w],
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(c.roll_mape[:w], roll_mape[:w],
                                       rtol=1e-12, atol=0, equal_nan=True)

    @pytest.mark.parametrize("n", [1, 5, 23, 24, 60])
    def test_rolling_prefix_is_the_cumulative_curve(self, n):
        rng = np.random.default_rng(n)
        a = rng.uniform(0.5, 3.0, n)
        a[::4] = 0.0                       # excluded hours, the first among them
        f = a + rng.normal(0, 0.2, n)
        c = error_curve(a, f)
        w = min(23, n)
        assert np.array_equal(c.roll_mse[:w], c.cum_mse[:w])
        assert np.array_equal(c.roll_mape[:w], c.cum_mape[:w], equal_nan=True)
        assert np.isnan(c.roll_mape[0])

    def test_hours_one_based(self):
        c = error_curve([1.0, 1.0], [1.0, 1.0])
        assert list(c.hours) == [1, 2]

    def test_csv_round_trip(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0.5, 3.0, 30)
        f = a + rng.normal(0, 0.2, 30)
        c = error_curve(a, f)
        text = cli._csv(["hour", "cum_mape", "cum_mse", "roll_mape", "roll_mse"],
                        zip(c.hours, c.cum_mape, c.cum_mse, c.roll_mape, c.roll_mse))
        rows = text.strip().splitlines()
        assert rows[0] == "hour,cum_mape,cum_mse,roll_mape,roll_mse"
        assert len(rows) == 31
        first = rows[1].split(",")
        assert first[0] == "1"
        assert float(first[2]) == pytest.approx(c.cum_mse[0], abs=0)
        cells = np.array([[float(v) for v in row.split(",")] for row in rows[1:]])
        assert np.array_equal(cells, np.column_stack(
            [c.hours, c.cum_mape, c.cum_mse, c.roll_mape, c.roll_mse]))
