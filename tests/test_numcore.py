import numpy as np
import pytest

from oracles import sigmoid
from powernet.numcore import grad_check, relu


class TestElementwise:
    """ReLU, and the sigmoid oracle that the gate tests compare against."""

    def test_relu_definition(self):
        assert np.array_equal(relu([-1, 0, 2]), [0, 0, 2])

    def test_sigmoid_symmetry_point(self):
        assert sigmoid([0.0])[0] == 0.5

    def test_ranges(self):
        x = np.random.default_rng(2).normal(scale=3, size=100)
        s = sigmoid(x)
        r = relu(x)
        assert np.all((s > 0) & (s < 1))
        assert np.all(r >= 0)


class TestGradCheck:
    def test_quadratic_exact(self):
        err = grad_check(lambda p: p[0] ** 2, [3.0], [6.0], eps=1e-5)
        assert err < 1e-8

    def test_relu_linear_region(self):
        err = grad_check(lambda p: relu(p)[0], [0.5], [1.0], eps=1e-5)
        assert err < 1e-6

    def test_flags_wrong_gradient(self):
        err = grad_check(lambda p: p[0] ** 2, [3.0], [5.0], eps=1e-5)
        assert err > 1e-2

    def test_non_finite_evaluation(self):
        with pytest.raises(FloatingPointError):
            grad_check(lambda p: float(np.log(p[0])), [0.0], [1.0], eps=1e-5)

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            grad_check(lambda p: p[0], [1.0], [1.0], eps=0.0)

    def test_multivariate(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=5)
        p = rng.normal(size=5)

        def f(v):
            return float(np.tanh(w @ v))

        analytic = (1 - np.tanh(w @ p) ** 2) * w
        assert grad_check(f, p, analytic) < 1e-8
