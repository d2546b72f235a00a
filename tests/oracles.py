"""Reference implementations that the tests compare the package against."""

import numpy as np


def sigmoid(x):
    """The logistic function 1 / (1 + e^-x), elementwise: the oracle for
    the LSTM's gates, which the package computes as 1/2 + tanh(x/2)/2."""
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))
