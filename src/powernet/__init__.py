"""Hybrid recurrent/feed-forward power-demand forecasting toolkit.

Subpackages:

- ``numcore``: activations, ``InputError`` (input the caller must fix) and
  the rule-table checker for outside documents
- ``dataio``: CSV ingestion, hourly resampling, aggregation, alignment
- ``features``: ACF window selection, weather/calendar vectors, example sets
- ``model``: stacked-LSTM + MLP network with exact hand-derived gradients,
  its weights held in one flat vector
- ``training``: Adam, early stopping, memory-size grid search
- ``metrics``: MSE, MAPE, error curves
- ``baselines``: persistence and gradient-boosted regression trees
- ``forecast_anomaly``: recursive/actual-history forecasting, theft detection
- ``synth``: seeded synthetic data generator
- ``cli``: the ``powernet`` command
"""

__version__ = "0.1.0"

from .dataio import AlignedDataset, TimeSeries, WeatherTable
from .features import ExampleSet, FeatureSpec, acf, build_examples, select_window
from .model import PowerNetParams, init_params
from .training import TrainConfig, TrainReport, grid_search, train
from .metrics import error_curve, mape, mse

__all__ = [
    "AlignedDataset", "TimeSeries", "WeatherTable",
    "ExampleSet", "FeatureSpec", "acf", "build_examples", "select_window",
    "PowerNetParams", "init_params",
    "TrainConfig", "TrainReport", "grid_search", "train",
    "error_curve", "mape", "mse",
    "__version__",
]
