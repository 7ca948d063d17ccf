"""Monte Carlo pricing of path-dependent options with learned drift
importance sampling.

The sampling measure of a multivariate diffusion is tilted by a
deterministic drift adjustment generated by a shallow feedforward network,
paths are reweighted by the inverse stochastic exponential of the tilt, and
the network is trained to minimize the reweighted second moment of the
payoff, reducing the variance of the price estimator.
"""

from .covariation import (CovariationSpec, DriftEvaluation, TimeGrid,
                          cameron_martin_map, lambda2_inner,
                          log_likelihood_inverse, sample_increments)
from .engine import (ComparisonRow, EstimatorReport, compare, estimate_is,
                     estimate_plain, variance_ratio)
from .models import ModelSpec, PathBatch, Violation, simulate
from .network import (AdamState, ShallowNet, adam_step, forward, init_net,
                      load_checkpoint, save_checkpoint)
from .payoffs import PayoffSpec, basket_weights, evaluate_batch
from .training import TrainConfig, TrainTrace, train
from .config import resolve_config, sample_parameters

__version__ = "0.1.0"

__all__ = [
    "AdamState", "ComparisonRow", "CovariationSpec", "DriftEvaluation",
    "EstimatorReport", "ModelSpec", "PathBatch", "PayoffSpec", "ShallowNet",
    "TimeGrid", "TrainConfig", "TrainTrace", "Violation", "adam_step",
    "basket_weights", "cameron_martin_map", "compare", "estimate_is",
    "estimate_plain", "evaluate_batch", "forward", "init_net",
    "lambda2_inner", "load_checkpoint", "log_likelihood_inverse",
    "resolve_config", "sample_increments", "sample_parameters",
    "save_checkpoint", "simulate", "train", "variance_ratio",
]
