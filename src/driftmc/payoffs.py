"""Path functionals: arithmetic Asian basket calls, with optional knock-out.

The basket average is the trapezoidal quadrature of the weighted asset
value over the grid divided by the horizon.  Knock-out barriers are
monitored discretely at every grid node, endpoints included, with strict
inequalities.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError


@dataclass(frozen=True)
class PayoffSpec:
    """Weights, strike and optional barriers; with barriers the call is
    knocked out."""

    weights: np.ndarray
    strike: float
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        if not np.isclose(w.sum(), 1.0, atol=1e-9):
            raise ValueError("basket weights must sum to 1")
        if not self.strike > 0.0:
            raise ValueError("strike must be positive")
        if (self.lower is None) != (self.upper is None):
            raise ValueError("knock-out payoff needs both barriers")
        if self.has_barriers and not self.lower < self.upper:
            raise ValueError("need lower < upper barrier")

    @property
    def n_assets(self):
        return self.weights.size

    @property
    def has_barriers(self):
        return self.lower is not None


def check_width(spec, n_assets):
    """Reject a basket whose width differs from the model's asset count."""
    if spec.n_assets != n_assets:
        raise DimensionError(f"payoff has {spec.n_assets} weights but the "
                             f"model has {n_assets} assets")


def basket_weights(sigma, n):
    """Inverse-volatility weights 1 / |sigma row k| of the n assets,
    normalized to sum to 1; the asset rows are the first n rows of sigma."""
    norms = np.linalg.norm(np.asarray(sigma, dtype=np.float64)[:n], axis=1)
    if np.any(norms == 0.0):
        raise ValueError("sigma must not contain a zero asset row")
    raw = 1.0 / norms
    return raw / raw.sum()


def node_quadrature(grid):
    """Per-node trapezoid weights for integrating over the grid."""
    half = 0.5 * grid.dt
    w = np.zeros(grid.n_steps + 1)
    w[:-1] += half
    w[1:] += half
    return w


@dataclass(frozen=True)
class PayoffBatch:
    """Per-path payoff values with the diagnostic event indicators.

    ``above_strike`` marks paths whose basket average exceeds the strike
    (the event behind the positive-payoff fraction); ``knocked_out`` is
    None for barrier-free payoffs.
    """

    values: np.ndarray
    above_strike: np.ndarray
    knocked_out: np.ndarray | None


def evaluate_batch(spec, states, grid):
    """Vectorized payoff of a batch of trajectories.

    ``states`` has shape (n_paths, n_steps+1, n_state), in any memory
    layout, and is finite, as :func:`~driftmc.models.simulate` guarantees
    by raising on a blow-up; only the leading asset block enters the
    basket.  The basket is one matrix-vector product per grid node, over
    the (n_assets, n_paths) asset rows, which are contiguous for a
    paths-innermost batch from :func:`~driftmc.models.simulate`.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim != 3 or states.shape[1] != grid.n_steps + 1:
        raise DimensionError(
            "states must have shape (n_paths, n_steps+1, n_state)")
    if states.shape[2] < spec.n_assets:
        raise DimensionError("state dimension smaller than the basket size")
    # (n_steps+1, n_paths): node first, paths innermost.
    basket = spec.weights @ states.transpose(1, 2, 0)[:, :spec.n_assets]
    average = (node_quadrature(grid) @ basket) / grid.horizon
    above = average > spec.strike
    values = np.maximum(average - spec.strike, 0.0)
    knocked = None
    if spec.has_barriers:
        inside = (basket > spec.lower) & (basket < spec.upper)
        alive = inside.all(axis=0)
        knocked = ~alive
        values = values * alive
    return PayoffBatch(values=values, above_strike=above, knocked_out=knocked)
