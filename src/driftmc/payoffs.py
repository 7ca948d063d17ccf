"""Path functionals: arithmetic Asian basket calls, with optional knock-out.

The basket average is the trapezoidal quadrature of the weighted asset
value over the grid divided by the horizon.  Knock-out barriers are
monitored discretely at every grid node, endpoints included, with strict
inequalities.  Both are running sums over the nodes, so a
:class:`PayoffFold` takes a batch's nodes a tile at a time, as a pricing
chunk steps them, and :func:`evaluate_batch` is the same fold over a whole
stored path.
"""

from dataclasses import dataclass

import numpy as np

from .covariation import tiles
from .errors import ConfigError, DimensionError, number


@dataclass(frozen=True)
class PayoffSpec:
    """Weights summing to 1, a positive strike and optional ordered
    barriers, which knock the call out; a bad field is a ConfigError naming
    it, so every spec is valid by construction.  A run config's bad
    moneyness is refused first, by :func:`~driftmc.config.build_payoff`."""

    weights: np.ndarray
    strike: float
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)
        w.flags.writeable = False
        if not np.isclose(w.sum(), 1.0, atol=1e-9):
            raise ConfigError(f"weights must sum to 1, got {self.weights!r}")
        object.__setattr__(self, "weights", w)
        number(self.strike, "strike", positive=True)
        if (self.lower is None) != (self.upper is None):
            raise ConfigError("lower and upper must both be set or both be "
                              f"None, got {[self.lower, self.upper]!r}")
        if self.has_barriers and not self.lower < self.upper:
            raise ConfigError("lower must be below upper, got "
                              f"{[self.lower, self.upper]!r}")

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


class PayoffFold:
    """Running payoff sums of ``n_paths`` paths, fed their grid nodes in
    order: the trapezoid integral of the basket and, for barrier payoffs,
    whether every node so far was strictly inside the barriers."""

    def __init__(self, spec, grid, n_paths):
        self.spec, self.grid = spec, grid
        self.quadrature = node_quadrature(grid)
        self.integral = np.zeros(n_paths)
        self.alive = (np.ones(n_paths, dtype=bool) if spec.has_barriers
                      else None)

    def add(self, first, nodes):
        """Fold in the nodes ``first``, ``first + 1``, ... held by the
        finite, paths-innermost (t, n_state, n_paths) ``nodes``: one matrix
        product for their baskets, whose asset rows are contiguous, and
        one for their share of the integral."""
        spec = self.spec
        basket = spec.weights @ nodes[:, :spec.n_assets]  # (t, n_paths)
        self.integral += self.quadrature[first:first + len(nodes)] @ basket
        if self.alive is not None:
            self.alive &= ((basket > spec.lower)
                           & (basket < spec.upper)).all(axis=0)

    def result(self):
        """The :class:`PayoffBatch` of the nodes folded so far."""
        strike = self.spec.strike
        average = self.integral / self.grid.horizon
        values = np.maximum(average - strike, 0.0)
        knocked = None
        if self.alive is not None:
            knocked = ~self.alive
            values = values * self.alive
        return PayoffBatch(values=values, above_strike=average > strike,
                           knocked_out=knocked)


def evaluate_batch(spec, states, grid):
    """Vectorized payoff of a batch of trajectories.

    ``states`` has shape (n_paths, n_steps+1, n_state), in any memory
    layout, and is finite, as :func:`~driftmc.models.simulate` guarantees
    by raising on a blow-up; only the leading asset block enters the
    basket.  The nodes are folded by a :class:`PayoffFold` in the order a
    pricing chunk folds them: node 0, then the nodes each tile of
    :func:`~driftmc.covariation.tiles` steps to.
    """
    nodes = np.asarray(states, dtype=np.float64).transpose(1, 2, 0)
    fold = PayoffFold(spec, grid, nodes.shape[2])
    fold.add(0, nodes[:1])
    for k0, k1 in tiles(grid.n_steps):
        fold.add(k0 + 1, nodes[k0 + 1:k1 + 1])
    return fold.result()
