"""Discretized covariation structure of the Gaussian driver.

The driver is a d-dimensional continuous martingale whose quadratic
covariation is a constant symmetric matrix ``pi = sigma @ sigma.T`` times
Lebesgue time on a uniform grid.  This module provides the weighted inner
product induced by that pair, the linear map sending an integrand to its
cumulative drift adjustment (an isometry onto the space of admissible
drifts), increment sampling, and the log-density of the inverse stochastic
exponential used to reweight paths after a change of measure.

All integrands are sampled at the left endpoint of each grid interval, the
same convention the Euler scheme uses for SDE coefficients.

The grid is cut into tiles of ``TILE_STEPS`` steps from step 0 on
(:func:`tiles`).  Increments are drawn step-major a tile at a time, and
the log-likelihood's stochastic integral is summed a tile at a time, so a
pricing chunk that draws, steps and weighs one tile after another reads
the numbers, and sums them in the order, of the whole-grid functions.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NonFiniteError, WeightOverflowError

# Per-path log-weights above this abort the run: the drift has drifted off.
MAX_LOG_WEIGHT = 50.0
# Grid steps drawn, mixed, stepped and folded at once.  A 256-path tile of
# a 20-dim model is 0.66 MB of normals, 0.66 MB of increments and 0.70 MB
# of states, so each stage reads it from cache.  On 2 vCPUs (Python 3.11,
# numpy 2.4) a two-thread plain plus IS estimate of the benchmark's three
# scenarios took 8-12% longer at 8 steps than at 16, and 16 to 48 steps
# were within 4% of each other; 16 holds the least.
TILE_STEPS = 16


def _readonly(a):
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid 0 = t_0 < ... < t_K = horizon with K = n_steps.

    ``dt`` = horizon / n_steps is the length of every interval
    (t_k, t_{k+1}]; the Euler scheme, increment sampling, the drift map and
    the payoff quadrature all read it.
    """

    horizon: float
    n_steps: int
    times: np.ndarray = field(init=False)
    dt: float = field(init=False)

    def __post_init__(self):
        if not self.horizon > 0.0:
            raise ValueError("horizon must be positive")
        if self.n_steps < 1:
            raise ValueError("n_steps must be positive")
        object.__setattr__(self, "horizon", float(self.horizon))
        object.__setattr__(self, "n_steps", int(self.n_steps))
        object.__setattr__(self, "times", _readonly(
            np.linspace(0.0, self.horizon, self.n_steps + 1)))
        object.__setattr__(self, "dt", self.horizon / self.n_steps)

    @property
    def left_times(self):
        return self.times[:-1]


@dataclass(frozen=True)
class CovariationSpec:
    """Diffusion matrix and its covariation density ``pi = sigma sigma'``
    on a grid.  ``sigma`` is not checked here: a model's is square, finite
    and without a zero row, as :class:`~driftmc.models.ModelSpec` checks."""

    sigma: np.ndarray
    grid: TimeGrid
    pi: np.ndarray = field(init=False)

    def __post_init__(self):
        sigma = _readonly(self.sigma)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "pi", _readonly(sigma @ sigma.T))

    @property
    def d(self):
        return self.sigma.shape[0]


@dataclass(frozen=True)
class DriftEvaluation:
    """A drift adjustment evaluated on the grid.

    ``values[k]`` is the integrand at the left endpoint t_k, ``cumulative[k]``
    the drift at node t_k (zero at the origin), ``shift[k]`` its increment
    pi f_k dt over step k, and ``h_norm_sq`` its squared norm in the drift
    space, which discretely equals the weighted squared norm of the
    integrand.
    """

    values: np.ndarray
    cumulative: np.ndarray
    shift: np.ndarray
    h_norm_sq: float


def _check_grid_values(f, spec, name):
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (spec.grid.n_steps, spec.d):
        raise DimensionError(
            f"{name} must have shape (n_steps, d) = "
            f"({spec.grid.n_steps}, {spec.d}), got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise NonFiniteError(f"{name} has non-finite entries")
    return f


def lambda2_inner(f, g, spec):
    """Weighted inner product  sum_k f_k' pi g_k  dt.

    The induced seminorm can vanish on nonzero integrands when ``pi`` is
    singular; equality of drifts is always tested through this form, never
    componentwise.
    """
    f = _check_grid_values(f, spec, "f")
    g = _check_grid_values(g, spec, "g")
    terms = np.sum((f @ spec.pi) * g, axis=1) * spec.grid.dt
    return float(np.sum(terms))


def cameron_martin_map(f, spec):
    """Map a grid-sampled integrand to its cumulative drift adjustment.

    Increments are pi f_k dt, accumulated from zero.  The squared norm
    is recovered from the accumulated increments rather than from
    ``lambda2_inner`` so the discrete isometry is validated through two
    separate floating-point routes.
    """
    f = _check_grid_values(f, spec, "f")
    increments = (f @ spec.pi) * spec.grid.dt
    cumulative = np.zeros((spec.grid.n_steps + 1, spec.d))
    np.cumsum(increments, axis=0, out=cumulative[1:])
    shift = cumulative[1:] - cumulative[:-1]
    h_norm_sq = float(np.sum(np.sum(f * shift, axis=1)))
    return DriftEvaluation(values=_readonly(f), cumulative=_readonly(cumulative),
                           shift=_readonly(shift), h_norm_sq=h_norm_sq)


def tiles(n_steps):
    """The steps [k0, k1) of each tile of an ``n_steps`` grid, in order:
    ``TILE_STEPS`` steps each from step 0 on, the last one shorter when
    ``TILE_STEPS`` does not divide ``n_steps``."""
    return [(k0, min(k0 + TILE_STEPS, n_steps))
            for k0 in range(0, n_steps, TILE_STEPS)]


def sample_increments(spec, rng, n_paths, n_steps=None, out=None):
    """Draw driver increments of the first ``n_steps`` steps (the whole
    grid if None) for ``n_paths`` paths, or of the next ones of the stream.

    Step k is sigma z sqrt(dt) with z standard normal, so its covariance
    is pi dt; increments are independent across steps and paths.  The
    normals are drawn step-major, a tile at a time: one (t, d, n_paths)
    ``standard_normal`` call per tile of :func:`tiles`, scaled, then mixed
    by one stacked matrix product straight into its rows of a
    paths-innermost (n_steps, d, n_paths) buffer, ``out`` if given, else a
    new array.  So the stream is read in the order of one
    (n_steps, d, n_paths) draw whatever the tiling, and no normal array
    larger than a tile is held; a caller that draws a chunk a tile at a
    time, one call per tile, reads the numbers of one whole-grid call of
    the same width.  Returns the buffer as an (n_paths, n_steps, d) view,
    which is not C-contiguous: copy before reshaping.  ``n_paths = 0``
    yields an empty batch.  :func:`~driftmc.models.simulate` checks
    ``out``'s shape.
    """
    d = spec.d
    if n_steps is None:
        n_steps = spec.grid.n_steps
    if out is None:
        out = np.empty((n_steps, d, n_paths))
    scale = np.sqrt(spec.grid.dt)
    for k0, k1 in tiles(n_steps):
        z = rng.standard_normal((k1 - k0, d, n_paths))
        z *= scale
        np.matmul(spec.sigma, z, out=out[k0:k1])
        del z  # free this tile before the next is drawn
    return out.transpose(2, 0, 1)


def ito_sum(drift, increments, first):
    """sum_k f_k' dM_k over the steps ``first``, ``first + 1``, ... that
    ``increments`` holds, shaped (..., t, d) in any memory layout: one
    tile's share of the stochastic integral of :func:`log_likelihood_inverse`.
    The sum is einsum's own loop, not BLAS."""
    values = drift.values[first:first + increments.shape[-2]]
    return np.einsum("kd,...kd->...", values, increments)


def log_weight(drift, ito):
    """-ito + h_norm_sq / 2, the log inverse likelihood of paths whose
    stochastic integral sum_k f_k' dM_k is ``ito``.  Raises
    :class:`WeightOverflowError` when one exceeds ``MAX_LOG_WEIGHT``."""
    log_w = -ito + 0.5 * drift.h_norm_sq
    if np.any(log_w > MAX_LOG_WEIGHT):
        raise WeightOverflowError(
            f"log weight reached {np.max(log_w):.1f} (> {MAX_LOG_WEIGHT:.0f}); "
            "the drift adjustment is too large")
    return log_w


def log_likelihood_inverse(drift, increments, spec):
    """Log of the inverse stochastic exponential along given increments.

    Returns -sum_k f_k' dM_k + h_norm_sq / 2 with the left-endpoint (Ito)
    reading of the stochastic integral.  The increments must be the same
    ones that drove the path, under whichever measure it was simulated.
    Accepts one path (n_steps, d) or a batch (..., n_steps, d) in any
    memory layout.  The integral is summed a tile of :func:`tiles` at a
    time by :func:`ito_sum`, as a pricing chunk sums it while it draws, and
    :func:`log_weight` guards the result.
    """
    increments = np.asarray(increments, dtype=np.float64)
    want = (spec.grid.n_steps, spec.d)
    if increments.shape[-2:] != want:
        raise DimensionError(
            f"increments must end in shape {want}, got {increments.shape}")
    if drift.values.shape != want:
        raise DimensionError("drift was evaluated on a different grid")
    ito = sum(ito_sum(drift, increments[..., k0:k1, :], k0)
              for k0, k1 in tiles(spec.grid.n_steps))
    return log_weight(drift, ito)
