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
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NonFiniteError, WeightOverflowError

# Per-path log-weights above this abort the run: the drift has drifted off.
MAX_LOG_WEIGHT = 50.0
# Paths whose normals are drawn and mixed at once, so that a slice is mixed
# while it is still in cache.  A product's last bits can depend on its
# column count, so a batch is cut into slices from its first path on, and
# a chunk, ``models.CHUNK_SIZE`` paths, is whole slices.
SLICE_PATHS = 64


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


def sample_increments(spec, rng, n_paths, out=None):
    """Draw driver increments for ``n_paths`` paths.

    Step k is sigma z sqrt(dt) with z standard normal, so its covariance
    is pi dt; increments are independent across steps and paths.  The
    normals are drawn path-major, ``SLICE_PATHS`` paths at a time, each
    slice of shape (paths, n_steps, d) mixed by one small matrix product
    per step straight into its columns of a paths-innermost
    (n_steps, d, n_paths) buffer: ``out`` if given, in any memory layout,
    else a new array.  The stream is read in the order of one
    (n_paths, n_steps, d) draw, and no normal array larger than a slice is
    held.  Returns the buffer as an (n_paths, n_steps, d) view, which is
    not C-contiguous: copy before reshaping.  ``n_paths = 0`` yields an
    empty batch.  :func:`~driftmc.models.simulate` checks ``out``'s shape.
    """
    n_steps, d = spec.grid.n_steps, spec.d
    if out is None:
        out = np.empty((n_steps, d, n_paths))
    scale = np.sqrt(spec.grid.dt)
    for start in range(0, n_paths, SLICE_PATHS):
        stop = min(start + SLICE_PATHS, n_paths)
        z = rng.standard_normal((stop - start, n_steps, d))
        z *= scale
        np.matmul(spec.sigma, z.transpose(1, 2, 0), out=out[:, :, start:stop])
        del z  # free this slice before the next is drawn
    return out.transpose(2, 0, 1)


def log_likelihood_inverse(drift, increments, spec):
    """Log of the inverse stochastic exponential along given increments.

    Returns -sum_k f_k' dM_k + h_norm_sq / 2 with the left-endpoint (Ito)
    reading of the stochastic integral.  The increments must be the same
    ones that drove the path, under whichever measure it was simulated.
    Accepts one path (n_steps, d) or a batch (..., n_steps, d) in any
    memory layout; the sum is einsum's own loop, not BLAS.  Raises
    :class:`WeightOverflowError` when a log-weight exceeds
    ``MAX_LOG_WEIGHT``.
    """
    increments = np.asarray(increments, dtype=np.float64)
    want = (spec.grid.n_steps, spec.d)
    if increments.shape[-2:] != want:
        raise DimensionError(
            f"increments must end in shape {want}, got {increments.shape}")
    if drift.values.shape != want:
        raise DimensionError("drift was evaluated on a different grid")
    stochastic = np.einsum("kd,...kd->...", drift.values, increments)
    log_w = -stochastic + 0.5 * drift.h_norm_sq
    if np.any(log_w > MAX_LOG_WEIGHT):
        raise WeightOverflowError(
            f"log weight reached {np.max(log_w):.1f} (> {MAX_LOG_WEIGHT:.0f}); "
            "the drift adjustment is too large")
    return log_w
