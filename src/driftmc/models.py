"""Euler-Maruyama simulation of the supported asset models.

Four multivariate dynamics share one driver convention: the first n driver
coordinates move the assets, the last n (when present) move the volatility
factors, and all cross-correlation is carried by the diffusion matrix.
Simulation runs either under the original measure or, when a drift network
is supplied, under the shifted measure obtained by adding the finite
variation part ``pi f dt`` to the same Gaussian increments; the per-path
log inverse likelihood then accumulates alongside the states.

Paths are stored innermost: increments and states live in
(n_steps, d, n_paths) and (n_steps+1, n_state, n_paths) buffers, so each
Euler step reads and writes contiguous rows of all paths.  Callers see
them as (n_paths, ...)-shaped views, which are not C-contiguous; copy
before reshaping.
"""

from dataclasses import dataclass

import numpy as np

from .covariation import (_readonly, cameron_martin_map,
                          log_likelihood_inverse, sample_increments)
from .errors import DimensionError, ModelValidationError, SimulationError
from .network import forward

BLACK_SCHOLES = "black_scholes"
HESTON = "heston"
THREE_HALVES = "three_halves"
STEIN_STEIN = "stein_stein"

MODEL_TAGS = (BLACK_SCHOLES, HESTON, THREE_HALVES, STEIN_STEIN)
_VOL_TAGS = (HESTON, THREE_HALVES, STEIN_STEIN)


def _vec(x, name):
    a = _readonly(x)
    if a.ndim != 1:
        raise DimensionError(f"{name} must be a 1-d array")
    return a


@dataclass(frozen=True)
class ModelSpec:
    """Parameters of one asset model, valid by construction: a spec that
    breaks a structural invariant raises :class:`ModelValidationError`.

    Every asset drifts at the short rate ``rate`` (risk-neutral dynamics),
    which also discounts the payoff.  ``reversion`` holds the diagonal of
    the mean-reversion speed matrix (storing the diagonal keeps the matrix
    diagonal by construction); ``mean_level`` is the reversion target.
    """

    tag: str
    sigma: np.ndarray
    s0: np.ndarray
    rate: float = 0.0
    mean_level: np.ndarray | None = None
    reversion: np.ndarray | None = None
    v0: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "s0", _vec(self.s0, "s0"))
        object.__setattr__(self, "sigma", _readonly(self.sigma))
        for name in ("mean_level", "reversion", "v0"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, _vec(value, name))
        violations = _violations(self)
        if violations:
            raise ModelValidationError(violations)

    @property
    def n(self):
        return self.s0.size

    @property
    def d(self):
        return self.sigma.shape[0]

    @property
    def has_volatility(self):
        return self.tag in _VOL_TAGS

    @property
    def n_state(self):
        return 2 * self.n if self.has_volatility else self.n


@dataclass(frozen=True)
class Violation:
    """One structural invariant breach, with the offending index if any."""

    code: str
    index: int | None
    message: str

    def __str__(self):
        where = "" if self.index is None else f"[{self.index}]"
        return f"{self.code}{where}: {self.message}"


def _violations(spec):
    """All structural violations of the spec; empty means ok."""
    out = []
    if spec.tag not in MODEL_TAGS:
        out.append(Violation("tag", None, f"unknown model tag {spec.tag!r}"))
        return out
    n = spec.n
    if spec.sigma.ndim != 2 or spec.sigma.shape[0] != spec.sigma.shape[1]:
        out.append(Violation("sigma", None, "must be a square matrix"))
        return out
    d = spec.d
    want_d = n if spec.tag == BLACK_SCHOLES else 2 * n
    if d != want_d:
        out.append(Violation("sigma", None,
                             f"driver dimension {d} but model needs {want_d}"))
        return out
    for name in ("sigma", "s0"):
        if not np.all(np.isfinite(getattr(spec, name))):
            out.append(Violation(name, None, "non-finite entries"))
    row_sq = np.sum(spec.sigma**2, axis=1)
    for k in np.nonzero(row_sq == 0.0)[0]:
        out.append(Violation("sigma", int(k), "zero row"))
    for k in np.nonzero(spec.s0 <= 0.0)[0]:
        out.append(Violation("s0", int(k), "must be positive"))

    if spec.tag == BLACK_SCHOLES:
        return out

    for name in ("mean_level", "reversion", "v0"):
        value = getattr(spec, name)
        if value is None:
            out.append(Violation(name, None, "required for this model"))
        elif value.size != n:
            out.append(Violation(name, None, f"length {value.size}, expected {n}"))
        elif not np.all(np.isfinite(value)):
            out.append(Violation(name, None, "non-finite entries"))
    if any(v.code in ("mean_level", "reversion", "v0") for v in out):
        return out

    vol_row_sq = row_sq[n:]
    if spec.tag in (HESTON, THREE_HALVES):
        for k in np.nonzero(spec.v0 <= 0.0)[0]:
            out.append(Violation("v0", int(k), "must be positive"))
    if spec.tag == HESTON:
        # Componentwise positivity criterion; boundary equality accepted.
        feller = 2.0 * spec.reversion * spec.mean_level
        for k in np.nonzero(feller < vol_row_sq)[0]:
            out.append(Violation(
                "feller", int(k),
                f"2*reversion*mean_level = {feller[k]:.6g} < "
                f"|sigma_vol|^2 = {vol_row_sq[k]:.6g}"))
    if spec.tag == THREE_HALVES:
        bound = -0.5 * vol_row_sq
        for k in np.nonzero(spec.reversion < bound)[0]:
            out.append(Violation(
                "non_explosion", int(k),
                f"reversion = {spec.reversion[k]:.6g} < "
                f"-|sigma_vol|^2/2 = {bound[k]:.6g}"))
    return out


@dataclass(frozen=True)
class PathBatch:
    """Simulated trajectories plus the data needed to reweight them.

    ``states`` has shape (n_paths, n_steps+1, n_state) with the assets in
    the leading n coordinates; ``increments``, shape (n_paths, n_steps, d),
    are the driver increments that produced the states;
    ``log_inverse_likelihood`` is zero under the original measure.  Both
    arrays are views of paths-innermost buffers, so they are not
    C-contiguous: copy before reshaping.
    """

    states: np.ndarray
    increments: np.ndarray
    log_inverse_likelihood: np.ndarray


def simulate(spec, grid, cov, rng, n_paths, drift=None):
    """Euler-Maruyama paths of the model on the given grid.

    The driver increments are drawn by :func:`sample_increments` from
    ``rng``, so ``cov`` must carry the model's own sigma on ``grid``.  With ``drift`` set, they are shifted by the finite variation
    part of the measure change and the log inverse likelihood is
    accumulated from those same shifted increments, so a zero drift
    reproduces the unshifted batch exactly.  The recursion runs on a
    paths-innermost (n_steps+1, n_state, n_paths) buffer, so every step
    works on contiguous rows of all paths; the returned
    :class:`PathBatch` holds (n_paths, ...)-shaped views of the buffers,
    which are not C-contiguous: copy before reshaping.
    """
    if not np.array_equal(cov.sigma, spec.sigma):
        raise DimensionError("covariation was built from another sigma")
    if (cov.grid.horizon, cov.grid.n_steps) != (grid.horizon, grid.n_steps):
        raise DimensionError("covariation was built on a different grid")
    if drift is not None and drift.output_width != spec.d:
        raise DimensionError("drift output width must match the driver dimension")

    dm = sample_increments(cov, rng, n_paths)
    rows = dm.transpose(1, 2, 0)  # the (n_steps, d, n_paths) buffer

    drift_eval = None
    if drift is not None:
        drift_eval = cameron_martin_map(forward(drift, grid.left_times), cov)
        # Finite variation part of the shifted driver: pi f dt per step.
        shift = drift_eval.cumulative[1:] - drift_eval.cumulative[:-1]
        rows += shift[:, :, None]

    n = spec.n
    states = np.empty((grid.n_steps + 1, spec.n_state, n_paths))
    states[0, :n] = spec.s0[:, None]
    if spec.has_volatility:
        states[0, n:] = spec.v0[:, None]

    # Overflow is detected explicitly below; do not warn along the way.
    with np.errstate(over="ignore", invalid="ignore"):
        _euler_loop(spec, states, rows, grid.dt)

    bad = np.nonzero(~np.isfinite(states).all(axis=(0, 1)))[0]
    if bad.size:
        raise SimulationError(bad)

    log_w = (np.zeros(n_paths) if drift_eval is None
             else log_likelihood_inverse(drift_eval, dm, cov))
    return PathBatch(states.transpose(2, 0, 1), dm, log_w)


def _euler_loop(spec, states, dm, h):
    """Euler steps on paths-innermost ``states`` (n_steps+1, n_state,
    n_paths) driven by ``dm`` (n_steps, d, n_paths)."""
    n = spec.n
    # Risk-neutral: every asset drifts at the short rate.
    growth = spec.rate * h
    if spec.has_volatility:
        # Parameters as columns, to broadcast along the paths.
        theta, m = spec.reversion[:, None], spec.mean_level[:, None]
    for k in range(dm.shape[0]):
        s = states[k, :n]
        if spec.tag == BLACK_SCHOLES:
            states[k + 1, :n] = s + s * growth + s * dm[k]
            continue
        v = states[k, n:]
        dm1, dm2 = dm[k, :n], dm[k, n:]
        if spec.tag == HESTON:
            vp = np.maximum(v, 0.0)
            root = np.sqrt(vp)
            states[k + 1, :n] = s + s * growth + s * root * dm1
            states[k + 1, n:] = v + theta * (m - vp) * h + root * dm2
        elif spec.tag == THREE_HALVES:
            vp = np.maximum(v, 0.0)
            states[k + 1, :n] = s + s * growth + s * np.sqrt(vp) * dm1
            states[k + 1, n:] = v + theta * vp * (m - vp) * h + vp**1.5 * dm2
        else:  # STEIN_STEIN, volatility signed
            states[k + 1, :n] = s + s * growth + s * v * dm1
            states[k + 1, n:] = v + theta * (m - v) * h + dm2
