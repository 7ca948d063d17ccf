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
Euler step reads and writes contiguous rows of all paths, in place.  A
simulation is four stages, which :func:`simulate` composes on the whole
grid: :func:`~driftmc.covariation.sample_increments` draws the increments
into the caller's buffer, :func:`evaluate_drift` gives the shift and the
weight's integrand, :func:`euler_steps` fills the caller's states buffer
from given increments, and
:func:`~driftmc.covariation.log_likelihood_inverse` weighs.  Pricing runs
the same stages on a tile of ``TILE_STEPS`` steps at a time (see
:mod:`driftmc.engine`), and reads the same numbers.  The two whole-grid
buffers are all :func:`simulate` holds of its paths besides one tile of
normals while the increments are drawn.  The caller may own them: a
simulation fills the buffers it is given, so a caller that simulates in
chunks allocates one set and reuses it, and each batch is a view that is
valid until the next simulation writes into the same buffers.  A batch
holds only the states, as an (n_paths, ...)-shaped view, which is not
C-contiguous (copy before reshaping); the increments stay in their buffer.

One thread at a time runs the Euler loop: :func:`euler_steps` holds the
process-wide ``_EULER_LOCK`` around it.  The loop makes about 4
(Black-Scholes) to 10 (20-dim Heston) small ufunc calls per step, and
numpy releases and retakes the GIL around each, so two threads stepping at
once trade the GIL thousands of times per chunk.  On 2 vCPUs (Python 3.11,
numpy 2.4), two threads running only the loop ran at 0.53 (Black-Scholes),
0.65 (Heston) and 0.46 (Stein-Stein) times the speed of one, while the
normal draws, which release the GIL once per draw, ran at 1.9 times.  With
the lock, one thread steps a tile while the other draws or folds, and the
arithmetic is unchanged.  On one thread, the steps are about a fifth
(Black-Scholes) to a third (Heston) of a plain 256-path chunk and the
normal draws most of the rest, which caps pricing with the lock at about 3
to 5 times one thread; above 2 cores that is unmeasured.  Without the lock
the GIL already serialises the loop's per-call overhead.
"""

import math
import threading
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

# Held by whichever thread runs the Euler loop (see the module docstring).
_EULER_LOCK = threading.Lock()


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
        return out + [Violation(name, None, "not a parameter of this model")
                      for name in ("mean_level", "reversion", "v0")
                      if getattr(spec, name) is not None]

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
    """Simulated trajectories plus the weights that undo the drift.

    ``states`` has shape (n_paths, n_steps+1, n_state) with the assets in
    the leading n coordinates, a view of a paths-innermost buffer, so not
    C-contiguous: copy before reshaping.  ``log_inverse_likelihood`` is
    zero under the original measure.  The increments stay in the buffer
    :func:`simulate` drew them into, the caller's when it passed ``out``.
    A caller's buffers hold this batch only until it simulates into them
    again.
    """

    states: np.ndarray
    log_inverse_likelihood: np.ndarray


# Paths simulated at once by the chunked callers, pricing and training.  A
# chunk's width is the column count of every product of its draws, whose
# last bits can depend on it, so the chunks of a batch are cut from its
# first path on, and pricing and training cut them alike.
CHUNK_SIZE = 256


def leading(buffer, shape):
    """The C-contiguous array of ``shape`` on the first entries of the
    flat ``buffer``: one chunk's or tile's view of a buffer sized for the
    widest."""
    return buffer[:math.prod(shape)].reshape(shape)


def evaluate_drift(drift, grid, cov):
    """The drift net ``drift`` on ``grid`` as a
    :class:`~driftmc.covariation.DriftEvaluation`, or None for no drift:
    what a simulation under the shifted measure reads of the net."""
    if drift is None:
        return None
    return cameron_martin_map(forward(drift, grid.left_times), cov)


def initial_state(spec, row):
    """Write the model's initial state into every path of the
    (n_state, n_paths) ``row``: s0 on the assets, v0 on the volatilities."""
    row[:spec.n] = spec.s0[:, None]
    if spec.has_volatility:
        row[spec.n:] = spec.v0[:, None]


def euler_steps(spec, states, increments, h):
    """Euler-Maruyama steps of size ``h`` from ``states[0]``: fill the
    rest of the paths-innermost (k+1, n_state, n_paths) ``states`` from the
    (k, d, n_paths) ``increments``, one thread at a time (see the module
    docstring).  Every step adds x_k to x_{k+1}, so a coordinate that
    leaves the finite numbers stays out of them up to the last row, and
    :class:`SimulationError` names, from that row alone, the paths that
    blew up in these steps or before them.
    """
    # Overflow is detected explicitly below; do not warn along the way.
    with _EULER_LOCK, np.errstate(over="ignore", invalid="ignore"):
        _euler_loop(spec, states, increments, h)
    bad = np.nonzero(~np.isfinite(states[-1]).all(axis=0))[0]
    if bad.size:
        raise SimulationError(bad)


def simulate(spec, grid, cov, rng, n_paths, drift=None, out=None):
    """Euler-Maruyama paths of the model on the given grid: the whole-grid
    composition of a draw, a shift, the steps and the weight.

    The driver increments of the whole grid are drawn by
    :func:`sample_increments` from ``rng``, so ``cov`` must carry the
    model's own sigma on ``grid``.  With ``drift`` set, they are shifted by
    the finite variation part of the measure change and the log inverse
    likelihood is accumulated from those same shifted increments, so a zero
    drift reproduces the unshifted batch exactly.  :func:`euler_steps` then
    fills the states from the initial state and raises on a blow-up.  A
    pricing chunk runs the same four stages a tile at a time, on the same
    numbers.

    ``out``, if given, is the pair of paths-innermost buffers to fill, the
    increments (n_steps, d, n_paths) and the states
    (n_steps+1, n_state, n_paths), which the caller owns; otherwise both
    are new arrays.  Their shapes and ``cov``'s sigma and grid are checked
    here, before anything is drawn; :class:`ModelSpec` checked sigma.  The
    returned :class:`PathBatch` holds a view of the states buffer, valid
    until the next call that writes into it.  A caller that reads the
    increments, shifted when ``drift`` is set, passes ``out`` and reads
    that buffer.
    """
    if not np.array_equal(cov.sigma, spec.sigma):
        raise DimensionError("covariation was built from another sigma")
    if (cov.grid.horizon, cov.grid.n_steps) != (grid.horizon, grid.n_steps):
        raise DimensionError("covariation was built on a different grid")
    shapes = ((grid.n_steps, spec.d, n_paths),
              (grid.n_steps + 1, spec.n_state, n_paths))
    if out is not None and tuple(a.shape for a in out) != shapes:
        raise DimensionError(f"out must have shapes {shapes}, got "
                             f"{tuple(a.shape for a in out)}")
    increments, states = (None, None) if out is None else out

    dm = sample_increments(cov, rng, n_paths, out=increments)
    rows = dm.transpose(1, 2, 0)  # the (n_steps, d, n_paths) buffer

    drift_eval = evaluate_drift(drift, grid, cov)
    if drift_eval is not None:
        # Finite variation part of the shifted driver: pi f dt per step.
        rows += drift_eval.shift[:, :, None]

    if states is None:
        states = np.empty(shapes[1])
    initial_state(spec, states[0])
    euler_steps(spec, states, rows, grid.dt)

    log_w = (np.zeros(n_paths) if drift_eval is None
             else log_likelihood_inverse(drift_eval, dm, cov))
    return PathBatch(states.transpose(2, 0, 1), log_w)


def _euler_loop(spec, states, dm, h):
    """Euler steps on paths-innermost ``states`` (n_steps+1, n_state,
    n_paths) driven by ``dm`` (n_steps, d, n_paths).

    Each step is x_{k+1} = (x_k + a) + b dM_k on whole (n_state, n_paths)
    rows, written in place: the drift term ``a`` is built in row k+1
    itself, and the diffusion coefficient ``b`` is row k for Black-Scholes
    and a scratch row otherwise.  Every term takes the operations of the
    model's scalar recursion in its order, so every value is the one that
    recursion gives.
    """
    n = spec.n
    # Risk-neutral: every asset drifts at the short rate.
    growth = spec.rate * h
    bdm = np.empty(states.shape[1:])  # b dM_k
    if spec.has_volatility:
        # Parameters as columns, to broadcast along the paths.
        theta, m = spec.reversion[:, None], spec.mean_level[:, None]
        b = np.empty_like(bdm)
        bs, bv = b[:n], b[n:]
        vp = np.empty_like(bv)
        if spec.tag == STEIN_STEIN:
            bv.fill(1.0)
    for k in range(dm.shape[0]):
        x, nxt = states[k], states[k + 1]
        if spec.tag == BLACK_SCHOLES:
            # a = s r h, b = s
            np.multiply(x, growth, out=nxt)
            b = x
        else:
            s, v, ds, dv = x[:n], x[n:], nxt[:n], nxt[n:]
            np.multiply(s, growth, out=ds)
        if spec.tag == HESTON:
            # a = (s r h, theta (m - v+) h), b = (s sqrt(v+), sqrt(v+))
            np.maximum(v, 0.0, out=vp)
            np.sqrt(vp, out=bv)
            np.multiply(s, bv, out=bs)
            np.subtract(m, vp, out=dv)
            dv *= theta
            dv *= h
        elif spec.tag == THREE_HALVES:
            # a = (s r h, theta v+ (m - v+) h), b = (s sqrt(v+), v+^1.5)
            np.maximum(v, 0.0, out=vp)
            np.sqrt(vp, out=bs)
            bs *= s
            np.multiply(theta, vp, out=bv)
            np.subtract(m, vp, out=dv)
            dv *= bv
            dv *= h
            np.power(vp, 1.5, out=bv)
        elif spec.tag == STEIN_STEIN:  # volatility signed
            # a = (s r h, theta (m - v) h), b = (s v, 1)
            np.multiply(s, v, out=bs)
            np.subtract(m, v, out=dv)
            dv *= theta
            dv *= h
        nxt += x
        np.multiply(b, dm[k], out=bdm)
        nxt += bdm
