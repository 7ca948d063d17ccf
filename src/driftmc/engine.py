"""Plain and importance-sampled price estimators; each estimator report is
one JSON record, and a comparison row is the two reports it compares and
their variance ratio, so a row states each estimate once.

The block is the unit of reproducibility: paths are simulated in
fixed-size blocks, each block on its own derived random substream.  Each
chunk writes its weighted payoffs into its slice of the estimate's one
per-path array, and each block returns its event counts; the estimate
reduces the array once.  The partition depends only on the sample size, so
the array, and with it every result, is bit-identical across thread counts.

A block is priced ``CHUNK_SIZE`` paths at a time, its chunks drawn one
after another from the block's one substream, and a chunk is advanced
``TILE_STEPS`` steps at a time (see :func:`_price_chunk`): each tile is
drawn, shifted, weighed, stepped and folded into the chunk's running
payoff sums while it is still in cache, so no array of a chunk spans the
grid.  Its numbers are those of :func:`~driftmc.models.simulate`,
:func:`~driftmc.payoffs.evaluate_batch` and
:func:`~driftmc.covariation.log_likelihood_inverse` on the chunk's paths,
which run the same stages on the whole grid.  Each thread of an
estimate's pool allocates one increments tile and one states tile,
paths-innermost and as wide as the estimate's widest chunk,
``min(CHUNK_SIZE, block_size, n)`` paths, when the thread starts, and
advances every chunk of every block it runs in them.  A 20-dim Heston
thread holds 0.7 MB of each, against 10.3 MB of increments and 10.4 MB of
states for a whole 252-step chunk.  The drift is evaluated on the grid
once per estimate.  Prices are reported discounted, in cents.
"""

import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .covariation import (TILE_STEPS, ito_sum, log_weight, sample_increments,
                          tiles)
from .errors import NonFiniteError, SimulationError
# ``simulate`` and ``evaluate_batch`` stay names of this module, unused:
# the benchmark's tracing (perfbench) hooks them here.
from .models import (CHUNK_SIZE, euler_steps, evaluate_drift,  # noqa: F401
                     initial_state, leading, simulate)
from .payoffs import PayoffFold, check_width, evaluate_batch  # noqa: F401
from .stats import RunningMoments
from . import streams

log = logging.getLogger(__name__)

DEFAULT_BLOCK_SIZE = 2048


@dataclass(frozen=True)
class EstimatorReport:
    """One estimator summary: one side of a comparison row, and what
    ``price`` writes without a checkpoint.

    Every field but ``wall_seconds`` is the report's JSON form, in
    declaration order.  ``se_pct`` is the standard error as a percent of
    the mean, ``kappa`` the fraction of paths whose basket average beat the
    strike, ``theta`` the knocked-out fraction (barrier payoffs only) and
    ``per_sample_variance`` the sample variance of one discounted per-path
    estimate in cents squared (the quantity variance ratios compare).
    ``wall_seconds`` is diagnostic only: a run writes it to
    ``timings.json``, outside the byte-identical artifacts.
    ``sample_size`` is an alias of ``n``, kept only for ``perfbench``.
    """

    label: str
    measure: str
    n: int
    mean_cents: float
    se_pct: float
    kappa: float
    theta: float | None
    per_sample_variance: float
    seed: int
    wall_seconds: float

    @property
    def sample_size(self):
        return self.n


def _block_plan(total, block_size):
    """Fixed partition of the sample into (index, start, size) blocks."""
    return [(index, start, min(block_size, total - start))
            for index, start in enumerate(range(0, total, block_size))]


def _price_chunk(model, payoff, grid, cov, drift, rng, width, tiles_buf):
    """The payoffs and log-weights of the next ``width`` paths of ``rng``,
    advanced a tile of :func:`~driftmc.covariation.tiles` at a time in the
    flat buffers ``tiles_buf``: increments and states.

    Per tile, the increments are drawn by :func:`sample_increments` into a
    leading view of the increments buffer, shifted by ``drift`` (a
    :class:`~driftmc.covariation.DriftEvaluation` or None) and summed into
    the stochastic integral, then stepped by :func:`euler_steps` from the
    states buffer's first row, which carries the last state of the tile
    before, and the nodes they step to are folded into a
    :class:`PayoffFold`.  The stream is read as by one whole-grid draw of
    ``width`` paths.  Returns the :class:`~driftmc.payoffs.PayoffBatch` and
    the log inverse likelihoods, zero under the original measure.
    """
    increments, states = tiles_buf
    fold = PayoffFold(payoff, grid, width)
    ito = np.zeros(width)
    first = leading(states, (1, model.n_state, width))
    initial_state(model, first[0])
    fold.add(0, first)
    for k0, k1 in tiles(grid.n_steps):
        dm = leading(increments, (k1 - k0, model.d, width))
        sample_increments(cov, rng, width, k1 - k0, out=dm)
        if drift is not None:
            dm += drift.shift[k0:k1, :, None]
            ito += ito_sum(drift, dm.transpose(2, 0, 1), k0)
        x = leading(states, (k1 - k0 + 1, model.n_state, width))
        euler_steps(model, x, dm, grid.dt)
        fold.add(k0 + 1, x[1:])
        x[0] = x[-1]
    # Under P nothing was summed, and the log-weights are the zeros.
    log_w = ito if drift is None else log_weight(drift, ito)
    return fold.result(), log_w


def _simulate_block(model, payoff, grid, cov, drift, seed, block,
                    discount_cents, values, tiles_buf):
    """Write the weighted discounted payoffs of ``block = (index, start,
    size)`` into ``values[start:start + size]``, and return its counts of
    paths above the strike and of knocked-out paths.

    The block's chunks are drawn in path order from its one substream,
    ``substream(seed, ESTIMATE, index)``, each by :func:`_price_chunk` in
    ``tiles_buf``, the calling thread's flat tile buffers, as wide as any
    chunk of the block, so a short last chunk has the layout of a chunk of
    its own.  A path that blows up is reported by its estimate-wide id,
    ``start`` plus its place in the block.
    """
    index, start, size = block
    rng = streams.substream(seed, streams.ESTIMATE, index)
    above = knocked = 0
    for lo in range(start, start + size, CHUNK_SIZE):
        hi = min(lo + CHUNK_SIZE, start + size)
        try:
            pay, log_w = _price_chunk(model, payoff, grid, cov, drift, rng,
                                      hi - lo, tiles_buf)
        except SimulationError as exc:
            raise exc.shifted(lo) from exc
        # Under P the log-weights are zero and v * exp(0) == v exactly, so a
        # plain block is an IS block with unit weights, bit for bit.
        values[lo:hi] = pay.values * np.exp(log_w) * discount_cents
        above += int(np.count_nonzero(pay.above_strike))
        if payoff.has_barriers:
            knocked += int(np.count_nonzero(pay.knocked_out))
    return above, knocked


def _estimate(model, payoff, grid, cov, drift, seed, n, label, threads,
              block_size):
    check_width(payoff, model.n)
    begin = time.perf_counter()
    discount_cents = 100.0 * math.exp(-model.rate * grid.horizon)
    drift_eval = evaluate_drift(drift, grid, cov)
    values = np.empty(n)
    width = min(CHUNK_SIZE, block_size, n)
    steps = min(TILE_STEPS, grid.n_steps)
    local = threading.local()

    def allocate():
        local.tiles = (np.empty(steps * model.d * width),
                       np.empty((steps + 1) * model.n_state * width))

    def worker(block):
        # Blocks write disjoint slices of ``values``, so they need no lock.
        return _simulate_block(model, payoff, grid, cov, drift_eval, seed,
                               block, discount_cents, values, local.tiles)

    with ThreadPoolExecutor(max_workers=threads, initializer=allocate) as pool:
        counts = list(pool.map(worker, _block_plan(n, block_size)))
    with np.errstate(over="ignore", invalid="ignore"):
        moments = RunningMoments.from_array(values)
    if not (math.isfinite(moments.mean) and math.isfinite(moments.m2)):
        raise NonFiniteError(f"estimate {label!r} is not finite: mean "
                             f"{moments.mean}, variance {moments.variance()}")
    above, knocked = map(sum, zip(*counts))

    mean = moments.mean
    # An all-zero sample has no relative error to speak of, and a one-path
    # sample no error estimate: never "exact".
    if mean == 0.0 or n == 1:
        se_pct = math.inf
    else:
        se_pct = 100.0 * moments.standard_error() / abs(mean)
    return EstimatorReport(
        label=label,
        measure="P" if drift is None else "P_h",
        n=n,
        mean_cents=mean,
        se_pct=se_pct,
        kappa=above / n,
        theta=knocked / n if payoff.has_barriers else None,
        per_sample_variance=moments.variance(),
        seed=seed,
        wall_seconds=time.perf_counter() - begin,
    )


def estimate_plain(model, payoff, grid, cov, seed, n, label="run", threads=1,
                   block_size=DEFAULT_BLOCK_SIZE):
    """Plain Monte Carlo price estimate under the original measure."""
    return _estimate(model, payoff, grid, cov, None, seed, n, label, threads,
                     block_size)


def estimate_is(model, payoff, grid, cov, drift, seed, n, label="run",
                threads=1, block_size=DEFAULT_BLOCK_SIZE):
    """Importance-sampled estimate: simulate under the drift-adjusted
    measure and reweight every payoff by the inverse likelihood ratio."""
    return _estimate(model, payoff, grid, cov, drift, seed, n, label, threads,
                     block_size)


@dataclass(frozen=True)
class ComparisonRow:
    """A plain and an importance-sampled report at one sample size and their
    variance ratio: one record of ``reports.json["comparison"]``."""

    plain: EstimatorReport
    importance: EstimatorReport
    vr: float


def variance_ratio(report_mc, report_is):
    """Plain-MC per-sample variance over importance-sampled variance.

    A zero importance-sampled variance against a plain estimator that
    varies is degenerate, not an infinite reduction (every weight may have
    underflowed to zero): the ratio is undefined and returned as NaN.
    """
    var_mc = report_mc.per_sample_variance
    var_is = report_is.per_sample_variance
    if var_is == 0.0:
        if var_mc > 0.0:
            log.warning("importance-sampled variance is zero while the plain "
                        "estimator varies; ratio reported as NaN")
            return math.nan
        return 1.0
    return var_mc / var_is


def compare(report_mc, report_is):
    """Combine a plain and an importance-sampled report of one scenario,
    at one sample size, into one row."""
    return ComparisonRow(report_mc, report_is,
                         variance_ratio(report_mc, report_is))


def report_to_dict(report):
    """Every field but ``wall_seconds``; VR belongs to a comparison row."""
    return {k: v for k, v in asdict(report).items() if k != "wall_seconds"}


def comparison_to_dict(row):
    """A comparison row's JSON: its two reports and their VR."""
    return {"plain": report_to_dict(row.plain),
            "importance": report_to_dict(row.importance), "vr": row.vr}

