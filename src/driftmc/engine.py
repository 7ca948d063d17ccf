"""Plain and importance-sampled price estimators; each estimator report is
one JSON record, and a comparison row is the two reports it compares and
their variance ratio, so a row states each estimate once.

The block is the unit of reproducibility: paths are simulated in
fixed-size blocks, each block on its own derived random substream.  Each
chunk writes its weighted payoffs into its slice of the estimate's one
per-path array, and each block returns its event counts; the estimate
reduces the array once.  The partition depends only on the sample size, so
the array, and with it every result, is bit-identical across thread counts.
The chunk is the unit of memory: a block is simulated and priced
``CHUNK_SIZE`` paths at a time, drawing its chunks one after another from
the block's one substream, so the numbers are those of one draw of the
whole block.  Each thread of an estimate's pool allocates one increments
and one states buffer, paths-innermost and as wide as the estimate's widest
chunk, ``min(CHUNK_SIZE, block_size, n)`` paths, when the thread starts.
It simulates every chunk of every block it runs into them, so a chunk's
batch is valid until the thread draws its next chunk, and what an estimate
asks of the allocator does not change from block to block.  While a chunk
draws, it also holds one slice of ``SLICE_PATHS`` paths of normals (see
:func:`~driftmc.covariation.sample_increments`), so no path array is larger
than a chunk.  Prices are reported discounted, in cents.
"""

import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from .errors import NonFiniteError, SimulationError
from .models import CHUNK_SIZE, leading, simulate
from .payoffs import check_width, evaluate_batch
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


def _simulate_block(model, payoff, grid, cov, drift, seed, block,
                    discount_cents, values, buffers):
    """Write the weighted discounted payoffs of ``block = (index, start,
    size)`` into ``values[start:start + size]``, and return its counts of
    paths above the strike and of knocked-out paths.

    The block's chunks are drawn in path order from its one substream,
    ``substream(seed, ESTIMATE, index)``, so block ``index`` is the paths
    of one :func:`~driftmc.models.simulate` call of ``size`` paths on that
    substream.  Every chunk is simulated into ``buffers``, the calling
    thread's flat increments and states, as wide as any chunk of the block,
    through contiguous leading views, so a short last chunk has the layout
    of a chunk of its own.  A path that blows up is reported by its
    estimate-wide id, ``start`` plus its place in the block.
    """
    index, start, size = block
    rng = streams.substream(seed, streams.ESTIMATE, index)
    increments, states = buffers
    above = knocked = 0
    for lo in range(start, start + size, CHUNK_SIZE):
        hi = min(lo + CHUNK_SIZE, start + size)
        out = (leading(increments, (grid.n_steps, model.d, hi - lo)),
               leading(states, (grid.n_steps + 1, model.n_state, hi - lo)))
        try:
            batch = simulate(model, grid, cov, rng, hi - lo, drift=drift,
                             out=out)
        except SimulationError as exc:
            raise exc.shifted(lo) from exc
        pay = evaluate_batch(payoff, batch.states, grid)
        # Under P the log-weights are zero and v * exp(0) == v exactly, so a
        # plain block is an IS block with unit weights, bit for bit.
        values[lo:hi] = (pay.values * np.exp(batch.log_inverse_likelihood)
                         * discount_cents)
        above += int(np.count_nonzero(pay.above_strike))
        if payoff.has_barriers:
            knocked += int(np.count_nonzero(pay.knocked_out))
    return above, knocked


def _estimate(model, payoff, grid, cov, drift, seed, n, label, threads,
              block_size):
    check_width(payoff, model.n)
    begin = time.perf_counter()
    discount_cents = 100.0 * math.exp(-model.rate * grid.horizon)
    values = np.empty(n)
    width = min(CHUNK_SIZE, block_size, n)
    local = threading.local()

    def allocate():
        local.buffers = (np.empty(grid.n_steps * model.d * width),
                         np.empty((grid.n_steps + 1) * model.n_state * width))

    def worker(block):
        # Blocks write disjoint slices of ``values``, so they need no lock.
        return _simulate_block(model, payoff, grid, cov, drift, seed, block,
                               discount_cents, values, local.buffers)

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

