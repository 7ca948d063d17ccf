"""Plain and importance-sampled price estimators with table-style reports.

The block is the unit of reproducibility: paths are simulated in
fixed-size blocks, each block on its own derived random substream, and
block statistics are merged in block order.  The partition depends only on
the sample size, so results are bit-identical across worker-thread counts.
The chunk is the unit of memory: a block is simulated and priced
``CHUNK_SIZE`` paths at a time, drawing its chunks one after another from
the block's one substream, so no array is larger than a chunk and the
numbers are those of one draw of the whole block.  Prices are reported
discounted, in cents.
"""

import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import SimulationError
from .models import simulate
from .payoffs import check_width, evaluate_batch
from .stats import RunningMoments
from . import streams

log = logging.getLogger(__name__)

DEFAULT_BLOCK_SIZE = 2048
# Paths simulated at once within a block; bounds the memory of a block.
CHUNK_SIZE = 512

# Stable field names of emitted report rows.
REPORT_FIELDS = ("label", "measure", "n", "mean_cents", "se_pct", "kappa",
                 "theta", "vr", "seed", "per_sample_variance")


@dataclass(frozen=True)
class EstimatorReport:
    """One estimator summary: a single row of the result tables.

    ``se_pct`` is the standard error as a percent of the mean, ``kappa``
    the fraction of paths whose basket average beat the strike, ``theta``
    the knocked-out fraction (barrier payoffs only) and
    ``per_sample_variance`` the sample variance of one discounted per-path
    estimate in cents squared (the quantity variance ratios compare).
    ``wall_seconds`` is diagnostic only: a run writes it to
    ``timings.json``, outside the byte-identical artifacts.
    """

    label: str
    measure: str
    sample_size: int
    mean_cents: float
    se_pct: float
    kappa: float
    theta: float | None
    per_sample_variance: float
    seed: int
    wall_seconds: float


def _block_plan(total, block_size):
    """Fixed partition of the sample into (index, start, size) blocks."""
    return [(index, start, min(block_size, total - start))
            for index, start in enumerate(range(0, total, block_size))]


def _block_paths(model, grid, cov, drift, seed, block):
    """Chunk batches of ``block = (index, start, size)`` in path order, all
    drawn from that block's own substream; the estimators and
    :func:`dump_paths` both simulate through here.  A path that blows up is
    reported by its estimate-wide id, ``start`` plus its place in the
    block."""
    index, start, size = block
    rng = streams.substream(seed, streams.ESTIMATE, index)
    for offset in range(0, size, CHUNK_SIZE):
        try:
            yield simulate(model, grid, cov, rng,
                           min(CHUNK_SIZE, size - offset), drift=drift)
        except SimulationError as exc:
            raise exc.shifted(start + offset) from exc


def _simulate_block(model, payoff, grid, cov, drift, seed, block,
                    discount_cents):
    """Moments, above-strike count and knocked-out count (None without
    barriers) of one block's weighted discounted payoffs."""
    values = []
    above = 0
    knocked = 0 if payoff.has_barriers else None
    for batch in _block_paths(model, grid, cov, drift, seed, block):
        pay = evaluate_batch(payoff, batch.states, grid)
        # Under P the log-weights are zero and v * exp(0) == v exactly, so a
        # plain block is an IS block with unit weights, bit for bit.
        values.append(pay.values * np.exp(batch.log_inverse_likelihood)
                      * discount_cents)
        above += int(pay.above_strike.sum())
        if knocked is not None:
            knocked += int(pay.knocked_out.sum())
        del batch  # free this chunk's paths before the next is drawn
    return RunningMoments.from_array(np.concatenate(values)), above, knocked


def _estimate(model, payoff, grid, cov, drift, seed, n, label, threads,
              block_size):
    if n <= 0:
        raise ValueError("sample size must be positive")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    check_width(payoff, model.n)
    begin = time.perf_counter()
    discount_cents = 100.0 * math.exp(-model.rate * grid.horizon)
    blocks = _block_plan(n, block_size)

    def worker(block):
        return _simulate_block(model, payoff, grid, cov, drift, seed, block,
                               discount_cents)

    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(worker, blocks))
    else:
        results = [worker(b) for b in blocks]

    moments = RunningMoments()
    above = 0
    knocked = 0 if payoff.has_barriers else None
    for block_moments, block_above, block_knocked in results:
        moments = moments.merge(block_moments)
        above += block_above
        if knocked is not None:
            knocked += block_knocked

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
        sample_size=n,
        mean_cents=mean,
        se_pct=se_pct,
        kappa=above / n,
        theta=None if knocked is None else knocked / n,
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


def dump_paths(model, grid, cov, drift, seed, n, block_size, path):
    """Write the paths of the estimate at ``(drift, seed, n, block_size)``
    to ``path`` as CSV, one row per path and grid node.  The blocks are
    simulated again, chunk by chunk, from the estimator's substreams, so
    the rows are the priced paths, and each chunk is written before the
    next is simulated."""
    cols = ",".join(f"state_{j}" for j in range(model.n_state))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"path_id,step,{cols}\n")
        for block in _block_plan(n, block_size):
            path_id = block[1]
            for batch in _block_paths(model, grid, cov, drift, seed, block):
                for states in batch.states:
                    for k, node in enumerate(states.tolist()):
                        fh.write(f"{path_id},{k},{','.join(map(repr, node))}\n")
                    path_id += 1


@dataclass(frozen=True)
class ComparisonRow:
    """Plain-vs-importance-sampled metrics at one sample size."""

    label: str
    n: int
    mc_mean_cents: float
    mc_se_pct: float
    mc_kappa: float
    mc_theta: float | None
    is_mean_cents: float
    is_se_pct: float
    is_kappa: float
    is_theta: float | None
    vr: float
    mc_seed: int
    is_seed: int


# Column order of emitted comparison rows: the fields of ComparisonRow.
COMPARISON_FIELDS = tuple(f.name for f in fields(ComparisonRow))


def variance_ratio(report_mc, report_is):
    """Plain-MC per-sample variance over importance-sampled variance.

    Both reports must describe the same scenario.  A zero importance-sampled
    variance against a plain estimator that varies is degenerate, not an
    infinite reduction (every weight may have underflowed to zero): the
    ratio is undefined and returned as NaN.
    """
    if report_mc.label != report_is.label:
        raise ValueError(
            f"reports describe different scenarios: "
            f"{report_mc.label!r} vs {report_is.label!r}")
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
    """Combine a plain and an importance-sampled report into a table row."""
    if report_mc.measure != "P" or report_is.measure != "P_h":
        raise ValueError("compare needs one plain (P) and one importance-"
                         "sampled (P_h) report, in that order")
    if report_mc.sample_size != report_is.sample_size:
        raise ValueError("reports were computed at different sample sizes")
    vr = variance_ratio(report_mc, report_is)
    return ComparisonRow(
        label=report_mc.label,
        n=report_mc.sample_size,
        mc_mean_cents=report_mc.mean_cents,
        mc_se_pct=report_mc.se_pct,
        mc_kappa=report_mc.kappa,
        mc_theta=report_mc.theta,
        is_mean_cents=report_is.mean_cents,
        is_se_pct=report_is.se_pct,
        is_kappa=report_is.kappa,
        is_theta=report_is.theta,
        vr=vr,
        mc_seed=report_mc.seed,
        is_seed=report_is.seed,
    )


def report_to_dict(report):
    """Report as a flat mapping with the stable field names; ``vr`` belongs
    to a comparison, not to one report, and stays None."""
    return {
        "label": report.label,
        "measure": report.measure,
        "n": report.sample_size,
        "mean_cents": report.mean_cents,
        "se_pct": report.se_pct,
        "kappa": report.kappa,
        "theta": report.theta,
        "vr": None,
        "seed": report.seed,
        "per_sample_variance": report.per_sample_variance,
    }


def report_from_dict(row):
    """Rebuild a report from its emitted mapping (wall time not stored)."""
    return EstimatorReport(
        label=row["label"],
        measure=row["measure"],
        sample_size=int(row["n"]),
        mean_cents=row["mean_cents"],
        se_pct=row["se_pct"],
        kappa=row["kappa"],
        theta=row["theta"],
        per_sample_variance=row["per_sample_variance"],
        seed=int(row["seed"]),
        wall_seconds=0.0,
    )


def comparison_to_dict(row):
    """Comparison row as a flat mapping in :data:`COMPARISON_FIELDS` order."""
    return asdict(row)


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def csv_text(rows, fields):
    """Dict rows as CSV text with lossless (repr) float formatting."""
    lines = [",".join(fields)]
    lines += [",".join(_format_cell(row[name]) for name in fields)
              for row in rows]
    return "\n".join(lines) + "\n"


def rows_to_csv(rows, fields, path):
    """Write dict rows to ``path`` as :func:`csv_text`."""
    Path(path).write_text(csv_text(rows, fields), encoding="utf-8")
