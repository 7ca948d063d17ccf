"""Plain and importance-sampled price estimators with table-style reports.

The block is the unit of reproducibility: paths are simulated in
fixed-size blocks, each block on its own derived random substream, and each
block hands back its per-path weighted payoffs and event flags.  An
estimate joins the blocks in block order and reduces the joined sample
once.  The partition depends only on the sample size, so the joined sample,
and with it every result, is bit-identical across worker-thread counts.
The chunk is the unit of memory: a block is simulated and priced
``CHUNK_SIZE`` paths at a time, drawing its chunks one after another from
the block's one substream, so no path array is larger than a chunk and the
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

from .errors import ConfigError, SimulationError
from .models import simulate
from .payoffs import PayoffBatch, check_width, evaluate_batch
from .stats import RunningMoments
from . import streams

log = logging.getLogger(__name__)

DEFAULT_BLOCK_SIZE = 2048
# Paths simulated at once within a block; bounds the memory of a block.
CHUNK_SIZE = 512


@dataclass(frozen=True)
class EstimatorReport:
    """One estimator summary: a single row of the result tables.

    Every field but ``wall_seconds`` is the report's JSON form, in
    declaration order, and :data:`_REPORT_CHECKS` states what each holds.
    ``se_pct`` is the standard error as a percent of the mean, ``kappa``
    the fraction of paths whose basket average beat the strike, ``theta``
    the knocked-out fraction (barrier payoffs only) and
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


def _is_integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


# What each JSON field of a report must hold, in field order; an all-zero
# sample reports an infinite se_pct.
_REPORT_CHECKS = {
    "label": ("a string", lambda v: isinstance(v, str)),
    "measure": ("a string", lambda v: isinstance(v, str)),
    "n": ("an integer", _is_integer),
    "mean_cents": ("a finite number", _is_finite),
    "se_pct": ("a number", lambda v: _is_finite(v) or v == math.inf),
    "kappa": ("a finite number", _is_finite),
    "theta": ("a finite number or null", lambda v: v is None or _is_finite(v)),
    "per_sample_variance": ("a finite number", _is_finite),
    "seed": ("an integer", _is_integer),
}


def _block_plan(total, block_size):
    """Fixed partition of the sample into (index, start, size) blocks."""
    return [(index, start, min(block_size, total - start))
            for index, start in enumerate(range(0, total, block_size))]


def _concatenate(batches):
    """The PayoffBatch of all paths of ``batches``, in order."""
    knocked = [b.knocked_out for b in batches]
    return PayoffBatch(np.concatenate([b.values for b in batches]),
                       np.concatenate([b.above_strike for b in batches]),
                       None if knocked[0] is None else np.concatenate(knocked))


def _simulate_block(model, payoff, grid, cov, drift, seed, block,
                    discount_cents):
    """The :class:`~driftmc.payoffs.PayoffBatch` of ``block = (index,
    start, size)``: its weighted discounted payoffs and event flags, in
    path order.

    The block's chunks are drawn in path order from its one substream,
    ``substream(seed, ESTIMATE, index)``, so block ``index`` is the paths
    of one :func:`~driftmc.models.simulate` call of ``size`` paths on that
    substream.  A path that blows up is reported by its estimate-wide id,
    ``start`` plus its place in the block.
    """
    index, start, size = block
    rng = streams.substream(seed, streams.ESTIMATE, index)
    chunks = []
    for offset in range(0, size, CHUNK_SIZE):
        try:
            batch = simulate(model, grid, cov, rng,
                             min(CHUNK_SIZE, size - offset), drift=drift)
        except SimulationError as exc:
            raise exc.shifted(start + offset) from exc
        pay = evaluate_batch(payoff, batch.states, grid)
        # Under P the log-weights are zero and v * exp(0) == v exactly, so a
        # plain block is an IS block with unit weights, bit for bit.
        chunks.append(PayoffBatch(
            pay.values * np.exp(batch.log_inverse_likelihood)
            * discount_cents, pay.above_strike, pay.knocked_out))
        del batch  # free this chunk's paths before the next is drawn
    return _concatenate(chunks)


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

    with ThreadPoolExecutor(max_workers=threads) as pool:
        sample = _concatenate(list(pool.map(worker, blocks)))
    moments = RunningMoments.from_array(sample.values)
    above = int(np.count_nonzero(sample.above_strike))
    knocked = (None if sample.knocked_out is None
               else int(np.count_nonzero(sample.knocked_out)))

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
    if report_mc.n != report_is.n:
        raise ValueError("reports were computed at different sample sizes")
    vr = variance_ratio(report_mc, report_is)
    return ComparisonRow(
        label=report_mc.label,
        n=report_mc.n,
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
    """Every field but ``wall_seconds``; VR belongs to a comparison row."""
    return {k: v for k, v in asdict(report).items() if k != "wall_seconds"}


def report_from_dict(row, source):
    """Rebuild a report from its JSON mapping, read from ``source``; a
    missing, unknown or ill-typed field is a ConfigError naming both."""
    for name in row:
        if name not in _REPORT_CHECKS:
            raise ConfigError(f"report {source} has unknown field {name!r}")
    for name, (kind, check) in _REPORT_CHECKS.items():
        if name not in row:
            raise ConfigError(f"report {source} has no {name!r} field")
        if not check(row[name]):
            raise ConfigError(f"report {source}: {name!r} must be {kind}, "
                              f"got {row[name]!r}")
    return EstimatorReport(**row, wall_seconds=0.0)


def comparison_to_dict(row):
    """Comparison row as a flat mapping in :data:`COMPARISON_FIELDS` order."""
    return asdict(row)


def _format_cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def rows_to_csv(rows, fields, path):
    """Write dict rows to ``path`` as CSV with lossless (repr) float
    formatting."""
    lines = [",".join(fields)]
    lines += [",".join(_format_cell(row[name]) for name in fields)
              for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
