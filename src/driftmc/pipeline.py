"""Full experiment pipeline: resolve, price, train, reprice, compare.

Every artifact (resolved config, checkpoint, training trace, reports) is
one JSON record written by :func:`~driftmc.errors.write_json`, so a rerun
of the same config is byte-identical, including across worker-thread
counts.  The one exception is ``timings.json``, the wall times of the
training and of each estimate.  ``reports.json`` holds the comparison rows,
each two reports and their VR, so it states every estimate once.  ``run``
and ``train`` first remove what an earlier call wrote to their directory.
On failure the artifacts produced so far are kept and a machine-readable
error file is written next to them.
"""

import hashlib
import json
import logging
import time
from dataclasses import asdict
from pathlib import Path

from .config import build_scenario, resolve_config
from .covariation import CovariationSpec
from .engine import compare, comparison_to_dict, estimate_is, estimate_plain
from .errors import ConfigError, DriftmcError, write_json
from .network import init_net, load_checkpoint, save_checkpoint
from .training import TrainConfig, train, training_grid
from . import streams

log = logging.getLogger(__name__)

# The files ``train`` writes, and every file ``run`` writes.
TRAIN_ARTIFACTS = ("resolved_config.json", "checkpoint.json",
                   "training_trace.json")
ARTIFACTS = TRAIN_ARTIFACTS + ("reports.json", "timings.json", "error.json")


def fresh_out_dir(out_dir, artifacts=ARTIFACTS):
    """``out_dir`` as a Path, created if missing, without the ``artifacts``
    that an earlier run or train left there."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in artifacts:
        (out_dir / name).unlink(missing_ok=True)
    return out_dir


def run_label(cfg):
    """``<tag>-<asian|knockout>-<digest>``: 12 hex digits of the SHA-256 of
    the model, payoff and grid blocks, so two scenarios' reports carry two
    labels; a drift trained under another ``training`` block does not
    change it.  The digest leaves out ``model.seed``: it only chose the
    parameters, which the resolved ``model.params`` states."""
    tag = cfg["model"]["tag"]
    kind = "knockout" if cfg["payoff"]["barrier_moneyness"] else "asian"
    model = {k: v for k, v in cfg["model"].items() if k != "seed"}
    scenario = json.dumps({"model": model, "payoff": cfg["payoff"],
                           "grid": cfg["grid"]}, sort_keys=True)
    return f"{tag}-{kind}-{hashlib.sha256(scenario.encode()).hexdigest()[:12]}"


def estimate_seed(cfg, index, importance):
    """Seed of the estimate at the ``index``-th configured sample size;
    plain and importance-sampled ones alternate from ``estimation.seed``."""
    return cfg["estimation"]["seed"] + 2 * index + int(importance)


def price(cfg, sc, n, seed, drift=None, threads=1):
    """Estimate a resolved config's scenario ``sc`` at ``(n, seed)``: plain
    without ``drift``, importance-sampled with it."""
    common = dict(seed=seed, n=n, label=run_label(cfg), threads=threads,
                  block_size=cfg["estimation"]["block_size"])
    if drift is None:
        return estimate_plain(sc.model, sc.payoff, sc.grid, sc.cov, **common)
    return estimate_is(sc.model, sc.payoff, sc.grid, sc.cov, drift, **common)


def train_drift(cfg, sc, out_dir, threads=1):
    """Train the drift network of a resolved config on its scenario ``sc``,
    drawing its batches on ``threads`` threads, and write its checkpoint
    and its training trace, the fields of
    :class:`~driftmc.training.TrainTrace`, to ``out_dir``.

    The net trains on :func:`~driftmc.training.training_grid`, the pricing
    horizon at about ``STEPS_PER_UNIT_TIME`` steps per unit of time but
    never finer than the pricing grid, and prices on the pricing grid
    unchanged: it maps continuous time to the drift, so only the grid it is
    sampled on changes, and training costs a fraction of a pricing-grid run.
    """
    train_cfg = TrainConfig(**cfg["training"])
    rng = streams.substream(train_cfg.seed, streams.TRAIN, 999_999)
    net = init_net(train_cfg.hidden_width, sc.model.d, rng,
                   activation=train_cfg.activation)
    grid = training_grid(sc.grid)
    trained, trace = train(net, sc.model, sc.payoff, grid,
                           CovariationSpec(sc.model.sigma, grid), train_cfg,
                           threads=threads)
    save_checkpoint(trained, Path(out_dir) / "checkpoint.json")
    write_json(Path(out_dir) / "training_trace.json", asdict(trace))
    return trained, trace


def run(raw_config, out_dir, threads=1):
    """Execute the pipeline; returns the comparison rows.

    Stages: resolve the config and build its scenario, plain MC at every
    sample size, drift training, importance-sampled estimates, comparison
    table.  The resolved config is written once its scenario builds.
    """
    out_dir = fresh_out_dir(out_dir)
    stage = "resolve"
    try:
        cfg = resolve_config(raw_config)
        sc = build_scenario(cfg)
        write_json(out_dir / "resolved_config.json", cfg)

        def price_all(drift):
            return [price(cfg, sc, n,
                          estimate_seed(cfg, j, importance=drift is not None),
                          drift=drift, threads=threads)
                    for j, n in enumerate(cfg["estimation"]["sample_sizes"])]

        stage = "plain"
        plain_reports = price_all(None)

        stage = "train"
        begin = time.perf_counter()
        drift, trace = train_drift(cfg, sc, out_dir, threads=threads)
        training_seconds = time.perf_counter() - begin
        if trace.halted_reason:
            log.warning("training halted early: %s", trace.halted_reason)

        stage = "importance"
        is_reports = price_all(drift)

        stage = "compare"
        rows = [compare(mc, is_) for mc, is_ in zip(plain_reports, is_reports)]
        write_json(out_dir / "reports.json",
                   {"comparison": [comparison_to_dict(row) for row in rows]})
        _write_timings(out_dir, plain_reports + is_reports, training_seconds)
        return rows
    except (DriftmcError, MemoryError, OSError, ValueError) as exc:
        write_json(out_dir / "error.json", {
            "stage": stage, "error": type(exc).__name__, "message": str(exc)})
        raise


def _write_timings(out_dir, reports, training_seconds):
    """Wall times of a run; they vary from run to run, so they stay out of
    the byte-identical artifacts."""
    estimates = [{"label": r.label, "measure": r.measure, "n": r.n,
                  "seed": r.seed, "wall_seconds": r.wall_seconds,
                  "paths_per_s": r.n / r.wall_seconds}
                 for r in reports]
    write_json(out_dir / "timings.json",
               {"training_seconds": training_seconds,
                "estimates": estimates})


def price_with_checkpoint(cfg, checkpoint_path, n, seed, threads=1):
    """One importance-sampled :func:`price` driven by a stored
    checkpoint, whose drift must be as wide as the model's driver."""
    sc = build_scenario(cfg)
    drift = load_checkpoint(checkpoint_path)
    if drift.output_width != sc.model.d:
        raise ConfigError(
            f"checkpoint {checkpoint_path} has drift output width "
            f"{drift.output_width}, but the model's driver dimension is "
            f"{sc.model.d}")
    return price(cfg, sc, n, seed, drift=drift, threads=threads)
