"""Full experiment pipeline: resolve, price, train, reprice, compare.

Every artifact (resolved config, checkpoint, training trace, report tables)
is written with deterministic formatting, so a rerun of the same config is
byte-identical, including across worker-thread counts.  The one exception
is ``timings.json``, the wall times of the training and of each estimate.
On failure the artifacts produced so far are kept and a machine-readable
error file is written next to them.
"""

import logging
import time
from pathlib import Path

from .config import (build_scenario, build_train_config, resolve_config,
                     write_json)
from .covariation import CovariationSpec
from .engine import (COMPARISON_FIELDS, compare, comparison_to_dict,
                     estimate_is, estimate_plain, report_to_dict, rows_to_csv)
from .errors import CheckpointError, DriftmcError
from .network import init_net, load_checkpoint, save_checkpoint
from .training import train, training_grid
from . import streams

log = logging.getLogger(__name__)


def _write_error(out_dir, stage, exc):
    write_json(Path(out_dir) / "error.json",
               {"stage": stage, "error": type(exc).__name__,
                "message": str(exc)})


def run_label(cfg):
    tag = cfg["model"]["tag"]
    kind = "knockout" if cfg["payoff"]["barriers"] else "asian"
    return f"{tag}-{kind}"


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


def train_drift(cfg, sc, out_dir):
    """Train the drift network of a resolved config on its scenario ``sc``
    and write its checkpoint and training trace to ``out_dir``.

    The net trains on :func:`~driftmc.training.training_grid`, the pricing
    horizon at about ``STEPS_PER_UNIT_TIME`` steps per unit of time but
    never finer than the pricing grid, and prices on the pricing grid
    unchanged: it maps continuous time to the drift, so only the grid it is
    sampled on changes, and training costs a fraction of a pricing-grid run.
    """
    train_cfg = build_train_config(cfg)
    rng = streams.substream(train_cfg.seed, streams.TRAIN, 999_999)
    net = init_net(cfg["training"]["hidden_width"], sc.model.d, rng,
                   activation=cfg["training"]["activation"])
    grid = training_grid(sc.grid)
    trained, trace = train(net, sc.model, sc.payoff, grid,
                           CovariationSpec(sc.model.sigma, grid), train_cfg)
    out_dir = Path(out_dir)
    save_checkpoint(trained, out_dir / "checkpoint.json")
    rows = [{"step": k, "v_hat": v, "h_norm_sq": h, "informative": int(i)}
            for k, (v, h, i) in enumerate(zip(
                trace.v_hat, trace.h_norm_sq, trace.informative))]
    rows_to_csv(rows, ("step", "v_hat", "h_norm_sq", "informative"),
                out_dir / "training_trace.csv")
    return trained, trace


def run(raw_config, out_dir, threads=1):
    """Execute the pipeline; returns the comparison rows.

    Stages: resolve the config and build its scenario, plain MC at every
    sample size, drift training, importance-sampled estimates, comparison
    table.  The resolved config is written once its scenario builds.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
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
        drift, trace = train_drift(cfg, sc, out_dir)
        training_seconds = time.perf_counter() - begin
        if trace.halted_reason:
            log.warning("training halted early: %s", trace.halted_reason)

        stage = "importance"
        is_reports = price_all(drift)

        stage = "compare"
        rows = [compare(mc, is_) for mc, is_ in zip(plain_reports, is_reports)]
        _emit_reports(out_dir, plain_reports, is_reports, rows)
        _write_timings(out_dir, plain_reports + is_reports, training_seconds)
        return rows
    except (DriftmcError, OSError, ValueError) as exc:
        _write_error(out_dir, stage, exc)
        raise


def _emit_reports(out_dir, plain_reports, is_reports, rows):
    report_dicts = [report_to_dict(r) for r in plain_reports + is_reports]
    row_dicts = [comparison_to_dict(row) for row in rows]
    write_json(out_dir / "reports.json",
               {"reports": report_dicts, "comparison": row_dicts})
    rows_to_csv(row_dicts, COMPARISON_FIELDS, out_dir / "reports.csv")


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
        raise CheckpointError(
            f"checkpoint {checkpoint_path} has drift output width "
            f"{drift.output_width}, but the model's driver dimension is "
            f"{sc.model.d}")
    return price(cfg, sc, n, seed, drift=drift, threads=threads)
