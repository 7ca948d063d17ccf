"""Full experiment pipeline: resolve, price, train, reprice, compare.

Every artifact (resolved config, checkpoint, training trace, report tables)
is written with deterministic formatting, so a rerun of the same config is
byte-identical, including across worker-thread counts.  On failure the
artifacts produced so far are kept and a machine-readable error file is
written next to them.
"""

import json
import logging
from pathlib import Path

from .config import (build_scenario, build_train_config, dump_config,
                     resolve_config)
from .engine import (COMPARISON_FIELDS, compare, comparison_to_dict,
                     estimate_is, estimate_plain, report_to_dict, rows_to_csv)
from .errors import DriftmcError
from .network import init_net, load_checkpoint, save_checkpoint
from .training import train
from . import streams

log = logging.getLogger(__name__)


def _write_error(out_dir, stage, exc):
    record = {"stage": stage, "error": type(exc).__name__, "message": str(exc)}
    with open(Path(out_dir) / "error.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_label(cfg):
    tag = cfg["model"]["tag"]
    kind = "knockout" if cfg["payoff"]["barriers"] else "asian"
    return f"{tag}-{kind}"


def train_drift(cfg, sc, out_dir=None):
    """Train the drift network of a resolved config on its scenario ``sc``;
    optionally persist."""
    train_cfg = build_train_config(cfg)
    rng = streams.substream(train_cfg.seed, streams.TRAIN, 999_999)
    net = init_net(cfg["training"]["hidden_width"], sc.model.d,
                   activation=cfg["training"]["activation"], rng=rng)
    trained, trace = train(net, sc.model, sc.payoff, sc.grid, sc.cov,
                           train_cfg)
    if out_dir is not None:
        out_dir = Path(out_dir)
        save_checkpoint(trained, out_dir / "checkpoint.json")
        trace.to_csv(out_dir / "training_trace.csv")
    return trained, trace


def run(raw_config, out_dir, threads=1, dry_run=False, dump_paths=False,
        formats=None):
    """Execute the pipeline; returns the comparison rows.

    Stages: resolve config, validate the model, plain MC at every sample
    size, drift training, importance-sampled estimates, comparison table.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stage = "resolve"
    try:
        cfg = resolve_config(raw_config)
        dump_config(cfg, out_dir / "resolved_config.json")
        if dry_run:
            return []

        stage = "validate"
        sc = build_scenario(cfg)
        label = run_label(cfg)
        sizes = [int(s) for s in cfg["estimation"]["sample_sizes"]]
        est_seed = int(cfg["estimation"]["seed"])
        block_size = int(cfg["estimation"]["block_size"])

        stage = "plain"
        plain_reports = []
        for j, n in enumerate(sizes):
            dump = out_dir / f"paths_plain_n{n}.csv" if dump_paths else None
            report = estimate_plain(sc.model, sc.payoff, sc.grid, sc.cov,
                                    seed=est_seed + 2 * j, n=n, label=label,
                                    threads=threads, block_size=block_size,
                                    dump_path=dump)
            log.info("plain n=%d mean=%.4g cents se=%.3g%%", n,
                     report.mean_cents, report.se_pct)
            plain_reports.append(report)

        stage = "train"
        drift, trace = train_drift(cfg, sc, out_dir=out_dir)
        if trace.halted_reason:
            log.warning("training halted early: %s", trace.halted_reason)

        stage = "importance"
        is_reports = []
        for j, n in enumerate(sizes):
            dump = out_dir / f"paths_is_n{n}.csv" if dump_paths else None
            report = estimate_is(sc.model, sc.payoff, sc.grid, sc.cov, drift,
                                 seed=est_seed + 2 * j + 1, n=n, label=label,
                                 threads=threads, block_size=block_size,
                                 dump_path=dump)
            log.info("is n=%d mean=%.4g cents se=%.3g%%", n,
                     report.mean_cents, report.se_pct)
            is_reports.append(report)

        stage = "compare"
        rows = [compare(mc, is_) for mc, is_ in zip(plain_reports, is_reports)]
        _emit_reports(out_dir, plain_reports, is_reports, rows,
                      formats or cfg["output"]["formats"])
        return rows
    except (DriftmcError, OSError, ValueError) as exc:
        _write_error(out_dir, stage, exc)
        raise


def _emit_reports(out_dir, plain_reports, is_reports, rows, formats):
    report_dicts = ([report_to_dict(r) for r in plain_reports]
                    + [report_to_dict(r) for r in is_reports])
    row_dicts = [comparison_to_dict(row) for row in rows]
    if "json" in formats:
        payload = {"reports": report_dicts, "comparison": row_dicts}
        with open(out_dir / "reports.json", "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    if "csv" in formats:
        rows_to_csv(row_dicts, COMPARISON_FIELDS, out_dir / "reports.csv")


def price_with_checkpoint(cfg, checkpoint_path, n, seed, threads=1,
                          dump_path=None):
    """One importance-sampled estimate driven by a stored checkpoint, in
    the blocks of the config's ``estimation.block_size``."""
    sc = build_scenario(cfg)
    drift = load_checkpoint(checkpoint_path)
    return estimate_is(sc.model, sc.payoff, sc.grid, sc.cov, drift, seed=seed,
                       n=n, label=run_label(cfg), threads=threads,
                       block_size=int(cfg["estimation"]["block_size"]),
                       dump_path=dump_path)
