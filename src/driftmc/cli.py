"""Command line interface.

Subcommands: validate, price, train, compare, run.  The config file is the
one place a run is set; ``validate`` prints it resolved, and every flag
names an input or output file or sets the thread count.  ``compare``
reads exactly the fields ``price`` writes.
Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 validation failure.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

from .config import build_scenario, load_config, resolve_config, write_json
from .engine import (compare, comparison_to_dict, report_from_dict,
                     report_to_dict)
from .errors import (ConfigError, DriftmcError, ModelValidationError,
                     NonFiniteError, SimulationError, WeightOverflowError)
from .pipeline import (estimate_seed, price, price_with_checkpoint, run,
                       train_drift)
from .training import STEPS_PER_UNIT_TIME

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4


def _add_config(parser):
    parser.add_argument("--config", required=True, help="run config JSON file")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="driftmc",
        description="Monte Carlo option pricing with learned drift "
                    "importance sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="resolve and check a config and "
                       "print it resolved, as run writes resolved_config.json")
    _add_config(p)

    p = sub.add_parser(
        "price", help="estimate at the config's first sample size, with the "
                      "seed run prices it with: plain Monte Carlo, or "
                      "importance-sampled with the drift of --checkpoint")
    _add_config(p)
    p.add_argument("--checkpoint", default=None,
                   help="drift checkpoint JSON file written by train or run")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None,
                   help="JSON report file (default stdout)")

    p = sub.add_parser(
        "train", help="train the drift network on a coarse grid of the "
                      f"horizon, about {STEPS_PER_UNIT_TIME} steps per unit "
                      "of time; the net maps time to the drift, so it prices "
                      "on the config's grid unchanged")
    _add_config(p)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("compare", help="combine two report files into a table row")
    p.add_argument("--mc-report", required=True)
    p.add_argument("--is-report", required=True)
    p.add_argument("--out", default=None,
                   help="JSON row file (default stdout)")

    p = sub.add_parser("run", help="full pipeline: price, train, price with the "
                       "trained drift, compare")
    _add_config(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int, default=1)
    return parser


def _load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            row = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"report {path} is not valid JSON: {exc}") from exc
    if not isinstance(row, dict):
        raise ConfigError(f"report {path} is not a JSON object")
    return report_from_dict(row, path)


def _cmd_validate(args):
    cfg = resolve_config(load_config(args.config))
    build_scenario(cfg)
    write_json(None, cfg)
    return EXIT_OK


def _cmd_price(args):
    """``run``'s first estimate: plain, or with the drift of a checkpoint."""
    cfg = resolve_config(load_config(args.config))
    n = cfg["estimation"]["sample_sizes"][0]
    seed = estimate_seed(cfg, 0, importance=args.checkpoint is not None)
    if args.checkpoint is None:
        report = price(cfg, build_scenario(cfg), n, seed, threads=args.threads)
    else:
        report = price_with_checkpoint(cfg, args.checkpoint, n, seed,
                                       threads=args.threads)
    write_json(args.out, report_to_dict(report))
    return EXIT_OK


def _cmd_train(args):
    cfg = resolve_config(load_config(args.config))
    sc = build_scenario(cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "resolved_config.json", cfg)
    _, trace = train_drift(cfg, sc, out_dir)
    if trace.halted_reason:
        raise NonFiniteError(trace.halted_reason)
    print(f"checkpoint written to {out_dir / 'checkpoint.json'}")
    return EXIT_OK


def _cmd_compare(args):
    report_mc = _load_report(args.mc_report)
    report_is = _load_report(args.is_report)
    row = compare(report_mc, report_is)
    write_json(args.out, comparison_to_dict(row))
    return EXIT_OK


def _cmd_run(args):
    run(load_config(args.config), args.out_dir, threads=args.threads)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "price": _cmd_price,
    "train": _cmd_train,
    "compare": _cmd_compare,
    "run": _cmd_run,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        parser.error(f"argument --threads: must be at least 1, "
                     f"got {args.threads}")
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    try:
        return _COMMANDS[args.command](args)
    except ModelValidationError as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (WeightOverflowError, SimulationError, NonFiniteError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, DriftmcError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
