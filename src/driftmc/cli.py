"""Command line interface.

Subcommands: validate, price, train, run.  The config file is the one place
a run is set; ``validate`` prints it resolved, refusing what resolve
refuses, as resolve builds every spec that can refuse a field.  Every flag
names an input or output file or sets the thread count.  ``price`` writes
``run``'s first plain report, and with ``--checkpoint`` its first row,
pricing the importance-sampled estimate first, so a refused checkpoint
exits before any plain path is drawn.  A malformed config or checkpoint
exits 2 naming the file and the field; so do a bad model spec and a grid,
sample size, training batch or hidden layer too large to allocate.  An
unwritable output, or another array too large to allocate, exits 2 with
"error:".
Exit codes: 0 ok, 2 config error, unwritable output or failed allocation,
3 numerical failure.
"""

import argparse
import logging
import sys

from .config import build_scenario, resolve_config
from .engine import compare, comparison_to_dict, report_to_dict
from .errors import (ConfigError, DriftmcError, NumericalError, read_object,
                     write_json)
from .pipeline import (TRAIN_ARTIFACTS, estimate_seed, fresh_out_dir, price,
                       price_with_checkpoint, run, train_drift)
from .training import STEPS_PER_UNIT_TIME

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


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
        "price", help="write run's first plain report, or with --checkpoint "
                      "its first comparison row: the config's first sample "
                      "size at the seeds run prices it with")
    _add_config(p)
    p.add_argument("--checkpoint", default=None,
                   help="drift checkpoint JSON file written by train or run")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", default=None,
                   help="JSON file of the plain report, or of the row with "
                        "--checkpoint (default stdout)")

    p = sub.add_parser(
        "train", help="train the drift network on a coarse grid of the "
                      f"horizon, about {STEPS_PER_UNIT_TIME} steps per unit "
                      "of time; the net maps time to the drift, so it prices "
                      "on the config's grid unchanged")
    _add_config(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("run", help="full pipeline: price, train, price with the "
                       "trained drift, compare")
    _add_config(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--threads", type=int, default=1)
    return parser


def _with_config(path, use, *args, **kwargs):
    """``use`` the config file at ``path``; a refused field names the file."""
    raw = read_object(path, "config")
    try:
        return use(raw, *args, **kwargs)
    except ConfigError as exc:
        raise ConfigError(f"config {path}: {exc}") from exc


def _cmd_validate(args):
    write_json(None, _with_config(args.config, resolve_config))
    return EXIT_OK


def _cmd_price(args):
    """``run``'s first plain report, or with a checkpoint its first row."""
    cfg = _with_config(args.config, resolve_config)
    n = cfg["estimation"]["sample_sizes"][0]
    if args.checkpoint is not None:
        weighted = price_with_checkpoint(
            cfg, args.checkpoint, n, estimate_seed(cfg, 0, importance=True),
            threads=args.threads)
    plain = price(cfg, build_scenario(cfg), n,
                  estimate_seed(cfg, 0, importance=False), threads=args.threads)
    write_json(args.out, report_to_dict(plain) if args.checkpoint is None
               else comparison_to_dict(compare(plain, weighted)))
    return EXIT_OK


def _cmd_train(args):
    out_dir = fresh_out_dir(args.out_dir, TRAIN_ARTIFACTS)
    cfg = _with_config(args.config, resolve_config)
    sc = build_scenario(cfg)
    write_json(out_dir / "resolved_config.json", cfg)
    _, trace = train_drift(cfg, sc, out_dir, threads=args.threads)
    if trace.halted_reason:
        raise NumericalError(trace.halted_reason)
    print(f"checkpoint written to {out_dir / 'checkpoint.json'}")
    return EXIT_OK


def _cmd_run(args):
    out_dir = fresh_out_dir(args.out_dir)
    _with_config(args.config, run, out_dir, threads=args.threads)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "price": _cmd_price,
    "train": _cmd_train,
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
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (MemoryError, OSError) as exc:  # unwritable output, huge array
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DriftmcError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
