"""Command line interface.

Subcommands: validate, sample-params, price, train, price-is, compare, run.
Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 validation failure.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

from .config import build_scenario, load_config, resolve_config, write_json
from .engine import (COMPARISON_FIELDS, REPORT_FIELDS, compare,
                     comparison_to_dict, csv_text, report_from_dict,
                     report_to_dict)
from .errors import (ConfigError, DriftmcError, ModelValidationError,
                     NonFiniteError, SimulationError, WeightOverflowError)
from .pipeline import (estimate_seed, price, price_with_checkpoint, run,
                       train_drift)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VALIDATION = 4


def _add_config(parser):
    parser.add_argument("--config", required=True, help="run config JSON file")


def _add_pricing(parser):
    """The options ``price`` and ``price-is`` share."""
    _add_config(parser)
    parser.add_argument("--n", type=int, default=None,
                        help="sample size (default: first configured size)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--format", choices=("csv", "json"), default="json")
    parser.add_argument("--out", default=None,
                        help="report file (default stdout)")
    parser.add_argument("--dump-paths", default=None, metavar="FILE",
                        help="also write the priced paths as CSV, simulated "
                             "again from the estimate's streams; at a run's "
                             "--n and --seed, the paths that run priced")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="driftmc",
        description="Monte Carlo option pricing with learned drift "
                    "importance sampling")
    parser.add_argument("--verbose", action="store_true",
                        help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="resolve and check a config")
    _add_config(p)

    p = sub.add_parser("sample-params", help="sample and print model parameters")
    _add_config(p)
    p.add_argument("--seed", type=int, default=None,
                   help="override the model sampling seed")

    p = sub.add_parser("price", help="plain Monte Carlo estimate")
    _add_pricing(p)

    p = sub.add_parser("train", help="train the drift network")
    _add_config(p)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("price-is", help="importance-sampled estimate from a checkpoint")
    _add_pricing(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("compare", help="combine two report files into a table row")
    p.add_argument("--mc-report", required=True)
    p.add_argument("--is-report", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="json")
    p.add_argument("--out", default=None)

    p = sub.add_parser("run", help="full pipeline: price, train, price-is, compare")
    _add_config(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="override the estimation seed")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--dry-run", action="store_true",
                   help="resolve and write the config, simulate nothing")
    return parser


def _emit(row, fields, fmt, out):
    if fmt == "json":
        text = json.dumps(row, indent=2, sort_keys=True) + "\n"
    else:
        text = csv_text([row], fields)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _sample(args, cfg, importance):
    """``(n, seed)`` of a price command: ``--n`` and ``--seed`` if given,
    else the first configured sample size and the seed ``run`` prices it
    with.  The estimator refuses a non-positive ``--n``."""
    n = cfg["estimation"]["sample_sizes"][0] if args.n is None else args.n
    seed = estimate_seed(cfg, 0, importance) if args.seed is None else args.seed
    return n, seed


def _load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return report_from_dict(json.load(fh))


def _cmd_validate(args):
    build_scenario(resolve_config(load_config(args.config)))
    print("ok")
    return EXIT_OK


def _cmd_sample_params(args):
    raw = load_config(args.config)
    if args.seed is not None:
        raw.setdefault("model", {})["seed"] = args.seed
        raw["model"]["params"] = None
    cfg = resolve_config(raw)
    print(json.dumps(cfg["model"], indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_price(args):
    """``price``, and ``price-is`` with the drift of a checkpoint."""
    cfg = resolve_config(load_config(args.config))
    importance = args.command == "price-is"
    n, seed = _sample(args, cfg, importance)
    if importance:
        report = price_with_checkpoint(cfg, args.checkpoint, n, seed,
                                       threads=args.threads,
                                       dump_path=args.dump_paths)
    else:
        report = price(cfg, build_scenario(cfg), n, seed, threads=args.threads,
                       dump_path=args.dump_paths)
    _emit(report_to_dict(report), REPORT_FIELDS, args.format, args.out)
    return EXIT_OK


def _cmd_train(args):
    cfg = resolve_config(load_config(args.config))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "resolved_config.json", cfg)
    _, trace = train_drift(cfg, build_scenario(cfg), out_dir=out_dir)
    if trace.halted_reason:
        raise NonFiniteError(trace.halted_reason)
    print(f"checkpoint written to {out_dir / 'checkpoint.json'}")
    return EXIT_OK


def _cmd_compare(args):
    report_mc = _load_report(args.mc_report)
    report_is = _load_report(args.is_report)
    row = compare(report_mc, report_is)
    _emit(comparison_to_dict(row), COMPARISON_FIELDS, args.format, args.out)
    return EXIT_OK


def _cmd_run(args):
    raw = load_config(args.config)
    if args.seed is not None:
        raw.setdefault("estimation", {})["seed"] = args.seed
    run(raw, args.out_dir, threads=args.threads, dry_run=args.dry_run)
    return EXIT_OK


_COMMANDS = {
    "validate": _cmd_validate,
    "sample-params": _cmd_sample_params,
    "price": _cmd_price,
    "train": _cmd_train,
    "price-is": _cmd_price,
    "compare": _cmd_compare,
    "run": _cmd_run,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        parser.error(f"argument --threads: must be at least 1, "
                     f"got {args.threads}")
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s")
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
