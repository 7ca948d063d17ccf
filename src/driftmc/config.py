"""Run configuration: parsing, defaulting, parameter sampling, resolution.

A run config is a single JSON document with a schema id.  Resolution fills
every default and samples risk-neutral model parameters from the model's
fixed ranges unless ``model.params`` gives them, producing a config that is
a fixed point: running the resolved document reproduces the run bit for
bit.  The payoff block sets the option relative to the basket, by
``moneyness`` and ``barrier_moneyness``, as the user wrote them;
:func:`build_payoff` works out its weights, strike and barriers.  Every
list in it is read by one rule, entry by entry, and a bad entry is refused
by its index, such as ``model.params.sigma[1][0]``.  Resolution builds
every spec, so the field checks each spec makes of itself refuse here.
"""

import copy
import math
from collections import Counter
from dataclasses import asdict, dataclass, fields

import numpy as np

from .covariation import CovariationSpec, TimeGrid
from .engine import DEFAULT_BLOCK_SIZE
from .errors import (ConfigError, ModelValidationError, integer, number,
                     numbers, string)
from .models import (BLACK_SCHOLES, HESTON, MODEL_TAGS, STEIN_STEIN,
                     THREE_HALVES, ModelSpec)
from .payoffs import PayoffSpec, basket_weights
from .training import TrainConfig, training_grid
from . import streams

SCHEMA_ID = "driftmc-run-v8"

MAX_SAMPLE_RETRIES = 200

# Bound on |model.rate * grid.horizon|: exp(+-700) are normal doubles.
MAX_RATE_HORIZON = 700.0

# The keys of ``model.params``; sigma and s0 are required.
PARAM_FIELDS = ("sigma", "s0", "mean_level", "reversion", "v0")

DEFAULTS = {
    "schema": SCHEMA_ID,
    "model": {
        "tag": BLACK_SCHOLES,
        "n": 10,
        "rate": 0.05,
        "seed": 0,
        "params": None,
    },
    "payoff": {
        "moneyness": 1.3,
        "barrier_moneyness": None,
    },
    "grid": {
        "horizon": 1.0,
        "dt": 1.0 / 252.0,
    },
    "training": {f.name: f.default for f in fields(TrainConfig)},
    "estimation": {
        "sample_sizes": [5000, 20000, 100000],
        "seed": 7,
        "block_size": DEFAULT_BLOCK_SIZE,
    },
}


# Sampling ranges.  They target an effective asset volatility near 30
# percent a year; with the default 1.3 moneyness this puts a deep
# out-of-the-money Asian basket call at a positive-payoff fraction below two
# percent and a plain-MC standard error of a few tens of percent at five
# thousand paths.  Per volatility model: the row norms of sigma's asset and
# volatility rows, and the range of mean_level and v0; sqrt(variance level)
# ~ 0.3 scales Heston's asset rows of norm 1 down.
S0_RANGE = (0.8, 1.2)
REVERSION_RANGE = (1.0, 3.0)
BLACK_SCHOLES_ROW_NORM = 0.30
VOL_MODEL_RANGES = {
    HESTON: (1.0, 0.25, (0.04, 0.16)),
    THREE_HALVES: (1.0, 0.8, (0.04, 0.16)),
    STEIN_STEIN: (1.35, 0.2, (0.15, 0.30)),
}

# Entry ranges are (-a, k*a): the positive skew gives asset rows an average
# pairwise correlation near 3(k-1)^2 / (4(k^2-k+1)), about 0.32 for k = 2.3,
# the regime of a positively correlated equity basket.  Without it a basket
# of 10 independent assets diversifies to a few percent of volatility and a
# 30 percent out-of-the-money strike is never reached.
_ENTRY_SKEW = 2.3


def _entry_range(target_row_norm, d):
    a = target_row_norm / math.sqrt(d * (_ENTRY_SKEW**2 - _ENTRY_SKEW + 1) / 3.0)
    return -a, _ENTRY_SKEW * a


def sample_parameters(seed, tag, n, rate):
    """Draw a valid risk-neutral model spec from the sampling ranges,
    deterministically in seed.

    Specs violating a structural invariant are rejected and redrawn; after
    ``MAX_SAMPLE_RETRIES`` failures the error names the constraint that
    rejected most drafts.
    """
    d = n if tag == BLACK_SCHOLES else 2 * n
    rejected = Counter()
    for attempt in range(MAX_SAMPLE_RETRIES):
        rng = streams.substream(seed, streams.PARAMS, attempt)
        s0 = rng.uniform(*S0_RANGE, size=n)
        if tag == BLACK_SCHOLES:
            sigma = rng.uniform(*_entry_range(BLACK_SCHOLES_ROW_NORM, d),
                                size=(d, d))
            vol = {}
        else:
            asset_norm, vol_norm, level = VOL_MODEL_RANGES[tag]
            sigma = np.concatenate([
                rng.uniform(*_entry_range(asset_norm, d), size=(n, d)),
                rng.uniform(*_entry_range(vol_norm, d), size=(n, d))])
            vol = dict(mean_level=rng.uniform(*level, size=n),
                       reversion=rng.uniform(*REVERSION_RANGE, size=n),
                       v0=rng.uniform(*level, size=n))
        try:
            return ModelSpec(tag=tag, sigma=sigma, s0=s0, rate=rate, **vol)
        except ModelValidationError as exc:
            rejected.update(v.code for v in exc.violations)
    binding = rejected.most_common(1)[0][0]
    raise ConfigError(
        f"no valid parameters after {MAX_SAMPLE_RETRIES} draws; most often "
        f"violated constraint: {binding!r}")


def _merge_defaults(config, defaults, path=""):
    """``config`` over ``defaults``; a field is named by its dotted path,
    such as ``training.lr``."""
    out = copy.deepcopy(defaults)
    for key, value in config.items():
        name = path + key
        if key not in defaults:
            raise ConfigError(f"unknown config field {name!r}")
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(value, dict):
                raise ConfigError(f"config field {name!r} must be an object")
            out[key] = _merge_defaults(value, defaults[key], name + ".")
        else:
            out[key] = copy.deepcopy(value)
    return out


def resolve_config(raw):
    """Fill defaults and sample parameters; a bad field raises a
    ConfigError naming it, bad model parameters its subclass
    :class:`ModelValidationError`."""
    schema = raw.get("schema", SCHEMA_ID)
    if schema != SCHEMA_ID:
        raise ConfigError(f"unsupported config schema {schema!r}; this "
                          f"version reads {SCHEMA_ID!r}, so resolve the "
                          "raw config again")
    cfg = _merge_defaults(raw, DEFAULTS)
    for key in ("horizon", "dt"):
        number(cfg["grid"][key], f"grid.{key}", positive=True)
    steps = cfg["grid"]["horizon"] / cfg["grid"]["dt"]
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
        raise ConfigError(f"grid.dt must divide grid.horizon into whole "
                          f"steps; horizon / dt = {steps!r}")
    # a grid too fine to allocate fails here, not mid-run
    grid = _allocating(build_grid, cfg, name="grid.dt",
                       value=cfg["grid"]["dt"])

    model_block = cfg["model"]
    tag = string(model_block["tag"], "model.tag", MODEL_TAGS)
    n = model_block["n"] = integer(model_block["n"], "model.n", 1)
    model_block["seed"] = integer(model_block["seed"], "model.seed", 0)
    rate = number(model_block["rate"], "model.rate")
    horizon = cfg["grid"]["horizon"]
    if abs(rate * horizon) > MAX_RATE_HORIZON:
        raise ConfigError(f"model.rate * grid.horizon must be within "
                          f"±{MAX_RATE_HORIZON}, got {rate!r} * {horizon!r}")
    if model_block["params"] is None:
        model = sample_parameters(model_block["seed"], tag=tag, n=n,
                                  rate=model_block["rate"])
        model_block["params"] = _params_to_json(model)
    else:
        model = build_model(cfg)
    build_payoff(cfg)

    if cfg["training"]["hidden_width"] is None:
        cfg["training"]["hidden_width"] = model.d
    # TrainConfig checks the block here, so a bad field fails before a run
    training = cfg["training"] = asdict(TrainConfig(**cfg["training"]))
    # a batch's increments and the net's output weights
    batch_steps = training_grid(grid).n_steps
    for name, shape in (("batch_size", (batch_steps, model.d)),
                        ("hidden_width", (model.d,))):
        _allocating(np.empty, (*shape, training[name]),
                    name=f"training.{name}", value=training[name])

    estimation = cfg["estimation"]
    estimation["seed"] = integer(estimation["seed"], "estimation.seed", 0)
    estimation["block_size"] = integer(estimation["block_size"],
                                       "estimation.block_size", 1)
    estimation["sample_sizes"] = numbers(
        estimation["sample_sizes"], "estimation.sample_sizes",
        check=_sample_size)
    return cfg


def _allocating(build, *args, name, value):
    """``build(*args)``, where an array too large to allocate is refused as
    a ConfigError naming the field ``name`` that asked for it."""
    try:
        return build(*args)
    except (MemoryError, ValueError) as exc:  # ValueError: past numpy's limit
        raise ConfigError(f"{name} {value!r} needs an array too large to "
                          f"allocate: {exc}") from exc


def _sample_size(value, name):
    """A sample size whose per-path array, one double a path, can be
    allocated, so one too large is refused before anything is priced."""
    n = integer(value, name, 1)
    _allocating(np.empty, n, name=name, value=value)
    return n


def _params_to_json(spec):
    return {name: None if getattr(spec, name) is None
            else getattr(spec, name).tolist() for name in PARAM_FIELDS}


def build_model(cfg):
    """The ModelSpec of a resolved config; ``model.params`` must give sigma
    and s0 of the ``model.n`` assets, and only :data:`PARAM_FIELDS`."""
    block = cfg["model"]
    params = block["params"]
    if not isinstance(params, dict):
        raise ConfigError(f"model.params must be an object, got {params!r}")
    for name in params:
        if name not in PARAM_FIELDS:
            raise ConfigError(f"unknown config field 'model.params.{name}'")
    for name in ("sigma", "s0"):
        if params.get(name) is None:
            raise ConfigError(f"model.params.{name} is required")
    lengths = {"s0": block["n"]}
    kwargs = {k: numbers(v, f"model.params.{k}", lengths.get(k), check=(
        (lambda row, field: numbers(row, field, len(v))) if k == "sigma"
        else number)) for k, v in params.items() if v is not None}
    return ModelSpec(tag=block["tag"], rate=block["rate"], **kwargs)


def build_payoff(cfg):
    """The PayoffSpec of a resolved config, relative to the basket value
    ``basket0 = weights . s0`` of the inverse-volatility weights
    ``basket_weights(sigma, n)``: strike ``moneyness * basket0 *
    exp(rate * horizon)``, and barriers ``barrier_moneyness * basket0``
    when set, a knock-out.  It reads sigma, s0 and the rate from the
    ``model`` block, which :func:`build_model` has checked."""
    block = cfg["payoff"]
    moneyness = number(block["moneyness"], "payoff.moneyness", positive=True)
    model = cfg["model"]
    weights = basket_weights(model["params"]["sigma"], model["n"])
    basket0 = float(np.dot(weights, model["params"]["s0"]))
    strike = number(
        moneyness * basket0 * math.exp(model["rate"] * cfg["grid"]["horizon"]),
        f"the strike that payoff.moneyness {moneyness!r} sets", positive=True)
    lower = upper = None
    if block["barrier_moneyness"] is not None:
        lo, hi = numbers(block["barrier_moneyness"],
                         "payoff.barrier_moneyness", 2)
        lower, upper = lo * basket0, hi * basket0
        if not lower < upper:  # reversed, or both overflow to inf
            raise ConfigError("payoff.barrier_moneyness needs lower < upper "
                              f"barrier, got {[lo, hi]!r}, barriers "
                              f"{[lower, upper]!r}")
    return PayoffSpec(weights=weights, strike=strike, lower=lower, upper=upper)


def build_grid(cfg):
    block = cfg["grid"]
    n_steps = round(block["horizon"] / block["dt"])
    return TimeGrid(block["horizon"], n_steps)


@dataclass(frozen=True)
class Scenario:
    """Everything a pricing or training run simulates from."""

    model: ModelSpec
    payoff: PayoffSpec
    grid: TimeGrid
    cov: CovariationSpec


def build_scenario(cfg):
    """The scenario of a resolved config; ``cov`` carries the model's sigma
    on the config's grid."""
    model = build_model(cfg)
    payoff = build_payoff(cfg)
    grid = build_grid(cfg)
    return Scenario(model, payoff, grid, CovariationSpec(model.sigma, grid))

