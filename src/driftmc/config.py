"""Run configuration: parsing, defaulting, parameter sampling, resolution.

A run config is a single JSON document with a schema id.  Resolution fills
every default, samples risk-neutral model parameters from the family's
:func:`default_recipe` unless explicit values are given, and materializes
derived quantities (weights, strike, barriers), producing a config that is
a fixed point: running the resolved document reproduces the run bit for
bit.
"""

import copy
import json
import math
import sys
from collections import Counter
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

import numpy as np

from .covariation import CovariationSpec, TimeGrid
from .engine import DEFAULT_BLOCK_SIZE
from .errors import ConfigError, ModelValidationError
from .models import (BLACK_SCHOLES, HESTON, MODEL_TAGS, STEIN_STEIN,
                     THREE_HALVES, ModelSpec)
from .network import ACTIVATIONS
from .payoffs import PayoffSpec, basket_weights
from .training import TrainConfig
from . import streams

SCHEMA_ID = "driftmc-run-v7"

MAX_SAMPLE_RETRIES = 200

# Strike over the forward basket value when a config sets neither
# payoff.strike nor payoff.moneyness.
DEFAULT_MONEYNESS = 1.3

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
        "weights": None,
        "strike": None,
        "moneyness": None,
        "barriers": None,
        "barrier_moneyness": None,
    },
    "grid": {
        "horizon": 1.0,
        "dt": 1.0 / 252.0,
    },
    "training": {
        **{f.name: f.default for f in fields(TrainConfig)},
        "hidden_width": None,
        "activation": "scaled_tanh",
    },
    "estimation": {
        "sample_sizes": [5000, 20000, 100000],
        "seed": 7,
        "block_size": DEFAULT_BLOCK_SIZE,
    },
}


# Entry ranges are (-a, k*a): the positive skew gives asset rows an average
# pairwise correlation near 3(k-1)^2 / (4(k^2-k+1)), about 0.32 for k = 2.3,
# the regime of a positively correlated equity basket.  Without it a basket
# of 10 independent assets diversifies to a few percent of volatility and a
# 30 percent out-of-the-money strike is never reached.
_ENTRY_SKEW = 2.3


def _entry_range(target_row_norm, d):
    a = target_row_norm / math.sqrt(d * (_ENTRY_SKEW**2 - _ENTRY_SKEW + 1) / 3.0)
    return [-a, _ENTRY_SKEW * a]


def default_recipe(tag, n):
    """Parameter sampling ranges per model family.

    Diffusion ranges target an effective asset volatility near 30 percent a
    year; with the default 1.3 moneyness this puts a deep out-of-the-money
    Asian basket call at a positive-payoff fraction below two percent and a
    plain-MC standard error of a few tens of percent at five thousand paths.
    """
    recipe = {"s0": [0.8, 1.2]}
    if tag == BLACK_SCHOLES:
        recipe["sigma_entry"] = _entry_range(0.30, n)
        return recipe
    d = 2 * n
    recipe["mean_level"] = [0.04, 0.16]
    recipe["v0"] = [0.04, 0.16]
    recipe["reversion"] = [1.0, 3.0]
    if tag == HESTON:
        # sqrt(variance level) ~ 0.3 scales the asset rows down.
        recipe["sigma_asset_entry"] = _entry_range(1.0, d)
        recipe["sigma_vol_entry"] = _entry_range(0.25, d)
    elif tag == THREE_HALVES:
        recipe["sigma_asset_entry"] = _entry_range(1.0, d)
        recipe["sigma_vol_entry"] = _entry_range(0.8, d)
    elif tag == STEIN_STEIN:
        recipe["mean_level"] = [0.15, 0.30]
        recipe["v0"] = [0.15, 0.30]
        recipe["sigma_asset_entry"] = _entry_range(1.35, d)
        recipe["sigma_vol_entry"] = _entry_range(0.2, d)
    else:
        raise ConfigError(f"unknown model tag {tag!r}")
    return recipe


def sample_parameters(seed, tag, n, rate):
    """Draw a valid model spec from :func:`default_recipe`, deterministically
    in seed.

    Specs violating a structural invariant are rejected and redrawn; after
    ``MAX_SAMPLE_RETRIES`` failures the error names the constraint that
    rejected most drafts.
    """
    if n < 1:
        raise ConfigError("the model needs a positive asset count n")
    recipe = default_recipe(tag, n)
    d = n if tag == BLACK_SCHOLES else 2 * n
    rejected = Counter()
    for attempt in range(MAX_SAMPLE_RETRIES):
        rng = streams.substream(seed, streams.PARAMS, attempt)
        s0 = rng.uniform(*recipe["s0"], size=n)
        if tag == BLACK_SCHOLES:
            sigma = rng.uniform(*recipe["sigma_entry"], size=(d, d))
            vol = {}
        else:
            sigma = np.empty((d, d))
            sigma[:n] = rng.uniform(*recipe["sigma_asset_entry"], size=(n, d))
            sigma[n:] = rng.uniform(*recipe["sigma_vol_entry"], size=(n, d))
            vol = dict(mean_level=rng.uniform(*recipe["mean_level"], size=n),
                       reversion=rng.uniform(*recipe["reversion"], size=n),
                       v0=rng.uniform(*recipe["v0"], size=n))
        try:
            return ModelSpec(tag=tag, sigma=sigma, s0=s0, rate=rate, **vol)
        except ModelValidationError as exc:
            rejected.update(v.code for v in exc.violations)
    binding = rejected.most_common(1)[0][0]
    raise ConfigError(
        f"no valid parameters after {MAX_SAMPLE_RETRIES} draws; most often "
        f"violated constraint: {binding!r}")


def _merge_defaults(config, defaults):
    out = copy.deepcopy(defaults)
    for key, value in config.items():
        if key not in defaults:
            raise ConfigError(f"unknown config field {key!r}")
        if isinstance(defaults[key], dict) and defaults[key]:
            if not isinstance(value, dict):
                raise ConfigError(f"config field {key!r} must be an object")
            out[key] = _merge_defaults(value, defaults[key])
        else:
            out[key] = copy.deepcopy(value)
    return out


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


# Field checks: each returns the value, or raises a ConfigError naming it.

def _number(value, name, positive=False):
    """A finite number, positive if asked; never a bool."""
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value)
            and (value > 0 or not positive)):
        kind = "a positive finite" if positive else "a finite"
        raise ConfigError(f"{name} must be {kind} number, got {value!r}")
    return value


def _integer(value, name, minimum=None):
    """A whole number, at least ``minimum`` if given, as an int; never a
    bool."""
    try:
        whole = int(value) == value and not isinstance(value, bool)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or (minimum is not None and value < minimum):
        least = "" if minimum is None else f" of at least {minimum}"
        raise ConfigError(f"{name} must be an integer{least}, got {value!r}")
    return int(value)


def _array(values, name, ndim):
    """A rectangular ``ndim``-dimensional array of numbers."""
    try:
        array = np.array(values)
    except ValueError:  # ragged nesting
        array = None
    if array is None or array.ndim != ndim or array.dtype.kind not in "iuf":
        kind = "list" if ndim == 1 else "matrix"
        raise ConfigError(f"{name} must be a {kind} of numbers, got "
                          f"{values!r}")
    return array


def _numbers(values, name, length=None, check=_number):
    """A non-empty list, of ``length`` entries if given, checked entrywise."""
    if not (isinstance(values, list) and values
            and len(values) == (length or len(values))):
        raise ConfigError(f"{name} must be a list of {length or 'one or more'} "
                          f"numbers, got {values!r}")
    return [check(value, f"{name}[{j}]") for j, value in enumerate(values)]


def _barrier_pair(values, name):
    """A (lower, upper) pair of finite numbers with lower < upper."""
    lo, hi = _numbers(values, name, 2)
    if not lo < hi:
        raise ConfigError(f"{name} needs lower < upper barrier, got {values!r}")
    return lo, hi


def resolve_config(raw):
    """Fill defaults, sample parameters, materialize derived fields; a bad
    field raises a ConfigError naming it, bad model parameters a
    :class:`ModelValidationError`."""
    schema = raw.get("schema", SCHEMA_ID)
    if schema != SCHEMA_ID:
        raise ConfigError(f"unsupported config schema {schema!r}; this "
                          f"version reads {SCHEMA_ID!r}, so resolve the "
                          "raw config again")
    cfg = _merge_defaults(raw, DEFAULTS)
    for key in ("horizon", "dt"):
        _number(cfg["grid"][key], f"grid.{key}", positive=True)
    steps = cfg["grid"]["horizon"] / cfg["grid"]["dt"]
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ConfigError(f"grid.dt must divide grid.horizon into whole "
                          f"steps; horizon / dt = {steps!r}")

    model_block = cfg["model"]
    tag = model_block["tag"]
    if tag not in MODEL_TAGS:
        raise ConfigError(f"unknown model tag {tag!r}")
    n = model_block["n"] = _integer(model_block["n"], "model.n", 1)
    model_block["seed"] = _integer(model_block["seed"], "model.seed", 0)
    _number(model_block["rate"], "model.rate")
    if model_block["params"] is None:
        spec = sample_parameters(model_block["seed"], tag=tag, n=n,
                                 rate=model_block["rate"])
        model_block["params"] = _params_to_json(spec)
    model = build_model(cfg)

    payoff_block = cfg["payoff"]
    if payoff_block["weights"] is None:
        payoff_block["weights"] = basket_weights(model.sigma, n).tolist()
    weights = _numbers(payoff_block["weights"], "payoff.weights", n)
    if not np.isclose(np.sum(weights), 1.0, atol=1e-9):
        raise ConfigError(f"payoff.weights must sum to 1, got {weights!r}")
    basket0 = float(np.dot(weights, model.s0))
    forward_factor = math.exp(model.rate * cfg["grid"]["horizon"])
    moneyness = payoff_block["moneyness"]
    if payoff_block["strike"] is None:
        moneyness = _number(DEFAULT_MONEYNESS if moneyness is None
                            else moneyness, "payoff.moneyness", positive=True)
        payoff_block["strike"] = moneyness * basket0 * forward_factor
    elif moneyness is not None:
        raise ConfigError("set payoff.strike or payoff.moneyness, not both")
    payoff_block["moneyness"] = None
    _number(payoff_block["strike"], "payoff.strike", positive=True)
    if payoff_block["barrier_moneyness"] is not None:
        if payoff_block["barriers"] is not None:
            raise ConfigError("set payoff.barriers or "
                              "payoff.barrier_moneyness, not both")
        lo, hi = _barrier_pair(payoff_block["barrier_moneyness"],
                               "payoff.barrier_moneyness")
        payoff_block["barriers"] = [lo * basket0, hi * basket0]
        payoff_block["barrier_moneyness"] = None
    if payoff_block["barriers"] is not None:
        _barrier_pair(payoff_block["barriers"], "payoff.barriers")

    training = cfg["training"]
    width = training["hidden_width"]
    training["hidden_width"] = _integer(model.d if width is None else width,
                                        "training.hidden_width", 1)
    if training["activation"] not in tuple(ACTIVATIONS):
        raise ConfigError("training.activation: unknown activation "
                          f"{training['activation']!r}")
    build_train_config(cfg)  # a bad training block fails here, not mid-run

    estimation = cfg["estimation"]
    estimation["seed"] = _integer(estimation["seed"], "estimation.seed", 0)
    estimation["block_size"] = _integer(estimation["block_size"],
                                        "estimation.block_size", 1)
    estimation["sample_sizes"] = _numbers(
        estimation["sample_sizes"], "estimation.sample_sizes",
        check=partial(_integer, minimum=1))
    return cfg


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
            raise ConfigError(f"model.params.{name} is no model parameter; "
                              f"the fields are {', '.join(PARAM_FIELDS)}")
    for name in ("sigma", "s0"):
        if params.get(name) is None:
            raise ConfigError(f"model.params.{name} is required")
    kwargs = {k: _array(v, f"model.params.{k}", 2 if k == "sigma" else 1)
              for k, v in params.items() if v is not None}
    if kwargs["s0"].size != block["n"]:
        raise ConfigError(f"model.params.s0 has {kwargs['s0'].size} "
                          f"entries but model.n is {block['n']}")
    return ModelSpec(tag=block["tag"], rate=block["rate"], **kwargs)


def build_payoff(cfg):
    block = cfg["payoff"]
    lower, upper = block["barriers"] or (None, None)
    try:
        return PayoffSpec(weights=block["weights"], strike=block["strike"],
                          lower=lower, upper=upper)
    except ValueError as exc:
        raise ConfigError(f"invalid payoff: {exc}") from exc


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


def build_train_config(cfg):
    """The TrainConfig of a resolved config; an integer field that holds no
    whole number, or a float field no finite number, is a ConfigError."""
    return TrainConfig(**{
        f.name: (_integer if f.type is int else _number)(
            cfg["training"][f.name], f"training.{f.name}")
        for f in fields(TrainConfig)})


def write_json(path, payload):
    """Write ``payload`` as JSON with deterministic formatting, to stdout if
    ``path`` is None."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
