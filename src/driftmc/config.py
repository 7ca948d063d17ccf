"""Run configuration: parsing, defaulting, parameter sampling, resolution.

A run config is a single JSON document with a schema id.  Resolution fills
every default, samples model parameters when a recipe is given instead of
explicit values, and materializes derived quantities (weights, strike,
barriers), producing a config that is a fixed point: running the resolved
document reproduces the run bit for bit.
"""

import copy
import json
import math
from collections import Counter
from dataclasses import dataclass, fields

import numpy as np

from .covariation import CovariationSpec, TimeGrid
from .engine import DEFAULT_BLOCK_SIZE
from .errors import ConfigError, ModelValidationError
from .models import (BLACK_SCHOLES, HESTON, MODEL_TAGS, STEIN_STEIN,
                     THREE_HALVES, ModelSpec, validate)
from .payoffs import (ASIAN_BASKET_CALL, ASIAN_BASKET_KNOCKOUT, PayoffSpec,
                      basket_weights)
from .training import TrainConfig
from . import streams

SCHEMA_ID = "driftmc-run-v3"

MAX_SAMPLE_RETRIES = 200

DEFAULTS = {
    "schema": SCHEMA_ID,
    "model": {
        "tag": BLACK_SCHOLES,
        "n": 10,
        "rate": 0.05,
        "seed": 0,
        "params": None,
        "recipe": None,
    },
    "payoff": {
        "weights": None,
        "strike": None,
        "moneyness": 1.3,
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
    "output": {
        "formats": ["csv", "json"],
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
    recipe = {
        "mu": "risk_neutral",
        "s0": [0.8, 1.2],
    }
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


def _range(recipe, key, rng, size=None):
    try:
        lo, hi = recipe[key]
    except KeyError:
        raise ConfigError(f"recipe is missing the range {key!r}") from None
    except (TypeError, ValueError):
        raise ConfigError(f"recipe field {key!r} must be a [lo, hi] pair") from None
    if hi < lo:
        raise ConfigError(f"recipe range {key!r} has hi < lo")
    return rng.uniform(lo, hi, size=size)


def sample_parameters(recipe, seed, tag, n, rate):
    """Draw a valid model spec from the recipe, deterministically in seed.

    The model family, asset count and rate come from the caller only; a
    recipe that carries any of them is refused, so a risk-neutral drift and
    the discount rate cannot disagree.  Specs violating a structural
    invariant are rejected and redrawn; after ``MAX_SAMPLE_RETRIES``
    failures the error names the constraint that rejected most drafts.
    """
    for key in ("tag", "n", "rate"):
        if key in recipe:
            raise ConfigError(f"recipe may not set {key!r}; it comes from "
                              "the model block")
    if tag not in MODEL_TAGS:
        raise ConfigError(f"unknown model tag {tag!r}")
    if n < 1:
        raise ConfigError("the model needs a positive asset count n")
    d = n if tag == BLACK_SCHOLES else 2 * n

    rejected = Counter()
    for attempt in range(MAX_SAMPLE_RETRIES):
        rng = streams.substream(seed, streams.PARAMS, attempt)
        s0 = _range(recipe, "s0", rng, n)
        if recipe.get("mu", "risk_neutral") == "risk_neutral":
            mu = np.full(n, float(rate))
        else:
            mu = _range(recipe, "mu", rng, n)
        if tag == BLACK_SCHOLES:
            sigma = _range(recipe, "sigma_entry", rng, (d, d))
            spec = ModelSpec(tag=tag, mu=mu, sigma=sigma, s0=s0, rate=rate)
        else:
            sigma = np.empty((d, d))
            sigma[:n] = _range(recipe, "sigma_asset_entry", rng, (n, d))
            sigma[n:] = _range(recipe, "sigma_vol_entry", rng, (n, d))
            spec = ModelSpec(
                tag=tag, mu=mu, sigma=sigma, s0=s0, rate=rate,
                mean_level=_range(recipe, "mean_level", rng, n),
                reversion=_range(recipe, "reversion", rng, n),
                v0=_range(recipe, "v0", rng, n),
            )
        violations = validate(spec)
        if not violations:
            return spec
        rejected.update(v.code for v in violations)
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


def resolve_config(raw):
    """Fill defaults, sample parameters, materialize derived fields."""
    schema = raw.get("schema", SCHEMA_ID)
    if schema != SCHEMA_ID:
        raise ConfigError(f"unsupported config schema {schema!r}; this "
                          f"version reads {SCHEMA_ID!r}, so resolve the "
                          "raw config again")
    cfg = _merge_defaults(raw, DEFAULTS)
    for key in ("horizon", "dt"):
        value = cfg["grid"][key]
        if not (isinstance(value, (int, float)) and math.isfinite(value)
                and value > 0):
            raise ConfigError(f"grid.{key} must be a positive finite "
                              f"number, got {value!r}")
    steps = cfg["grid"]["horizon"] / cfg["grid"]["dt"]
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ConfigError(f"grid.dt must divide grid.horizon into whole "
                          f"steps; horizon / dt = {steps!r}")

    model_block = cfg["model"]
    tag = model_block["tag"]
    if tag not in MODEL_TAGS:
        raise ConfigError(f"unknown model tag {tag!r}")
    n = int(model_block["n"])
    if model_block["params"] is None:
        recipe = model_block["recipe"] or default_recipe(tag, n)
        model_block["recipe"] = recipe
        spec = sample_parameters(recipe, model_block["seed"], tag=tag, n=n,
                                 rate=model_block["rate"])
        model_block["params"] = _params_to_json(spec)
    model = build_model(cfg)

    payoff_block = cfg["payoff"]
    if payoff_block["weights"] is None:
        try:
            weights = basket_weights(model.mu, model.sigma)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        payoff_block["weights"] = [float(w) for w in weights]
    basket0 = float(np.dot(payoff_block["weights"], model.s0))
    forward_factor = math.exp(model.rate * cfg["grid"]["horizon"])
    if payoff_block["strike"] is None:
        payoff_block["strike"] = payoff_block["moneyness"] * basket0 * forward_factor
    if payoff_block["barriers"] is None and payoff_block["barrier_moneyness"]:
        lo, hi = payoff_block["barrier_moneyness"]
        payoff_block["barriers"] = [lo * basket0, hi * basket0]
        payoff_block["barrier_moneyness"] = None

    if cfg["training"]["hidden_width"] is None:
        cfg["training"]["hidden_width"] = model.d
    build_train_config(cfg)  # a bad training block fails here, not mid-run
    sizes = cfg["estimation"]["sample_sizes"]
    if not sizes or any(int(s) <= 0 for s in sizes):
        raise ConfigError("estimation.sample_sizes must be positive")
    if int(cfg["estimation"]["block_size"]) <= 0:
        raise ConfigError("estimation.block_size must be positive")
    for fmt in cfg["output"]["formats"]:
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {fmt!r}")
    return cfg


def _params_to_json(spec):
    out = {
        "mu": [float(x) for x in spec.mu],
        "sigma": [[float(x) for x in row] for row in spec.sigma],
        "s0": [float(x) for x in spec.s0],
    }
    for name in ("mean_level", "reversion", "v0"):
        value = getattr(spec, name)
        out[name] = None if value is None else [float(x) for x in value]
    return out


def build_model(cfg):
    """Materialize the ModelSpec of a resolved config."""
    block = cfg["model"]
    params = block["params"]
    if params is None:
        raise ConfigError("model params missing; resolve the config first")
    kwargs = {name: params[name] for name in ("mean_level", "reversion", "v0")
              if params.get(name) is not None}
    return ModelSpec(tag=block["tag"], mu=params["mu"], sigma=params["sigma"],
                     s0=params["s0"], rate=block["rate"], **kwargs)


def build_payoff(cfg):
    block = cfg["payoff"]
    barriers = block["barriers"]
    try:
        if barriers is None:
            return PayoffSpec(tag=ASIAN_BASKET_CALL, weights=block["weights"],
                              strike=block["strike"])
        return PayoffSpec(tag=ASIAN_BASKET_KNOCKOUT, weights=block["weights"],
                          strike=block["strike"], lower=barriers[0],
                          upper=barriers[1])
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
    """The validated scenario of a resolved config; ``cov`` carries the
    model's sigma on the config's grid."""
    model = build_model(cfg)
    violations = validate(model)
    if violations:
        raise ModelValidationError(violations)
    payoff = build_payoff(cfg)
    grid = build_grid(cfg)
    return Scenario(model, payoff, grid, CovariationSpec(model.sigma, grid))


def build_train_config(cfg):
    """The TrainConfig of a resolved config, each field cast to its type; a
    value the cast would change or cannot make is a ConfigError."""
    values = {}
    for f in fields(TrainConfig):
        value = cfg["training"][f.name]
        try:
            values[f.name] = f.type(value)
        except (TypeError, ValueError):
            raise ConfigError(f"training.{f.name} must be a number, got "
                              f"{value!r}") from None
        if f.type is int and values[f.name] != value:
            raise ConfigError(f"training.{f.name} must be an integer, got "
                              f"{value!r}")
    return TrainConfig(**values)


def write_json(path, payload):
    """Write ``payload`` as JSON with deterministic formatting."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
