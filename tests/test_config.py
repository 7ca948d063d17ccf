"""Tests for config resolution and parameter sampling."""

import hashlib
import json

import numpy as np
import pytest

from driftmc import config
from driftmc.config import (DEFAULTS, build_grid, build_model, build_payoff,
                            build_scenario, resolve_config, sample_parameters)
from driftmc.errors import ConfigError, write_json
from driftmc.models import (BLACK_SCHOLES, HESTON, STEIN_STEIN, THREE_HALVES,
                            ModelSpec, simulate)
from driftmc.payoffs import basket_weights
from driftmc.training import TrainConfig


class TestSampleParameters:
    def test_deterministic_in_seed(self):
        a = sample_parameters(7, tag="black_scholes", n=4, rate=0.05)
        b = sample_parameters(7, tag="black_scholes", n=4, rate=0.05)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        np.testing.assert_array_equal(a.s0, b.s0)

    def test_different_seeds_differ(self):
        a = sample_parameters(1, tag="black_scholes", n=4, rate=0.05)
        b = sample_parameters(2, tag="black_scholes", n=4, rate=0.05)
        assert not np.array_equal(a.sigma, b.sigma)

    @pytest.mark.parametrize("tag", [HESTON, THREE_HALVES, STEIN_STEIN])
    def test_sampled_specs_always_validate(self, tag):
        # an invalid draw is redrawn, never raised
        for seed in range(300):
            spec = sample_parameters(seed, tag=tag, n=3, rate=0.05)
            assert (spec.tag, spec.n) == (tag, 3)

    @pytest.mark.parametrize("tag, digest", [
        (BLACK_SCHOLES,
         "41c94d2d193d9ba63a603fe1a8551a11f85e116a121ab2e5ba6d3d20ea6e4a2c"),
        (HESTON,
         "35df51bcdbc0cd5711bd29a7b87121aa1ed7db9fcd854f1a036cf95cbd25f1ee"),
        (THREE_HALVES,
         "2a7a7fc9f855c83d5d352b1ffd1a88a47b2d2e44264792f8610dee9223cf62e4"),
        (STEIN_STEIN,
         "0d6da5d0afb35c3b9ca6d8fb07c584f58ad5745750e04ad1f92d753d6cd1040f"),
    ], ids=[BLACK_SCHOLES, HESTON, THREE_HALVES, STEIN_STEIN])
    def test_sampled_parameters_are_pinned(self, tag, digest):
        # the draws of seeds 0-2, byte for byte: a change of a range, of the
        # draw order or of the stream moves every sampled scenario
        sha = hashlib.sha256()
        for seed in range(3):
            spec = sample_parameters(seed, tag=tag, n=3, rate=0.05)
            for name in ("sigma", "s0", "mean_level", "reversion", "v0"):
                if getattr(spec, name) is not None:
                    sha.update(getattr(spec, name).tobytes())
        assert sha.hexdigest() == digest

    @pytest.mark.parametrize("tag, digest", [
        (BLACK_SCHOLES,
         "2d509f042e10551b2f1c9fc39c7f04bae7fc270cd48cf4089ed7cf314c63d5c9"),
        (HESTON,
         "767a800daeb5daab180eb3b085df64becf1d69a97088f18576362c503b552a3d"),
        (THREE_HALVES,
         "767a800daeb5daab180eb3b085df64becf1d69a97088f18576362c503b552a3d"),
        (STEIN_STEIN,
         "045a165844c656602fa935b94b71cb3d74b114fbbd72b7c712a81e5d9da11995"),
    ], ids=[BLACK_SCHOLES, HESTON, THREE_HALVES, STEIN_STEIN])
    def test_priced_options_are_pinned(self, tag, digest):
        # the built weights, strike and barriers of the default Asian and
        # of the 1.1 / [0.7, 1.6] knock-out at seeds 0-2, byte for byte: a
        # change of a payoff formula or of its order of operations moves
        # every priced option.  Heston and 3/2 draw the same asset rows and
        # s0, so they price the same options.
        sha = hashlib.sha256()
        for seed in range(3):
            for payoff in ({}, {"moneyness": 1.1,
                                "barrier_moneyness": [0.7, 1.6]}):
                spec = build_payoff(resolve_config({
                    "model": {"tag": tag, "n": 3, "seed": seed},
                    "payoff": payoff}))
                sha.update(spec.weights.tobytes())
                for value in (spec.strike, spec.lower, spec.upper):
                    if value is not None:
                        sha.update(np.float64(value).tobytes())
        assert sha.hexdigest() == digest

    def test_retry_budget_exhaustion_names_constraint(self, monkeypatch):
        # a mean level that can never satisfy the positivity criterion
        asset_norm, vol_norm, _ = config.VOL_MODEL_RANGES[HESTON]
        monkeypatch.setitem(config.VOL_MODEL_RANGES, HESTON,
                            (asset_norm, vol_norm, (1e-6, 1e-6)))
        with pytest.raises(ConfigError, match="feller"):
            sample_parameters(0, tag=HESTON, n=2, rate=0.05)

    def test_risk_neutral_mu_is_model_rate(self, fixed_normals):
        # on the zero-noise skeleton every asset grows at the model rate
        cfg = resolve_config({"model": {"tag": "heston", "n": 2,
                                        "rate": 0.03},
                              "grid": {"dt": 0.25}})
        assert "mu" not in cfg["model"]["params"]
        sc = build_scenario(cfg)
        batch = simulate(sc.model, sc.grid, sc.cov, fixed_normals(), 1)
        np.testing.assert_allclose(batch.states[0, -1, :2],
                                   sc.model.s0 * (1.0 + 0.03 * 0.25) ** 4,
                                   rtol=1e-15)


class TestResolveConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = resolve_config({"model": {"tag": "black_scholes", "n": 2}})
        assert cfg["grid"]["dt"] == DEFAULTS["grid"]["dt"]
        assert cfg["model"]["params"] is not None
        assert cfg["payoff"] == {"moneyness": 1.3, "barrier_moneyness": None}
        payoff = build_payoff(cfg)
        assert (payoff.n_assets, payoff.has_barriers) == (2, False)
        assert payoff.strike > 0.0
        assert cfg["training"]["hidden_width"] == 2

    def test_resolved_config_is_fixed_point(self):
        cfg = resolve_config({"model": {"tag": "heston", "n": 2}})
        again = resolve_config(json.loads(json.dumps(cfg)))
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"modle": {}})

    @pytest.mark.parametrize("block", ["model", "payoff", "grid", "training",
                                       "estimation"])
    def test_block_that_is_no_object_rejected(self, block):
        with pytest.raises(ConfigError, match=f"config field {block!r} must "
                                              "be an object"):
            resolve_config({block: [1.0]})

    def test_params_that_are_no_object_rejected(self):
        with pytest.raises(ConfigError, match="model.params must be an "
                                              "object, got"):
            resolve_config({"model": {"tag": "black_scholes",
                                      "params": [0.2, 1.0]}})

    def test_unknown_schema_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"schema": "driftmc-run-v999"})

    def test_explicit_params_survive(self):
        raw = {
            "model": {
                "tag": "black_scholes", "n": 1,
                "params": {"sigma": [[0.2]], "s0": [1.0],
                           "mean_level": None, "reversion": None, "v0": None},
            },
        }
        cfg = resolve_config(raw)
        model = build_model(cfg)
        np.testing.assert_array_equal(model.sigma, [[0.2]])

    def test_model_spec_built_once(self, monkeypatch):
        # resolve with explicit params, and build_scenario, each build the
        # model once: build_payoff reads the model block build_model checked
        built = []

        def counting(**kwargs):
            built.append(kwargs["tag"])
            return ModelSpec(**kwargs)
        monkeypatch.setattr(config, "ModelSpec", counting)
        cfg = resolve_config({"model": {
            "tag": "black_scholes", "n": 2,
            "params": {"sigma": [[0.2, 0.0], [0.0, 0.3]], "s0": [1.0, 1.1]}}})
        assert built == ["black_scholes"]
        build_scenario(cfg)
        assert built == ["black_scholes"] * 2

    def test_barrier_moneyness_materialized(self):
        # the resolved block keeps the barrier moneyness as written; the
        # built spec knocks out at it times the basket's initial value
        raw = {
            "model": {"tag": "black_scholes", "n": 2},
            "payoff": {"barrier_moneyness": [0.6, 1.6]},
        }
        cfg = resolve_config(raw)
        assert cfg["payoff"] == {"moneyness": 1.3,
                                 "barrier_moneyness": [0.6, 1.6]}
        params = cfg["model"]["params"]
        basket0 = float(np.dot(basket_weights(params["sigma"], 2),
                               params["s0"]))
        payoff = build_payoff(cfg)
        assert (payoff.lower, payoff.upper) == (0.6 * basket0, 1.6 * basket0)

    def test_moneyness_materialized(self):
        # the resolved block keeps the moneyness as written, 1.3 when the
        # config sets none; the built spec prices it over the forward value
        # of the inverse-volatility basket
        base = {"model": {"tag": "black_scholes", "n": 2, "seed": 1}}
        default = resolve_config(base)
        explicit = resolve_config(dict(base, payoff={"moneyness": 1.3}))
        assert default == explicit
        params = default["model"]["params"]
        weights = basket_weights(params["sigma"], 2)
        basket0 = float(np.dot(weights, params["s0"]))
        payoff = build_payoff(default)
        np.testing.assert_array_equal(payoff.weights, weights)
        assert payoff.strike == 1.3 * basket0 * np.exp(0.05)
        assert not payoff.has_barriers

    def test_builders(self):
        cfg = resolve_config({"model": {"tag": "stein_stein", "n": 2}})
        model = build_model(cfg)
        assert model.tag == "stein_stein"
        grid = build_grid(cfg)
        assert grid.n_steps == 252
        train_cfg = TrainConfig(**cfg["training"])
        assert train_cfg.batch_size == cfg["training"]["batch_size"]
        payoff = build_payoff(cfg)
        assert payoff.n_assets == 2
        sc = build_scenario(cfg)
        assert (sc.grid.horizon, sc.grid.n_steps) == (1.0, 252)
        np.testing.assert_array_equal(sc.cov.sigma, model.sigma)
        assert sc.cov.grid is sc.grid

    def test_dump_is_deterministic(self, tmp_path):
        cfg = resolve_config({"model": {"tag": "black_scholes", "n": 2}})
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_json(a, cfg)
        write_json(b, cfg)
        assert a.read_bytes() == b.read_bytes()
