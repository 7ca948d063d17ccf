"""Tests for config resolution and parameter sampling."""

import json

import numpy as np
import pytest

from driftmc.config import (DEFAULTS, build_grid, build_model, build_payoff,
                            build_scenario, build_train_config,
                            default_recipe, resolve_config, sample_parameters,
                            write_json)
from driftmc.errors import ConfigError
from driftmc.models import HESTON, STEIN_STEIN, THREE_HALVES, validate


class TestSampleParameters:
    def test_deterministic_in_seed(self):
        recipe = default_recipe("black_scholes", 4)
        a = sample_parameters(recipe, 7, tag="black_scholes", n=4,
                              rate=0.05)
        b = sample_parameters(recipe, 7, tag="black_scholes", n=4,
                              rate=0.05)
        np.testing.assert_array_equal(a.sigma, b.sigma)
        np.testing.assert_array_equal(a.s0, b.s0)

    def test_different_seeds_differ(self):
        recipe = default_recipe("black_scholes", 4)
        a = sample_parameters(recipe, 1, tag="black_scholes", n=4,
                              rate=0.05)
        b = sample_parameters(recipe, 2, tag="black_scholes", n=4,
                              rate=0.05)
        assert not np.array_equal(a.sigma, b.sigma)

    def test_degenerate_ranges_give_midpoint(self):
        recipe = {
            "mu": [0.07, 0.07],
            "s0": [1.0, 1.0],
            "sigma_entry": [0.1, 0.1],
        }
        spec = sample_parameters(recipe, 0, tag="black_scholes", n=2,
                                 rate=0.05)
        np.testing.assert_array_equal(spec.mu, [0.07, 0.07])
        np.testing.assert_array_equal(spec.s0, [1.0, 1.0])
        np.testing.assert_array_equal(spec.sigma, np.full((2, 2), 0.1))

    @pytest.mark.parametrize("tag", [HESTON, THREE_HALVES, STEIN_STEIN])
    def test_sampled_specs_always_validate(self, tag):
        recipe = default_recipe(tag, 3)
        for seed in range(300):
            spec = sample_parameters(recipe, seed, tag=tag, n=3, rate=0.05)
            assert validate(spec) == []

    def test_retry_budget_exhaustion_names_constraint(self):
        # a recipe that can never satisfy the positivity criterion
        recipe = default_recipe(HESTON, 2)
        recipe["mean_level"] = [1e-6, 1e-6]
        recipe["reversion"] = [1e-6, 1e-6]
        with pytest.raises(ConfigError, match="feller"):
            sample_parameters(recipe, 0, tag=HESTON, n=2, rate=0.05)

    @pytest.mark.parametrize("key, value", [
        ("tag", "heston"), ("n", 3), ("rate", 0.01)])
    def test_recipe_may_not_set_caller_fields(self, key, value):
        recipe = dict(default_recipe("black_scholes", 2), **{key: value})
        with pytest.raises(ConfigError, match=f"'{key}'"):
            sample_parameters(recipe, 0, tag="black_scholes", n=2, rate=0.05)
        with pytest.raises(ConfigError, match=f"'{key}'"):
            resolve_config({"model": {"tag": "black_scholes", "n": 2,
                                      "rate": 0.05, "recipe": recipe}})

    def test_risk_neutral_mu_is_model_rate(self):
        cfg = resolve_config({"model": {"tag": "heston", "n": 2,
                                        "rate": 0.03}})
        model = build_model(cfg)
        np.testing.assert_array_equal(model.mu, [0.03, 0.03])
        assert model.rate == 0.03

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigError):
            sample_parameters({}, 0, tag="garch", n=2, rate=0.05)


class TestResolveConfig:
    def test_minimal_config_fills_defaults(self):
        cfg = resolve_config({"model": {"tag": "black_scholes", "n": 2}})
        assert cfg["grid"]["dt"] == DEFAULTS["grid"]["dt"]
        assert cfg["model"]["params"] is not None
        assert cfg["payoff"]["strike"] > 0.0
        assert cfg["payoff"]["weights"] is not None
        assert cfg["training"]["hidden_width"] == 2

    def test_resolved_config_is_fixed_point(self):
        cfg = resolve_config({"model": {"tag": "heston", "n": 2}})
        again = resolve_config(json.loads(json.dumps(cfg)))
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"modle": {}})

    def test_unknown_schema_rejected(self):
        with pytest.raises(ConfigError):
            resolve_config({"schema": "driftmc-run-v999"})

    def test_explicit_params_survive(self):
        raw = {
            "model": {
                "tag": "black_scholes", "n": 1,
                "params": {"mu": [0.05], "sigma": [[0.2]], "s0": [1.0],
                           "mean_level": None, "reversion": None, "v0": None},
            },
        }
        cfg = resolve_config(raw)
        model = build_model(cfg)
        np.testing.assert_array_equal(model.sigma, [[0.2]])

    def test_barrier_moneyness_materialized(self):
        raw = {
            "model": {"tag": "black_scholes", "n": 2},
            "payoff": {"barrier_moneyness": [0.6, 1.6]},
        }
        cfg = resolve_config(raw)
        lo, hi = cfg["payoff"]["barriers"]
        basket0 = float(np.dot(cfg["payoff"]["weights"],
                               cfg["model"]["params"]["s0"]))
        assert lo == pytest.approx(0.6 * basket0)
        assert hi == pytest.approx(1.6 * basket0)
        assert cfg["payoff"]["barrier_moneyness"] is None
        assert build_payoff(cfg).has_barriers

    def test_builders(self):
        cfg = resolve_config({"model": {"tag": "stein_stein", "n": 2}})
        model = build_model(cfg)
        assert model.tag == "stein_stein"
        assert validate(model) == []
        grid = build_grid(cfg)
        assert grid.n_steps == 252
        train_cfg = build_train_config(cfg)
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
