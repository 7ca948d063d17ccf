"""Tests for config resolution and parameter sampling."""

import json

import numpy as np
import pytest

from driftmc import config
from driftmc.config import (DEFAULTS, build_grid, build_model, build_payoff,
                            build_scenario, build_train_config,
                            default_recipe, resolve_config, sample_parameters,
                            write_json)
from driftmc.errors import ConfigError
from driftmc.models import HESTON, STEIN_STEIN, THREE_HALVES, simulate


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

    def test_retry_budget_exhaustion_names_constraint(self, monkeypatch):
        # ranges that can never satisfy the positivity criterion
        recipe = default_recipe(HESTON, 2)
        recipe["mean_level"] = [1e-6, 1e-6]
        recipe["reversion"] = [1e-6, 1e-6]
        monkeypatch.setattr(config, "default_recipe", lambda tag, n: recipe)
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

    def test_unknown_tag_rejected(self):
        with pytest.raises(ConfigError):
            sample_parameters(0, tag="garch", n=2, rate=0.05)


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
                "params": {"sigma": [[0.2]], "s0": [1.0],
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
