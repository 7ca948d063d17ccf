"""Acceptance: importance sampling is unbiased on reduced default scenarios,
and a trained drift reduces the variance.

Each scenario is a default config on a coarser grid, built by
``build_scenario``.  The first checks use a fixed drift, c * (basket weights
on the assets, 0 on the volatilities), so no training is involved: they
isolate the change of measure and the reweighting.  Each c gives a variance
ratio above one on its scenario (about 21 and 2.4 at these seeds).  The
trained-drift checks price as ``run`` does, with its seed rule, after 200
Adam steps; one of them prices on the default 252-step grid.
"""

import math

import numpy as np
import pytest

from driftmc.config import build_scenario, resolve_config
from driftmc.engine import compare, estimate_is, estimate_plain
from driftmc.network import ShallowNet
from driftmc.pipeline import estimate_seed, price, train_drift

pytestmark = pytest.mark.acceptance

N_PATHS = 8192

# name -> (raw config, drift scale c)
SCENARIOS = {
    "black_scholes-asian": ({"model": {"tag": "black_scholes"},
                             "payoff": {"moneyness": 1.3}}, 12.0),
    "heston-knockout": ({"model": {"tag": "heston"},
                         "payoff": {"moneyness": 1.1,
                                    "barrier_moneyness": [0.7, 1.6]}}, 1.5),
}


def basket_drift(sc, scale):
    """Constant drift scale * (basket weights, 0)."""
    direction = np.zeros(sc.model.d)
    direction[:sc.model.n] = sc.payoff.weights
    return ShallowNet(w_in=np.zeros(1), b_in=np.zeros(1),
                      w_out=np.zeros((sc.model.d, 1)),
                      b_out=scale * direction)


def reduced_config(raw):
    return resolve_config(dict(raw, grid={"dt": 1.0 / 50}))


def reduced_scenario(name):
    raw, _ = SCENARIOS[name]
    return build_scenario(reduced_config(raw))


def assert_means_agree(plain, weighted):
    """Both means positive and within 3 combined standard errors."""
    assert plain.mean_cents > 0.0 and weighted.mean_cents > 0.0
    se = math.hypot(plain.se_pct * plain.mean_cents,
                    weighted.se_pct * weighted.mean_cents) / 100
    assert abs(plain.mean_cents - weighted.mean_cents) <= 3 * se


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_is_mean_agrees_with_plain(name):
    sc = reduced_scenario(name)
    scale = SCENARIOS[name][1]
    plain = estimate_plain(sc.model, sc.payoff, sc.grid, sc.cov, seed=11,
                           n=N_PATHS)
    weighted = estimate_is(sc.model, sc.payoff, sc.grid, sc.cov,
                           basket_drift(sc, scale), seed=12, n=N_PATHS)
    assert_means_agree(plain, weighted)


# (model tag, training seed, pricing dt) of the default Asian call; the
# variance ratios are about 221, 81, 97 and 109.  The last case prices on
# the default 252-step grid with the net the first case trains.
@pytest.mark.parametrize("tag, train_seed, dt", [
    ("black_scholes", 0, 1 / 50), ("black_scholes", 1, 1 / 50),
    ("heston", 0, 1 / 50), ("black_scholes", 0, 1 / 252)],
    ids=["black_scholes-0", "black_scholes-1", "heston-0",
         "black_scholes-0-full_grid"])
def test_trained_drift_reduces_variance(tmp_path, tag, train_seed, dt):
    cfg = resolve_config({
        "model": {"tag": tag}, "grid": {"dt": dt},
        "training": {"epochs": 2, "steps_per_epoch": 100, "seed": train_seed},
        "estimation": {"sample_sizes": [N_PATHS]}})
    sc = build_scenario(cfg)
    drift, _ = train_drift(cfg, sc, tmp_path)
    plain = price(cfg, sc, N_PATHS, estimate_seed(cfg, 0, importance=False))
    weighted = price(cfg, sc, N_PATHS, estimate_seed(cfg, 0, importance=True),
                     drift=drift)
    assert compare(plain, weighted).vr >= 10.0
    assert_means_agree(plain, weighted)


def test_underflowed_weights_give_undefined_vr(caplog):
    # c = 12 is far too large for the Heston knock-out: every IS path is
    # knocked out or carries a weight that underflows to zero, so the IS
    # sample is constant at zero.  That is a failed estimate, not an
    # infinite variance reduction.
    sc = reduced_scenario("heston-knockout")
    plain = estimate_plain(sc.model, sc.payoff, sc.grid, sc.cov, seed=11,
                           n=2048)
    weighted = estimate_is(sc.model, sc.payoff, sc.grid, sc.cov,
                           basket_drift(sc, 12.0), seed=12, n=2048)
    assert plain.per_sample_variance > 0.0
    assert weighted.mean_cents == 0.0
    assert weighted.se_pct == math.inf
    assert math.isnan(compare(plain, weighted).vr)
    assert "variance is zero" in caplog.text
