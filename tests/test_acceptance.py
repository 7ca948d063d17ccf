"""Acceptance: importance sampling is unbiased on reduced default scenarios.

Each scenario is a default config on a coarser grid, built by
``build_scenario``.  The drift is fixed, c * (basket weights on the assets,
0 on the volatilities), so no training is involved: the check isolates the
change of measure and the reweighting.  Each c gives a variance ratio above
one on its scenario (about 21 and 2.4 at these seeds).
"""

import math

import numpy as np
import pytest

from driftmc.config import build_scenario, resolve_config
from driftmc.engine import compare, estimate_is, estimate_plain
from driftmc.network import ShallowNet

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


def reduced_scenario(name):
    raw, _ = SCENARIOS[name]
    return build_scenario(resolve_config(dict(raw, grid={"dt": 1.0 / 50})))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_is_mean_agrees_with_plain(name):
    sc = reduced_scenario(name)
    scale = SCENARIOS[name][1]
    plain = estimate_plain(sc.model, sc.payoff, sc.grid, sc.cov, seed=11,
                           n=N_PATHS)
    weighted = estimate_is(sc.model, sc.payoff, sc.grid, sc.cov,
                           basket_drift(sc, scale), seed=12, n=N_PATHS)
    assert plain.mean_cents > 0.0 and weighted.mean_cents > 0.0
    se = math.hypot(plain.se_pct * plain.mean_cents,
                    weighted.se_pct * weighted.mean_cents) / 100
    assert abs(plain.mean_cents - weighted.mean_cents) <= 3 * se


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
