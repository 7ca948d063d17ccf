"""Tests for model validation and Euler path simulation."""

import numpy as np
import pytest

from driftmc.config import build_scenario, resolve_config
from driftmc.covariation import (CovariationSpec, TimeGrid, cameron_martin_map,
                                 log_likelihood_inverse, sample_increments)
from driftmc.errors import (DimensionError, ModelValidationError,
                            SimulationError)
from driftmc.models import (BLACK_SCHOLES, HESTON, MODEL_TAGS, STEIN_STEIN,
                            THREE_HALVES, ModelSpec, simulate)
from driftmc.network import ShallowNet, forward, init_net
from driftmc.payoffs import evaluate_batch


def bs_model(n=1, vol=0.2, s0=1.0, rate=0.05):
    return ModelSpec(tag=BLACK_SCHOLES, sigma=np.eye(n) * vol,
                     s0=np.full(n, s0), rate=rate)


def heston_model(n=1, feller_slack=1.0):
    sigma = np.zeros((2 * n, 2 * n))
    sigma[:n, :n] = 0.5 * np.eye(n)
    sigma[n:, n:] = 0.2 * np.eye(n)
    theta = np.full(n, 2.0)
    m = np.full(n, 0.04 * feller_slack)
    return ModelSpec(tag=HESTON, sigma=sigma,
                     s0=np.ones(n), rate=0.05, mean_level=m,
                     reversion=theta, v0=np.full(n, 0.04))


def grid_and_cov(model, n_steps=252, horizon=1.0):
    grid = TimeGrid(horizon, n_steps)
    return grid, CovariationSpec(model.sigma, grid)


def violations(**params):
    """The violations ``ModelSpec(**params)`` raises; empty if it builds."""
    try:
        ModelSpec(**params)
    except ModelValidationError as exc:
        return exc.violations
    return []


class TestValidate:
    """A ModelSpec is valid by construction: an invalid one raises, listing
    every violation."""

    def test_black_scholes_ok(self):
        assert violations(tag=BLACK_SCHOLES, sigma=0.2 * np.eye(3),
                          s0=np.ones(3), rate=0.05) == []

    def test_zero_sigma_row_flagged(self):
        sigma = np.eye(2)
        sigma[1] = 0.0
        spec = dict(tag=BLACK_SCHOLES, sigma=sigma, s0=[1.0, 1.0])
        codes = [(v.code, v.index) for v in violations(**spec)]
        assert ("sigma", 1) in codes

    def test_heston_feller_boundary_accepted(self):
        # 2 theta m = |sigma_vol|^2 exactly (all values binary-exact):
        # 2 * 2 * 0.0625 = 0.25 = 0.5^2
        sigma = np.zeros((2, 2))
        sigma[0, 0] = 0.5
        sigma[1, 1] = 0.5
        spec = dict(tag=HESTON, sigma=sigma, s0=[1.0],
                    mean_level=[0.0625], reversion=[2.0], v0=[0.04])
        assert violations(**spec) == []

    def test_heston_feller_violation(self):
        # 2 * 1 * 0.04 = 0.08 < 0.09 = 0.3^2
        sigma = np.zeros((2, 2))
        sigma[0, 0] = 0.5
        sigma[1, 1] = 0.3
        spec = dict(tag=HESTON, sigma=sigma, s0=[1.0],
                    mean_level=[0.04], reversion=[1.0], v0=[0.04])
        found = violations(**spec)
        assert [v.code for v in found] == ["feller"]
        assert found[0].index == 0

    def test_three_halves_non_explosion(self):
        sigma = np.zeros((2, 2))
        sigma[0, 0] = 0.5
        sigma[1, 1] = 1.0
        ok = dict(tag=THREE_HALVES, sigma=sigma, s0=[1.0],
                  mean_level=[0.1], reversion=[0.0], v0=[0.1])
        assert violations(**ok) == []
        bad = dict(tag=THREE_HALVES, sigma=sigma, s0=[1.0],
                   mean_level=[0.1], reversion=[-0.51], v0=[0.1])
        assert [v.code for v in violations(**bad)] == ["non_explosion"]

    def test_negative_initial_price(self):
        spec = dict(tag=BLACK_SCHOLES, sigma=[[0.2]], s0=[-1.0])
        assert [v.code for v in violations(**spec)] == ["s0"]

    def test_wrong_driver_dimension(self):
        spec = dict(tag=HESTON, sigma=np.eye(3), s0=[1.0],
                    mean_level=[0.04], reversion=[1.0], v0=[0.04])
        assert [v.code for v in violations(**spec)] == ["sigma"]

    def test_missing_volatility_params(self):
        spec = dict(tag=STEIN_STEIN, sigma=np.eye(2), s0=[1.0])
        codes = {v.code for v in violations(**spec)}
        assert codes == {"mean_level", "reversion", "v0"}


class TestSplitDriver:
    """The asset block (first n) and volatility block (last n) of the
    driver increments."""

    def test_cross_block_correlation_from_sigma(self):
        # lower-triangular sigma with nonzero (n+k, k) entry correlates the
        # asset and volatility driver blocks through pi
        sigma = np.array([[0.3, 0.0], [0.12, 0.25]])
        grid = TimeGrid(1.0, 1)
        spec = CovariationSpec(sigma, grid)
        dm = sample_increments(spec, np.random.default_rng(1), 200_000)
        a, v = dm[..., :1], dm[..., 1:]
        prod = a[:, 0, 0] * v[:, 0, 0]
        target = spec.pi[0, 1] * 1.0
        se = prod.std(ddof=1) / np.sqrt(prod.size)
        assert abs(prod.mean() - target) <= 5 * se


class TestSimulateBlackScholes:
    def test_zero_noise_recursion(self, fixed_normals):
        model = bs_model(n=2, rate=0.1)
        grid, cov = grid_and_cov(model, n_steps=10)
        batch = simulate(model, grid, cov, rng=fixed_normals(), n_paths=3)
        expected = 1.0 * (1.0 + 0.1 * 0.1) ** 10
        np.testing.assert_allclose(batch.states[:, -1, :], expected, rtol=1e-12)
        np.testing.assert_array_equal(batch.log_inverse_likelihood, 0.0)

    def test_terminal_mean_matches_gbm(self):
        model = bs_model(vol=0.2)
        grid, cov = grid_and_cov(model)
        batch = simulate(model, grid, cov, rng=np.random.default_rng(0),
                         n_paths=100_000)
        su = batch.states[:, -1, 0]
        se = su.std(ddof=1) / np.sqrt(su.size)
        assert abs(su.mean() - np.exp(0.05)) <= 3 * se + 2 * (1 / 252)

    def test_same_seed_is_deterministic(self):
        model = bs_model(n=2)
        grid, cov = grid_and_cov(model, n_steps=16)
        a = simulate(model, grid, cov, rng=np.random.default_rng(5), n_paths=10)
        b = simulate(model, grid, cov, rng=np.random.default_rng(5), n_paths=10)
        np.testing.assert_array_equal(a.states, b.states)

    def test_validation_refuses_simulation(self):
        # an invalid spec cannot be built, so it is never simulated
        with pytest.raises(ModelValidationError, match="s0"):
            ModelSpec(tag=BLACK_SCHOLES, sigma=[[0.2]], s0=[-1.0])

    @pytest.mark.parametrize("horizon,n_steps", [(4.0, 16), (1.0, 8)],
                             ids=["horizon", "steps"])
    def test_covariation_on_another_grid_rejected(self, horizon, n_steps):
        # increments drawn on the covariation's grid would have the wrong
        # variance, or the wrong count, for the Euler steps of ``grid``
        model = bs_model()
        grid, _ = grid_and_cov(model, n_steps=16)
        _, other = grid_and_cov(model, n_steps=n_steps, horizon=horizon)
        with pytest.raises(DimensionError, match="different grid"):
            simulate(model, grid, other, rng=np.random.default_rng(1),
                     n_paths=4)

    @pytest.mark.parametrize("model, row_scale", [
        (bs_model(n=2), [2.0, 2.0]),    # a Black-Scholes basket at 2 sigma
        (heston_model(), [1.0, 20.0]),  # vol row 20x: breaks Feller unchecked
    ], ids=["doubled", "vol_rows"])
    def test_covariation_from_another_sigma_rejected(self, model, row_scale):
        # the paths would be driven by cov.sigma, while validation checked
        # the model's sigma
        grid, _ = grid_and_cov(model, n_steps=16)
        other = CovariationSpec(model.sigma * np.array(row_scale)[:, None],
                                grid)
        with pytest.raises(DimensionError, match="another sigma"):
            simulate(model, grid, other, rng=np.random.default_rng(1),
                     n_paths=4)

    def test_explosion_aborts_with_path_index(self, fixed_normals):
        model = bs_model()
        grid, cov = grid_and_cov(model, n_steps=4)
        z = np.zeros((2, 4, 1))
        z[1, 0, 0] = 1e200  # force one path over the edge
        z[1, 1, 0] = 1e200
        with pytest.raises(SimulationError) as err:
            simulate(model, grid, cov, rng=fixed_normals(z), n_paths=2)
        assert err.value.path_indices == (1,)


class TestSimulateWithDrift:
    def test_zero_drift_net_reproduces_plain_batch(self):
        model = bs_model(n=2)
        grid, cov = grid_and_cov(model, n_steps=32)
        zero_net = init_net(3, 2, rng=np.random.default_rng(1))
        plain = simulate(model, grid, cov, rng=np.random.default_rng(9),
                         n_paths=20)
        shifted = simulate(model, grid, cov, drift=zero_net,
                           rng=np.random.default_rng(9), n_paths=20)
        np.testing.assert_array_equal(plain.states, shifted.states)
        np.testing.assert_array_equal(shifted.log_inverse_likelihood, 0.0)

    def test_constant_drift_shifts_increment_mean(self):
        model = bs_model(vol=0.2)
        grid, cov = grid_and_cov(model, n_steps=8)
        c = 2.0
        net = ShallowNet(w_in=np.zeros(1), b_in=np.zeros(1),
                         w_out=np.zeros((1, 1)), b_out=np.array([c]))
        batch = simulate(model, grid, cov, drift=net,
                         rng=np.random.default_rng(2), n_paths=200_000)
        step = batch.increments[:, 3, 0]
        target = cov.pi[0, 0] * c * grid.dt
        se = step.std(ddof=1) / np.sqrt(step.size)
        assert abs(step.mean() - target) <= 4 * se

    def test_measure_change_consistency_at_estimator_level(self):
        # E_Ph[F exp(log inverse likelihood)] equals E_P[F] for F = terminal value
        model = bs_model(vol=0.3)
        grid, cov = grid_and_cov(model, n_steps=64)
        net = ShallowNet(w_in=[1.0], b_in=[-0.2], w_out=[[0.8]], b_out=[0.5],
                         activation="tanh")
        n = 100_000
        plain = simulate(model, grid, cov, rng=np.random.default_rng(3), n_paths=n)
        shifted = simulate(model, grid, cov, drift=net,
                           rng=np.random.default_rng(4), n_paths=n)
        f_plain = plain.states[:, -1, 0]
        f_shift = shifted.states[:, -1, 0] * np.exp(shifted.log_inverse_likelihood)
        se = np.hypot(f_plain.std(ddof=1), f_shift.std(ddof=1)) / np.sqrt(n)
        assert abs(f_plain.mean() - f_shift.mean()) <= 3 * se


class TestVolatilityModels:
    def test_heston_variance_stays_usable(self):
        model = heston_model(n=2)
        grid, cov = grid_and_cov(model)
        batch = simulate(model, grid, cov, rng=np.random.default_rng(5),
                         n_paths=2000)
        assert np.all(np.isfinite(batch.states))

    def test_heston_full_truncation_feeds_nonnegative_variance(self):
        # with a violated Feller slack the variance dips negative but the
        # truncated update keeps everything finite
        sigma = np.zeros((2, 2))
        sigma[0, 0] = 0.5
        sigma[1, 1] = 0.6
        spec = ModelSpec(tag=HESTON, sigma=sigma, s0=[1.0], rate=0.05,
                         mean_level=[0.36], reversion=[0.5], v0=[0.04])
        grid, cov = grid_and_cov(spec, n_steps=128)
        batch = simulate(spec, grid, cov, rng=np.random.default_rng(6),
                         n_paths=2000)
        assert np.all(np.isfinite(batch.states))
        assert np.min(batch.states[:, :, 1]) < 0.0  # excursions do happen

    def test_three_halves_runs(self):
        sigma = np.zeros((2, 2))
        sigma[0, 0] = 0.5
        sigma[1, 1] = 0.8
        spec = ModelSpec(tag=THREE_HALVES, sigma=sigma, s0=[1.0], rate=0.05,
                         mean_level=[0.09], reversion=[2.0], v0=[0.09])
        grid, cov = grid_and_cov(spec)
        batch = simulate(spec, grid, cov, rng=np.random.default_rng(7),
                         n_paths=2000)
        assert np.all(np.isfinite(batch.states))

    def test_stein_stein_ou_mean(self):
        theta, m, v0 = 1.5, 0.2, 0.35
        sigma = np.zeros((2, 2))
        sigma[0, 0] = 0.4
        sigma[1, 1] = 0.2
        spec = ModelSpec(tag=STEIN_STEIN, sigma=sigma, s0=[1.0], rate=0.05,
                         mean_level=[m], reversion=[theta], v0=[v0])
        grid, cov = grid_and_cov(spec)
        batch = simulate(spec, grid, cov, rng=np.random.default_rng(8),
                         n_paths=100_000)
        vu = batch.states[:, -1, 1]
        target = np.exp(-theta) * v0 + (1 - np.exp(-theta)) * m
        se = vu.std(ddof=1) / np.sqrt(vu.size)
        # Euler bias on the OU mean is O(dt); allow for it explicitly
        bias = abs(v0 - m) * theta**2 / (2 * 252)
        assert abs(vu.mean() - target) <= 3 * se + bias


def sampled_scenario(tag, barriers=False):
    """A small config-sampled scenario: correlated sigma, 3 assets, 16
    steps."""
    payoff = {"moneyness": 1.0}
    if barriers:
        payoff["barrier_moneyness"] = [0.8, 1.25]
    return build_scenario(resolve_config({
        "model": {"tag": tag, "n": 3, "seed": 2}, "payoff": payoff,
        "grid": {"horizon": 1.0, "dt": 1.0 / 16}}))


def euler_one_path(spec, dm, h):
    """The Euler recursion one path at a time, on (n_steps, d) increments."""
    n = spec.n
    x = np.empty((dm.shape[0] + 1, spec.n_state))
    x[0, :n] = spec.s0
    if spec.has_volatility:
        x[0, n:] = spec.v0
    theta, m = spec.reversion, spec.mean_level
    for k, step in enumerate(dm):
        s, v = x[k, :n], x[k, n:]
        dm1, dm2 = step[:n], step[n:]
        if spec.tag == BLACK_SCHOLES:
            x[k + 1] = s + s * (spec.rate * h) + s * step
        elif spec.tag == HESTON:
            vp = np.maximum(v, 0.0)
            x[k + 1, :n] = s + s * (spec.rate * h) + s * np.sqrt(vp) * dm1
            x[k + 1, n:] = v + theta * (m - vp) * h + np.sqrt(vp) * dm2
        elif spec.tag == THREE_HALVES:
            vp = np.maximum(v, 0.0)
            x[k + 1, :n] = s + s * (spec.rate * h) + s * np.sqrt(vp) * dm1
            x[k + 1, n:] = v + theta * vp * (m - vp) * h + vp**1.5 * dm2
        else:
            x[k + 1, :n] = s + s * (spec.rate * h) + s * v * dm1
            x[k + 1, n:] = v + theta * (m - v) * h + dm2
    return x


class TestPathsInnermostLayout:
    """The batch is stored paths-innermost; these pin its numbers to the
    path-at-a-time reading and to C-contiguous inputs."""

    @pytest.mark.parametrize("with_drift", [False, True])
    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_states_equal_one_path_recursion(self, tag, with_drift,
                                             fixed_normals):
        sc = sampled_scenario(tag)
        grid, cov = sc.grid, sc.cov
        z = 0.5 * np.random.default_rng(1).standard_normal(
            (7, grid.n_steps, cov.d))
        drift = (init_net(3, cov.d, rng=np.random.default_rng(4))
                 if with_drift else None)
        batch = simulate(sc.model, grid, cov, fixed_normals(z), 7, drift=drift)

        expected = (z * np.sqrt(grid.dt)) @ cov.sigma.T
        if with_drift:
            cm = cameron_martin_map(forward(drift, grid.left_times), cov)
            expected += cm.cumulative[1:] - cm.cumulative[:-1]
        np.testing.assert_array_max_ulp(batch.increments, expected, maxulp=4)
        assert batch.states.shape == (7, grid.n_steps + 1, sc.model.n_state)
        for states, dm in zip(batch.states, batch.increments):
            np.testing.assert_array_equal(
                states, euler_one_path(sc.model, dm, grid.dt))

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_reductions_do_not_depend_on_layout(self, tag):
        sc = sampled_scenario(tag, barriers=True)
        grid, cov = sc.grid, sc.cov
        drift = init_net(3, cov.d, rng=np.random.default_rng(5))
        batch = simulate(sc.model, grid, cov, np.random.default_rng(6), 300,
                         drift=drift)
        assert not batch.states.flags.c_contiguous
        assert not batch.increments.flags.c_contiguous
        states = np.ascontiguousarray(batch.states)
        increments = np.ascontiguousarray(batch.increments)

        view, contiguous = (evaluate_batch(sc.payoff, x, grid)
                            for x in (batch.states, states))
        assert 0 < contiguous.knocked_out.sum() < 300
        np.testing.assert_allclose(view.values, contiguous.values, rtol=1e-12)
        np.testing.assert_array_equal(view.above_strike,
                                      contiguous.above_strike)
        np.testing.assert_array_equal(view.knocked_out, contiguous.knocked_out)

        cm = cameron_martin_map(forward(drift, grid.left_times), cov)
        np.testing.assert_allclose(
            log_likelihood_inverse(cm, batch.increments, cov),
            log_likelihood_inverse(cm, increments, cov), rtol=1e-12)
