"""Tests for model validation and Euler path simulation."""

import math
import tracemalloc

import numpy as np
import pytest

from driftmc.config import build_scenario, resolve_config
from driftmc.covariation import (TILE_STEPS, CovariationSpec, TimeGrid,
                                 cameron_martin_map, log_likelihood_inverse,
                                 sample_increments)
from driftmc import models
from driftmc.errors import (DimensionError, ModelValidationError,
                            SimulationError)
from driftmc.models import (BLACK_SCHOLES, CHUNK_SIZE, HESTON, MODEL_TAGS,
                            STEIN_STEIN, THREE_HALVES, ModelSpec, _euler_loop,
                            simulate)
from driftmc.network import ShallowNet, forward, init_net
from driftmc.payoffs import PayoffSpec, evaluate_batch
from driftmc.training import simulate_training_batch


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


def simulate_keeping_increments(model, grid, cov, rng, n_paths, drift=None):
    """``simulate`` into buffers the test owns; returns the batch and the
    driver increments it drew, as an (n_paths, n_steps, d) view."""
    out = (np.empty((grid.n_steps, model.d, n_paths)),
           np.empty((grid.n_steps + 1, model.n_state, n_paths)))
    batch = simulate(model, grid, cov, rng, n_paths, drift=drift, out=out)
    return batch, out[0].transpose(2, 0, 1)


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

    @pytest.mark.parametrize("params, expected", [
        (dict(tag="garch"), "tag: unknown model tag 'garch'"),
        (dict(sigma=[[0.2, 0.0]]), "sigma: must be a square matrix"),
        (dict(sigma=[[np.nan]]), "sigma: non-finite entries"),
        (dict(s0=[np.inf]), "s0: non-finite entries"),
        (dict(tag=HESTON, mean_level=[0.04, 0.04]),
         "mean_level: length 2, expected 1"),
        (dict(tag=STEIN_STEIN, reversion=[np.nan]),
         "reversion: non-finite entries"),
        (dict(tag=HESTON, v0=[0.0]), "v0[0]: must be positive"),
        (dict(tag=THREE_HALVES, v0=[-0.1]), "v0[0]: must be positive"),
    ], ids=["tag", "sigma-not-square", "sigma-nan", "s0-inf",
            "mean_level-length", "reversion-nan", "heston-v0-zero",
            "three_halves-v0-negative"])
    def test_refusal_names_the_invariant(self, params, expected):
        # one asset; the volatility models get parameters that pass every
        # other check
        base = dict(tag=BLACK_SCHOLES, sigma=[[0.2]], s0=[1.0])
        if params.get("tag") in (HESTON, THREE_HALVES, STEIN_STEIN):
            base = dict(sigma=np.diag([0.5, 0.2]), s0=[1.0],
                        mean_level=[0.04], reversion=[2.0], v0=[0.04])
        with pytest.raises(ModelValidationError) as err:
            ModelSpec(**dict(base, **params))
        assert expected in [str(v) for v in err.value.violations]

    def test_nested_vector_rejected(self):
        with pytest.raises(DimensionError, match="s0 must be a 1-d array"):
            ModelSpec(tag=BLACK_SCHOLES, sigma=[[0.2]], s0=[[1.0]])

    def test_volatility_params_on_black_scholes(self):
        # nothing simulates them, so a Black-Scholes spec refuses them
        spec = dict(tag=BLACK_SCHOLES, sigma=0.2 * np.eye(2), s0=[1.0, 1.0],
                    v0=[5.0, 5.0], reversion=[-3.0])
        assert [v.code for v in violations(**spec)] == ["reversion", "v0"]


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

    @pytest.mark.parametrize("bad", [0, 1], ids=["increments", "states"])
    def test_buffer_of_another_shape_rejected(self, bad):
        # a buffer one path too narrow is refused before anything is drawn
        model = bs_model(n=2)
        grid, cov = grid_and_cov(model, n_steps=4)
        out = [np.empty((4, 2, 3)), np.empty((5, 2, 3))]
        out[bad] = out[bad][:, :, :2]
        rng = np.random.default_rng(1)
        with pytest.raises(DimensionError, match="must have shape"):
            simulate(model, grid, cov, rng, n_paths=3, out=tuple(out))
        assert rng.bit_generator.state == np.random.default_rng(
            1).bit_generator.state

    def test_explosion_aborts_with_path_index(self, fixed_normals):
        model = bs_model()
        grid, cov = grid_and_cov(model, n_steps=4)
        z = np.zeros((2, 4, 1))
        z[1, 0, 0] = 1e200  # force one path over the edge
        z[1, 1, 0] = 1e200
        with pytest.raises(SimulationError) as err:
            simulate(model, grid, cov, rng=fixed_normals(z.transpose(1, 2, 0)),
                     n_paths=2)
        assert err.value.path_indices == (1,)

    def test_euler_lock_is_released_when_the_loop_raises(self,
                                                        monkeypatch):
        # a failed call leaves the lock free, so the next call steps
        model = bs_model()
        grid, cov = grid_and_cov(model, n_steps=8)

        def fail(*args):
            raise MemoryError("no room for the scratch rows")

        monkeypatch.setattr(models, "_euler_loop", fail)
        with pytest.raises(MemoryError):
            simulate(model, grid, cov, np.random.default_rng(0), 4)
        assert not models._EULER_LOCK.locked()
        monkeypatch.undo()
        batch = simulate(model, grid, cov, np.random.default_rng(0), 4)
        assert np.all(np.isfinite(batch.states))


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
        _, dm = simulate_keeping_increments(
            model, grid, cov, np.random.default_rng(2), 200_000, drift=net)
        step = dm[:, 3, 0]
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
        batch, dm = simulate_keeping_increments(
            sc.model, grid, cov, fixed_normals(z.transpose(1, 2, 0)), 7,
            drift=drift)

        expected = (z * np.sqrt(grid.dt)) @ cov.sigma.T
        if with_drift:
            cm = cameron_martin_map(forward(drift, grid.left_times), cov)
            expected += cm.cumulative[1:] - cm.cumulative[:-1]
        np.testing.assert_array_max_ulp(dm, expected, maxulp=4)
        assert batch.states.shape == (7, grid.n_steps + 1, sc.model.n_state)
        for states, path_dm in zip(batch.states, dm):
            np.testing.assert_array_equal(
                states, euler_one_path(sc.model, path_dm, grid.dt))

    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_reductions_do_not_depend_on_layout(self, tag):
        sc = sampled_scenario(tag, barriers=True)
        grid, cov = sc.grid, sc.cov
        drift = init_net(3, cov.d, rng=np.random.default_rng(5))
        batch, dm = simulate_keeping_increments(
            sc.model, grid, cov, np.random.default_rng(6), 300, drift=drift)
        assert not batch.states.flags.c_contiguous
        assert not dm.flags.c_contiguous
        states = np.ascontiguousarray(batch.states)
        increments = np.ascontiguousarray(dm)

        view, contiguous = (evaluate_batch(sc.payoff, x, grid)
                            for x in (batch.states, states))
        assert 0 < contiguous.knocked_out.sum() < 300
        np.testing.assert_allclose(view.values, contiguous.values, rtol=1e-12)
        np.testing.assert_array_equal(view.above_strike,
                                      contiguous.above_strike)
        np.testing.assert_array_equal(view.knocked_out, contiguous.knocked_out)

        cm = cameron_martin_map(forward(drift, grid.left_times), cov)
        np.testing.assert_allclose(
            log_likelihood_inverse(cm, dm, cov),
            log_likelihood_inverse(cm, increments, cov), rtol=1e-12)


class TestBlowUpReachesLastRow:
    """``simulate`` finds a blow-up from its last state row alone: every
    Euler step adds x_k to x_{k+1}, so a coordinate that leaves the finite
    numbers never comes back."""

    @pytest.mark.parametrize("kick", [1e200, -1e200, 1e300, -1e300,
                                      math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("tag", MODEL_TAGS)
    def test_non_finite_anywhere_is_non_finite_last(self, tag, kick):
        sc = sampled_scenario(tag)
        model, grid, cov = sc.model, sc.grid, sc.cov
        n_paths, path = 5, 2
        normals = np.random.default_rng(3).standard_normal(
            (grid.n_steps, cov.d, n_paths))
        for step in (0, grid.n_steps // 2, grid.n_steps - 1):
            for coordinate in (0, cov.d - 1):  # an asset, a volatility
                dm = np.sqrt(grid.dt) * np.einsum("ij,kjp->kip", cov.sigma,
                                                  normals)
                dm[step, coordinate, path] = kick
                states = np.empty((grid.n_steps + 1, model.n_state, n_paths))
                states[0, :model.n] = model.s0[:, None]
                if model.has_volatility:
                    states[0, model.n:] = model.v0[:, None]
                with np.errstate(over="ignore", invalid="ignore"):
                    _euler_loop(model, states, dm, grid.dt)
                anywhere = ~np.isfinite(states).all(axis=(0, 1))
                last = ~np.isfinite(states[-1]).all(axis=0)
                np.testing.assert_array_equal(anywhere, last)
                assert not np.delete(anywhere, path).any()
                assert last[path] or math.isfinite(kick)


class TestChunkMemory:
    """A chunk holds its increments, its states and one tile of normals,
    never a normal array of all its steps."""

    def peak_bytes(self, draw):
        draw()  # first-call allocations are not the chunk's
        tracemalloc.start()
        try:
            draw()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_chunk_peak_is_increments_states_and_one_tile(self):
        model = heston_model(n=10)  # a 20-dim driver
        grid, cov = grid_and_cov(model, n_steps=50)
        drift = init_net(3, model.d, rng=np.random.default_rng(0))
        increments = grid.n_steps * model.d * CHUNK_SIZE * 8
        states = (grid.n_steps + 1) * model.n_state * CHUNK_SIZE * 8
        one_tile = TILE_STEPS * model.d * CHUNK_SIZE * 8
        slack = 64 * 1024  # Python objects
        assert self.peak_bytes(lambda: sample_increments(
            cov, np.random.default_rng(1), CHUNK_SIZE)) <= (
                increments + one_tile + slack)
        # simulate's Euler scratch rows and its last row's finiteness mask
        # come after the draw and fit in the room of its tile
        assert self.peak_bytes(lambda: simulate(
            model, grid, cov, np.random.default_rng(1), CHUNK_SIZE,
            drift=drift)) <= increments + states + one_tile + slack

    def test_training_batch_holds_one_chunk_of_states(self):
        # the objective needs every path's increments, but no more than
        # one chunk of states is ever held
        model = heston_model(n=10)
        grid, cov = grid_and_cov(model, n_steps=50)
        payoff = PayoffSpec(weights=np.full(model.n, 1 / model.n),
                            strike=1.0)
        size = 4 * CHUNK_SIZE
        increments = grid.n_steps * model.d * size * 8
        states = (grid.n_steps + 1) * model.n_state * CHUNK_SIZE * 8
        one_tile = TILE_STEPS * model.d * CHUNK_SIZE * 8
        slack = 64 * 1024  # Python objects and per-chunk payoffs
        assert self.peak_bytes(lambda: simulate_training_batch(
            model, payoff, grid, cov, np.random.default_rng(1), size)) <= (
                increments + states + one_tile + slack)
