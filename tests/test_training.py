"""Tests for the variance objective, its gradient, and the training loop."""

import sys
from dataclasses import replace

import numpy as np
import pytest

from driftmc import streams
from driftmc.config import build_scenario, resolve_config
from driftmc.covariation import CovariationSpec, TimeGrid, cameron_martin_map
from driftmc.engine import variance_ratio
from driftmc.errors import ConfigError, SimulationError, WeightOverflowError
from driftmc.models import BLACK_SCHOLES, CHUNK_SIZE, ModelSpec, simulate
from driftmc.network import ShallowNet, forward, init_net
from driftmc.payoffs import PayoffSpec, evaluate_batch
from driftmc.pipeline import train_drift
from driftmc.training import (TrainConfig, objective_on_batch,
                              simulate_training_batch, train, training_grid)


def bs_setup(strike_ratio=1.1, n_steps=32, vol=0.25):
    model = ModelSpec(tag=BLACK_SCHOLES, sigma=[[vol]], s0=[1.0], rate=0.05)
    payoff = PayoffSpec(weights=[1.0], strike=strike_ratio)
    grid = TimeGrid(1.0, n_steps)
    cov = CovariationSpec(model.sigma, grid)
    return model, payoff, grid, cov


class TestObjective:
    def test_zero_drift_gives_plain_second_moment(self):
        model, payoff, grid, cov = bs_setup(strike_ratio=0.9)
        rng = np.random.default_rng(0)
        batch = simulate_training_batch(model, payoff, grid, cov, rng, 512)
        net = init_net(2, 1, rng=np.random.default_rng(1))  # output layer zero
        v_hat, grad, h_norm_sq = objective_on_batch(net, batch, grid, cov)
        np.testing.assert_allclose(v_hat, batch.payoff_sq.mean(), rtol=1e-12)
        assert h_norm_sq == 0.0

    def test_gradient_matches_central_differences(self):
        model, payoff, grid, cov = bs_setup(strike_ratio=0.95)
        rng = np.random.default_rng(2)
        batch = simulate_training_batch(model, payoff, grid, cov, rng, 64)
        step = 1e-5
        for trial in range(20):
            net = init_net(2, 1, rng=rng)
            theta = net.to_flat() + rng.normal(0, 0.4, net.n_params)
            net = net.with_params(theta)
            _, grad, h_norm_sq = objective_on_batch(net, batch, grid, cov)
            assert h_norm_sq == cameron_martin_map(
                forward(net, grid.left_times), cov).h_norm_sq
            fd = np.empty_like(grad)
            for i in range(theta.size):
                plus, minus = theta.copy(), theta.copy()
                plus[i] += step
                minus[i] -= step
                vp = objective_on_batch(net.with_params(plus), batch, grid,
                                        cov)[0]
                vm = objective_on_batch(net.with_params(minus), batch, grid,
                                        cov)[0]
                fd[i] = (vp - vm) / (2 * step)
            assert np.linalg.norm(fd - grad) / np.linalg.norm(fd) <= 1e-5

    def test_gradient_at_zero_drift_has_no_norm_term(self):
        # at f = 0 the quadratic penalty has zero slope, so the gradient is
        # exactly the payoff-weighted stochastic-integral term
        model, payoff, grid, cov = bs_setup(strike_ratio=0.9)
        rng = np.random.default_rng(3)
        batch = simulate_training_batch(model, payoff, grid, cov, rng, 128)
        net = init_net(2, 1, rng=np.random.default_rng(4))
        grad = objective_on_batch(net, batch, grid, cov)[1]
        from driftmc.network import backward_grid
        upstream = -np.einsum("p,pkd->kd", batch.payoff_sq,
                              batch.increments) / batch.payoff_sq.size
        expected = backward_grid(net, grid.left_times, upstream)
        np.testing.assert_allclose(grad, expected, rtol=1e-12, atol=1e-15)

    def test_all_zero_payoffs_flagged_as_uninformative(self):
        model, payoff, grid, cov = bs_setup(strike_ratio=50.0)
        rng = np.random.default_rng(5)
        batch = simulate_training_batch(model, payoff, grid, cov, rng, 64)
        net = init_net(2, 1, rng=np.random.default_rng(6))
        v_hat, grad, _ = objective_on_batch(net, batch, grid, cov)
        assert v_hat == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_weight_overflow_guard(self):
        model, payoff, grid, cov = bs_setup()
        rng = np.random.default_rng(7)
        batch = simulate_training_batch(model, payoff, grid, cov, rng, 32)
        big = ShallowNet(w_in=np.zeros(1), b_in=np.zeros(1),
                         w_out=np.zeros((1, 1)), b_out=np.array([200.0]))
        with pytest.raises(WeightOverflowError):
            objective_on_batch(big, batch, grid, cov)


class TestTrainingBatch:
    SIZE = 2 * CHUNK_SIZE + 37  # two full chunks and a partial one

    def test_chunks_draw_the_batch_of_one_shot(self):
        sc = build_scenario(resolve_config({
            "model": {"tag": "heston", "n": 3},
            "payoff": {"moneyness": 1.1, "barrier_moneyness": [0.7, 1.6]},
            "grid": {"dt": 1 / 16}}))
        batch = simulate_training_batch(sc.model, sc.payoff, sc.grid, sc.cov,
                                        np.random.default_rng(2), self.SIZE)
        increments = np.empty((sc.grid.n_steps, sc.model.d, self.SIZE))
        states = np.empty((sc.grid.n_steps + 1, sc.model.n_state, self.SIZE))
        one_shot = simulate(sc.model, sc.grid, sc.cov,
                            np.random.default_rng(2), self.SIZE,
                            out=(increments, states))
        pay = evaluate_batch(sc.payoff, one_shot.states, sc.grid)
        assert 0 < np.count_nonzero(pay.values) < self.SIZE
        np.testing.assert_array_equal(batch.payoff_sq, pay.values**2)
        np.testing.assert_array_equal(batch.increments,
                                      increments.transpose(2, 0, 1))

    def test_blow_up_reports_batch_wide_path_id(self, blow_up_normals):
        model, payoff, grid, cov = bs_setup(n_steps=4)
        path_id = CHUNK_SIZE + 7
        with pytest.raises(SimulationError) as err:
            simulate_training_batch(model, payoff, grid, cov,
                                    blow_up_normals(path_id), self.SIZE)
        assert err.value.path_indices == (path_id,)


class TestTrainConfig:
    def test_whole_float_counts_are_ints(self):
        cfg = TrainConfig(batch_size=32.0, epochs=2.0, seed=5.0)
        assert (cfg.batch_size, cfg.epochs, cfg.seed) == (32, 2, 5)
        assert all(type(v) is int for v in (cfg.batch_size, cfg.epochs,
                                            cfg.seed))

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("steps_per_epoch", "100"), ("seed", True),
        ("learning_rate", "0.01"),
    ])
    def test_bad_field_is_config_error_naming_it(self, field, value):
        # the checks of the run config's fields, so valid by construction
        with pytest.raises(ConfigError, match=f"training.{field}"):
            TrainConfig(**{field: value})


class TestTrain:
    def test_zero_epochs_returns_net_unchanged(self):
        model, payoff, grid, cov = bs_setup()
        net = init_net(2, 1, rng=np.random.default_rng(8))
        cfg = TrainConfig(epochs=0)
        out, trace = train(net, model, payoff, grid, cov, cfg)
        np.testing.assert_array_equal(out.to_flat(), net.to_flat())
        assert trace.n_steps == 0

    def test_deterministic_replay(self):
        model, payoff, grid, cov = bs_setup()
        cfg = TrainConfig(epochs=1, steps_per_epoch=12, batch_size=32, seed=5)
        net = init_net(2, 1, rng=np.random.default_rng(9))
        out1, trace1 = train(net, model, payoff, grid, cov, cfg)
        out2, trace2 = train(net, model, payoff, grid, cov, cfg)
        np.testing.assert_array_equal(out1.to_flat(), out2.to_flat())
        assert trace1.v_hat == trace2.v_hat

    def test_all_zero_first_batch_does_not_pin_the_net(self):
        # the step-0 batch has no positive payoff, so its objective is 0;
        # later batches do, and the returned net must carry their updates
        model, payoff, grid, cov = bs_setup(strike_ratio=1.3, n_steps=16,
                                            vol=0.2)
        # about one step-0 batch in three is all zero: take the first seed
        # whose step-0 batch is
        seed = next((s for s in range(20) if not np.any(
            simulate_training_batch(model, payoff, grid, cov,
                                    streams.substream(s, streams.TRAIN, 0),
                                    64).payoff_sq)), None)
        assert seed is not None
        cfg = TrainConfig(epochs=1, steps_per_epoch=20, batch_size=64,
                          seed=seed)
        net = init_net(2, 1, rng=np.random.default_rng(10))
        trained, trace = train(net, model, payoff, grid, cov, cfg)
        assert trace.v_hat[0] == 0.0 and max(trace.v_hat[1:]) > 0.0
        assert not np.any(net.w_out) and np.any(trained.w_out)
        assert trace.best_step == trace.n_steps == 20
        # the flags mark exactly the steps with a zero objective
        assert trace.informative == [v > 0.0 for v in trace.v_hat]
        assert trace.uninformative_steps == trace.v_hat.count(0.0) >= 1

    def test_non_finite_objective_halts_with_the_last_good_net(
            self, nan_objective_from):
        # the objective is NaN at step 2: the run returns the net after
        # step 1's update and the trace of steps 0 and 1, as a two-step run
        # does, and says why it stopped
        model, payoff, grid, cov = bs_setup(strike_ratio=0.9)
        net = init_net(2, 1, rng=np.random.default_rng(12))
        expected, two_steps = train(net, model, payoff, grid, cov, TrainConfig(
            epochs=1, steps_per_epoch=2, batch_size=32, seed=4))
        nan_objective_from(2)
        halted, trace = train(net, model, payoff, grid, cov, TrainConfig(
            epochs=1, steps_per_epoch=5, batch_size=32, seed=4))
        np.testing.assert_array_equal(halted.to_flat(), expected.to_flat())
        assert np.any(halted.to_flat() != net.to_flat())
        assert trace.v_hat == two_steps.v_hat and trace.n_steps == 2
        assert trace.halted_reason == ("non-finite objective or gradient "
                                       "at step 2")

    def test_weight_overflow_halts_with_the_last_good_net(self):
        # a learning rate of 1e3 makes step 0's update so large that step
        # 1's batch overflows a log-weight: the run halts as a one-step run
        # does, and the trace names the overflow and the step
        model, payoff, grid, cov = bs_setup(strike_ratio=0.9)
        net = init_net(2, 1, rng=np.random.default_rng(12))
        config = TrainConfig(epochs=1, steps_per_epoch=5, batch_size=32,
                             seed=4, learning_rate=1e3)
        expected, one_step = train(net, model, payoff, grid, cov,
                                   replace(config, steps_per_epoch=1))
        halted, trace = train(net, model, payoff, grid, cov, config)
        np.testing.assert_array_equal(halted.to_flat(), expected.to_flat())
        assert trace.v_hat == one_step.v_hat and trace.n_steps == 1
        assert one_step.halted_reason is None
        assert "log weight reached" in trace.halted_reason
        assert trace.halted_reason.endswith(" at step 1")

    def test_thread_count_does_not_change_the_run(self):
        # batches drawn ahead on up to three threads, with more steps than
        # threads and a short switch interval to mix the threads' order,
        # give the parameters and the trace of one thread, bit for bit
        model, payoff, grid, cov = bs_setup(strike_ratio=1.0)
        net = init_net(2, 1, rng=np.random.default_rng(13))
        cfg = TrainConfig(epochs=1, steps_per_epoch=7, batch_size=300, seed=8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [train(net, model, payoff, grid, cov, cfg, threads=threads)
                    for threads in (1, 2, 3)]
        finally:
            sys.setswitchinterval(interval)
        (one, one_trace), *others = runs
        assert one_trace.n_steps == 7 and one_trace.halted_reason is None
        for trained, trace in others:
            np.testing.assert_array_equal(trained.to_flat(), one.to_flat())
            assert trace == one_trace

    def test_halt_does_not_depend_on_thread_count(self):
        # at learning rate 1e3 step 1 overflows a log-weight; batches drawn
        # ahead of the halt are dropped, whatever the thread count
        model, payoff, grid, cov = bs_setup(strike_ratio=0.9)
        net = init_net(2, 1, rng=np.random.default_rng(12))
        cfg = TrainConfig(epochs=1, steps_per_epoch=5, batch_size=32, seed=4,
                          learning_rate=1e3)
        (one, one_trace), *others = [
            train(net, model, payoff, grid, cov, cfg, threads=threads)
            for threads in (1, 2, 3)]
        assert one_trace.halted_reason.endswith(" at step 1")
        for trained, trace in others:
            np.testing.assert_array_equal(trained.to_flat(), one.to_flat())
            assert trace.halted_reason == one_trace.halted_reason
            assert trace.n_steps == one_trace.n_steps == 1

    @pytest.mark.slow
    def test_deep_otm_training_halves_objective(self):
        # plain positive-payoff fraction ~1%: on one common batch the
        # returned net must beat half the objective of the zero net
        model, payoff, grid, cov = bs_setup(strike_ratio=1.35, n_steps=64,
                                            vol=0.2)
        cfg = TrainConfig(epochs=6, steps_per_epoch=100, batch_size=256,
                          seed=2)
        net = init_net(1, 1, rng=np.random.default_rng(11))
        trained, _ = train(net, model, payoff, grid, cov, cfg)
        rng = np.random.default_rng(15)
        batch = simulate_training_batch(model, payoff, grid, cov, rng, 20_000)
        v_zero = objective_on_batch(net, batch, grid, cov)[0]
        v_trained = objective_on_batch(trained, batch, grid, cov)[0]
        assert v_trained <= 0.5 * v_zero
        # and the drift it found is a genuine upward push
        f = forward(trained, grid.left_times)
        assert cameron_martin_map(f, cov).h_norm_sq > 0.1


class TestTrainingGrid:
    @pytest.mark.parametrize("horizon, n_steps, expected", [
        (1.0, 252, 50), (1.0, 16, 16), (1.0, 50, 50), (1.1, 400, 55),
        (2.3, 1000, 115), (0.31, 100, 16), (0.001, 10, 1)])
    def test_steps(self, horizon, n_steps, expected):
        grid = training_grid(TimeGrid(horizon, n_steps))
        assert grid.horizon == horizon and grid.n_steps == expected

    @pytest.mark.parametrize("steps, trained_steps", [(252, 50), (16, 16)])
    def test_train_drift_trains_on_training_grid(self, tmp_path, steps,
                                                 trained_steps):
        # bit for bit the net of train on the coarse grid with its own
        # covariation; a grid no finer than it trains on itself
        cfg = resolve_config({
            "model": {"n": 2, "seed": 1}, "payoff": {"moneyness": 1.05},
            "grid": {"dt": 1.0 / steps},
            "training": {"epochs": 1, "steps_per_epoch": 6,
                         "batch_size": 32, "seed": 3}})
        sc = build_scenario(cfg)
        trained, trace = train_drift(cfg, sc, tmp_path)
        grid = TimeGrid(1.0, trained_steps)
        net = init_net(cfg["training"]["hidden_width"], sc.model.d,
                       streams.substream(3, streams.TRAIN, 999_999))
        expected, expected_trace = train(
            net, sc.model, sc.payoff, grid,
            CovariationSpec(sc.model.sigma, grid),
            TrainConfig(**cfg["training"]))
        np.testing.assert_array_equal(trained.to_flat(), expected.to_flat())
        assert trace.v_hat == expected_trace.v_hat


class TestCoercivityAndConvexity:
    @pytest.mark.slow
    def test_scaling_trained_drift_up_increases_objective(self):
        model, payoff, grid, cov = bs_setup(strike_ratio=1.2, n_steps=64)
        cfg = TrainConfig(epochs=4, steps_per_epoch=100, batch_size=256,
                          seed=3)
        net = init_net(1, 1, rng=np.random.default_rng(12))
        trained, _ = train(net, model, payoff, grid, cov, cfg)

        def scale_output(base, factor):
            return ShallowNet(w_in=base.w_in, b_in=base.b_in,
                              w_out=factor * base.w_out,
                              b_out=factor * base.b_out,
                              activation=base.activation)

        def h_sq(candidate):
            f = forward(candidate, grid.left_times)
            return cameron_martin_map(f, cov).h_norm_sq

        # bring the trained drift to a fixed moderate size, then blow the
        # output layer up tenfold: the norm penalty must dominate
        trained = scale_output(trained, np.sqrt(0.1 / h_sq(trained)))
        scaled = scale_output(trained, 10.0)
        assert h_sq(scaled) >= 8.0
        rng = np.random.default_rng(13)
        batch = simulate_training_batch(model, payoff, grid, cov, rng, 20_000)
        v_trained = objective_on_batch(trained, batch, grid, cov)[0]
        v_scaled = objective_on_batch(scaled, batch, grid, cov)[0]
        assert v_scaled > v_trained

    def test_midpoint_convexity_in_drift_grid(self):
        # V is convex in the drift (not in the parameters): check the
        # midpoint inequality on grid-sampled drifts with common paths
        model, payoff, grid, cov = bs_setup(strike_ratio=1.05, n_steps=32)
        rng = np.random.default_rng(14)
        batch = simulate_training_batch(model, payoff, grid, cov, rng, 50_000)

        def v_of_grid(f):
            drift = cameron_martin_map(f, cov)
            log_w = -np.einsum("kd,pkd->p", drift.values, batch.increments) \
                + 0.5 * drift.h_norm_sq
            return float(np.mean(batch.payoff_sq * np.exp(log_w)))

        for _ in range(5):
            f1 = rng.normal(0, 1.0, (grid.n_steps, 1))
            f2 = rng.normal(0, 1.0, (grid.n_steps, 1))
            v1, v2, vm = v_of_grid(f1), v_of_grid(f2), v_of_grid(0.5 * (f1 + f2))
            se = 3.0 * np.std(batch.payoff_sq) / np.sqrt(batch.payoff_sq.size)
            assert vm <= 0.5 * (v1 + v2) + se


class TestVarianceRatio:
    def _report(self, var):
        from driftmc.engine import EstimatorReport
        return EstimatorReport(label="x", measure="P", n=10,
                               mean_cents=1.0, se_pct=1.0, kappa=0.5,
                               theta=None, per_sample_variance=var, seed=0,
                               wall_seconds=0.0)

    def test_identical_estimators(self):
        assert variance_ratio(self._report(2.0), self._report(2.0)) == 1.0

    def test_hundredfold_reduction(self):
        assert variance_ratio(self._report(2.0), self._report(0.02)) \
            == pytest.approx(100.0)

    def test_zero_is_variance_flagged(self):
        # a varying plain estimate against a constant IS one is degenerate
        assert np.isnan(variance_ratio(self._report(2.0), self._report(0.0)))
