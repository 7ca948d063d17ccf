"""Tests for basket weights, Asian averaging and knock-out monitoring."""

import numpy as np
import pytest

from driftmc.covariation import TimeGrid
from driftmc.payoffs import PayoffSpec, basket_weights, evaluate_batch


def constant_path(value, n_steps=4, n_state=1):
    return np.full((n_steps + 1, n_state), value, dtype=float)


def evaluate(spec, path, grid):
    """Payoff of one trajectory of shape (n_steps+1, n_state)."""
    return float(evaluate_batch(spec, path[None], grid).values[0])


def knocked_out(spec, path, grid):
    return bool(evaluate_batch(spec, path[None], grid).knocked_out[0])


def call_spec(strike, weights=(1.0,)):
    return PayoffSpec(weights=list(weights), strike=strike)


def knockout_spec(strike, lower, upper, weights=(1.0,)):
    return PayoffSpec(weights=list(weights), strike=strike, lower=lower,
                      upper=upper)


class TestSpecInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            PayoffSpec(weights=[0.5, 0.4], strike=1.0)

    def test_strike_positive(self):
        with pytest.raises(ValueError):
            call_spec(0.0)

    def test_barriers_ordered(self):
        with pytest.raises(ValueError):
            knockout_spec(1.0, lower=2.0, upper=1.0)

    def test_barriers_come_in_pairs(self):
        for lower, upper in [(0.5, None), (None, 2.0)]:
            with pytest.raises(ValueError, match="both barriers"):
                PayoffSpec(weights=[1.0], strike=1.0, lower=lower, upper=upper)

    def test_barriers_decide_knockout(self):
        assert not call_spec(1.0).has_barriers
        assert knockout_spec(1.0, lower=0.5, upper=2.0).has_barriers


class TestBasketWeights:
    def test_single_asset(self):
        np.testing.assert_array_equal(basket_weights([[0.3]], 1), [1.0])

    def test_symmetric_inputs_give_uniform_weights(self):
        w = basket_weights(0.2 * np.eye(3), 3)
        np.testing.assert_allclose(w, 1.0 / 3.0)

    def test_hand_computed_two_assets(self):
        # row norms 0.5 and 0.2: inverse volatilities 2 and 5
        w = basket_weights([[0.3, 0.4], [0.0, 0.2]], 2)
        np.testing.assert_allclose(w, [2.0 / 7.0, 5.0 / 7.0])

    def test_zero_row_rejected(self):
        with pytest.raises(ValueError):
            basket_weights([[0.2, 0.0], [0.0, 0.0]], 2)

    def test_uses_leading_asset_rows_only(self):
        sigma = np.array([[0.2, 0.0, 0.0, 0.0],
                          [0.0, 0.4, 0.0, 0.0],
                          [9.0, 9.0, 9.0, 9.0],
                          [9.0, 9.0, 9.0, 9.0]])
        w = basket_weights(sigma, 2)
        np.testing.assert_allclose(w, [2.0 / 3.0, 1.0 / 3.0])


class TestEvaluate:
    def test_at_the_money_constant_path(self):
        grid = TimeGrid(1.0, 4)
        assert evaluate(call_spec(2.0), constant_path(2.0), grid) == 0.0

    def test_in_the_money_constant_path(self):
        grid = TimeGrid(1.0, 4)
        assert evaluate(call_spec(2.0), constant_path(3.0), grid) == 1.0

    def test_two_node_path_documents_quadrature_rule(self):
        k = 5.0
        grid = TimeGrid(1.0, 1)
        path = np.array([[k], [k + 2.0]])
        assert evaluate(call_spec(k), path, grid) == 1.0  # trapezoid

    def test_monotone_in_strike(self):
        rng = np.random.default_rng(0)
        grid = TimeGrid(1.0, 16)
        path = np.exp(rng.normal(0, 0.2, (17, 1)).cumsum(axis=0))
        strikes = np.linspace(0.1, 3.0, 15)
        values = [evaluate(call_spec(k), path, grid) for k in strikes]
        assert np.all(np.diff(values) <= 0.0)

    def test_positive_homogeneity(self):
        # scaling the path scales the average, so payoff(c*path, strike=c*K)
        # equals c * payoff(path, strike=K)
        rng = np.random.default_rng(1)
        grid = TimeGrid(1.0, 8)
        path = np.exp(rng.normal(0, 0.3, (9, 2)).cumsum(axis=0))
        c, k = 2.7, 0.9
        base = evaluate(call_spec(k, weights=(0.4, 0.6)), path, grid)
        scaled = evaluate(call_spec(c * k, weights=(0.4, 0.6)), c * path, grid)
        np.testing.assert_allclose(scaled, c * base, rtol=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(2)
        grid = TimeGrid(1.0, 8)
        for _ in range(50):
            path = np.exp(rng.normal(0, 0.5, (9, 1)).cumsum(axis=0))
            assert evaluate(call_spec(float(rng.uniform(0.5, 2))), path, grid) >= 0.0

    def test_volatility_block_ignored(self):
        grid = TimeGrid(1.0, 2)
        path = np.array([[3.0, 99.0], [3.0, -77.0], [3.0, 0.0]])
        assert evaluate(call_spec(2.0), path, grid) == 1.0

    def test_batch_matches_single(self):
        # paths are priced row by row: a batch equals its paths one at a time
        rng = np.random.default_rng(3)
        grid = TimeGrid(1.0, 12)
        spec = call_spec(1.1, weights=(0.5, 0.5))
        states = np.exp(rng.normal(0, 0.2, (6, 13, 2)).cumsum(axis=1))
        batch = evaluate_batch(spec, states, grid)
        for p in range(6):
            assert batch.values[p] == pytest.approx(
                evaluate(spec, states[p], grid), rel=1e-13, abs=1e-15)
        assert batch.knocked_out is None


class TestKnockout:
    def test_inside_path_survives(self):
        grid = TimeGrid(1.0, 4)
        spec = knockout_spec(2.0, lower=1.0, upper=4.0)
        assert not knocked_out(spec, constant_path(3.0), grid)

    def test_touching_upper_barrier_exactly_kills(self):
        grid = TimeGrid(1.0, 4)
        spec = knockout_spec(2.0, lower=1.0, upper=4.0)
        path = constant_path(3.0)
        path[2, 0] = 4.0  # strict inequality: touching is out
        assert knocked_out(spec, path, grid)

    def test_grazing_final_node_kills(self):
        grid = TimeGrid(1.0, 4)
        spec = knockout_spec(2.0, lower=1.0, upper=4.0)
        path = constant_path(3.0)
        path[-1, 0] = 1.0
        assert knocked_out(spec, path, grid)
        assert evaluate(spec, path, grid) == 0.0

    def test_knockout_dominated_by_vanilla(self):
        rng = np.random.default_rng(4)
        grid = TimeGrid(1.0, 16)
        vanilla = call_spec(1.0)
        ko = knockout_spec(1.0, lower=0.5, upper=1.8)
        for _ in range(50):
            path = np.exp(rng.normal(0, 0.2, (17, 1)).cumsum(axis=0))
            assert evaluate(ko, path, grid) <= evaluate(vanilla, path, grid)

    def test_batch_counts_knockouts(self):
        grid = TimeGrid(1.0, 2)
        spec = knockout_spec(2.0, lower=1.0, upper=4.0)
        states = np.stack([constant_path(3.0, n_steps=2),
                           constant_path(5.0, n_steps=2)])
        batch = evaluate_batch(spec, states, grid)
        np.testing.assert_array_equal(batch.knocked_out, [False, True])
        np.testing.assert_array_equal(batch.values, [1.0, 0.0])
        np.testing.assert_array_equal(batch.above_strike, [True, True])
