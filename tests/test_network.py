"""Tests for the shallow network: forward, backprop, Adam, checkpoints."""

import json

import numpy as np
import pytest

from driftmc.errors import ConfigError, DimensionError, NonFiniteError
from driftmc.network import (ACTIVATIONS, ADAM_EPS, AdamState, ShallowNet,
                             _CHECKPOINT_SCHEMA, _checkpoint_digest, adam_step,
                             backward_grid, forward, init_net, load_checkpoint,
                             save_checkpoint)


def random_net(rng, hidden=None, output=None, activation=None):
    hidden = hidden or int(rng.integers(1, 6))
    output = output or int(rng.integers(1, 5))
    activation = activation or rng.choice(list(ACTIVATIONS))
    return ShallowNet(
        w_in=rng.normal(0, 1.5, hidden),
        b_in=rng.normal(0, 1.0, hidden),
        w_out=rng.normal(0, 1.0, (output, hidden)),
        b_out=rng.normal(0, 1.0, output),
        activation=str(activation),
    )


def forward_reference(net, t):
    """Straight-line scalar reimplementation used as a duplicate oracle."""
    psi, _ = ACTIVATIONS[net.activation]
    out = []
    for i in range(net.output_width):
        acc = net.b_out[i]
        for j in range(net.hidden_width):
            acc += net.w_out[i, j] * psi(net.w_in[j] * t + net.b_in[j])
        out.append(acc)
    return np.array(out)


class TestForward:
    def test_constant_net(self):
        net = ShallowNet(w_in=np.zeros(3), b_in=np.zeros(3),
                         w_out=np.zeros((2, 3)), b_out=np.array([4.0, -1.0]))
        for t in (0.0, 0.3, 1.0):
            np.testing.assert_array_equal(forward(net, [t])[0], [4.0, -1.0])

    def test_single_tanh_unit_at_zero(self):
        net = ShallowNet(w_in=[1.0], b_in=[0.0], w_out=[[1.0]], b_out=[0.0],
                         activation="tanh")
        assert forward(net, [0.0])[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_straight_line_reimplementation(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            net = random_net(rng)
            times = rng.uniform(0, 1, 3)
            for t, row in zip(times, forward(net, times)):
                np.testing.assert_allclose(row, forward_reference(net, t),
                                           rtol=1e-14, atol=1e-14)

    def test_affine_in_output_layer(self):
        rng = np.random.default_rng(2)
        base = random_net(rng, hidden=4, output=3)
        other = random_net(rng, hidden=4, output=3,
                           activation=base.activation)
        other = ShallowNet(w_in=base.w_in, b_in=base.b_in, w_out=other.w_out,
                           b_out=other.b_out, activation=base.activation)
        a, b = 0.7, -2.1
        mixed = ShallowNet(w_in=base.w_in, b_in=base.b_in,
                           w_out=a * base.w_out + b * other.w_out,
                           b_out=a * base.b_out + b * other.b_out,
                           activation=base.activation)
        t = 0.37
        np.testing.assert_allclose(
            forward(mixed, [t]),
            a * forward(base, [t]) + b * forward(other, [t]),
            rtol=1e-14, atol=1e-14)

    def test_rejects_non_finite_parameters(self):
        with pytest.raises(NonFiniteError):
            ShallowNet(w_in=[np.nan], b_in=[0.0], w_out=[[1.0]], b_out=[0.0])

    @pytest.mark.parametrize("shapes, message", [
        (dict(w_in=[[1.0]]), "hidden layer shapes inconsistent"),
        (dict(b_in=[0.0, 0.0]), "hidden layer shapes inconsistent"),
        (dict(w_out=[1.0]), r"output weights must have shape \(d, hidden\)"),
        (dict(w_out=[[1.0, 1.0]]),
         r"output weights must have shape \(d, hidden\)"),
        (dict(b_out=[0.0, 0.0]), "output bias length must match"),
    ], ids=["w_in-2d", "b_in-length", "w_out-1d", "w_out-width",
            "b_out-length"])
    def test_rejects_inconsistent_shapes(self, shapes, message):
        params = dict(w_in=[1.0], b_in=[0.0], w_out=[[1.0]], b_out=[0.0])
        with pytest.raises(DimensionError, match=message):
            ShallowNet(**dict(params, **shapes))

    def test_rejects_unknown_activation(self):
        with pytest.raises(ConfigError, match="activation must be 'scaled_tanh' "
                                              "or 'tanh'"):
            ShallowNet(w_in=[1.0], b_in=[0.0], w_out=[[1.0]], b_out=[0.0],
                       activation="logistic")

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        net = random_net(rng)
        a = forward(net, [0.123456])
        b = forward(net, [0.123456])
        np.testing.assert_array_equal(a, b)


class TestBackward:
    def test_zero_upstream(self):
        net = random_net(np.random.default_rng(4))
        g = backward_grid(net, [0.5], np.zeros((1, net.output_width)))
        np.testing.assert_array_equal(g, np.zeros(net.n_params))

    def test_output_bias_gradient_is_upstream(self):
        rng = np.random.default_rng(5)
        net = random_net(rng)
        upstream = rng.standard_normal(net.output_width)
        g = backward_grid(net, [0.3], upstream[None])
        np.testing.assert_array_equal(g[-net.output_width:], upstream)

    def test_against_central_differences(self):
        rng = np.random.default_rng(6)
        step = 1e-5
        for _ in range(100):
            net = random_net(rng)
            t = float(rng.uniform(0, 1))
            upstream = rng.standard_normal(net.output_width)
            grad = backward_grid(net, [t], upstream[None])
            theta = net.to_flat()
            fd = np.empty_like(grad)
            for i in range(theta.size):
                plus, minus = theta.copy(), theta.copy()
                plus[i] += step
                minus[i] -= step
                fd[i] = (upstream @ forward(net.with_params(plus), [t])[0]
                         - upstream @ forward(net.with_params(minus), [t])[0]
                         ) / (2 * step)
            denom = max(np.linalg.norm(fd), 1e-12)
            assert np.linalg.norm(fd - grad) / denom <= 1e-6

    def test_grid_form_sums_single_calls(self):
        rng = np.random.default_rng(7)
        net = random_net(rng)
        times = rng.uniform(0, 1, 9)
        ups = rng.standard_normal((9, net.output_width))
        total = backward_grid(net, times, ups)
        summed = sum(backward_grid(net, [t], u[None])
                     for t, u in zip(times, ups))
        np.testing.assert_allclose(total, summed, rtol=1e-12, atol=1e-12)


class TestFlattening:
    def test_round_trip(self):
        net = random_net(np.random.default_rng(8))
        rebuilt = net.with_params(net.to_flat())
        np.testing.assert_array_equal(rebuilt.w_in, net.w_in)
        np.testing.assert_array_equal(rebuilt.b_in, net.b_in)
        np.testing.assert_array_equal(rebuilt.w_out, net.w_out)
        np.testing.assert_array_equal(rebuilt.b_out, net.b_out)

    def test_param_count(self):
        net = random_net(np.random.default_rng(9), hidden=5, output=3)
        assert net.n_params == 5 * (3 + 2) + 3
        assert net.to_flat().size == net.n_params

    def test_init_starts_at_zero_map(self):
        net = init_net(6, 4, rng=np.random.default_rng(10))
        np.testing.assert_array_equal(forward(net, [0.77])[0], np.zeros(4))


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0, 3.0])
        state = AdamState.fresh(3, learning_rate=1e-3)
        new_params, new_state = adam_step(params, np.zeros(3), state)
        np.testing.assert_array_equal(new_params, params)
        assert new_state.step == 1

    def test_first_step_hand_computed(self):
        # g = 1: m_hat = 1, v_hat = 1, update = lr / (1 + eps)
        lr = 1e-3
        params = np.zeros(4)
        state = AdamState.fresh(4, learning_rate=lr)
        new_params, _ = adam_step(params, np.ones(4), state)
        np.testing.assert_allclose(new_params, -lr / (1.0 + ADAM_EPS),
                                   rtol=1e-15)

    def test_second_identical_step_not_larger(self):
        params = np.zeros(2)
        state = AdamState.fresh(2, learning_rate=1e-3)
        g = np.full(2, 0.37)
        p1, state = adam_step(params, g, state)
        p2, state = adam_step(p1, g, state)
        assert np.all(np.abs(p2 - p1) <= np.abs(p1 - params) + 1e-18)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        net = random_net(np.random.default_rng(15))
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        loaded = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.to_flat(), net.to_flat())
        assert loaded.activation == net.activation

    def test_corruption_detected(self, tmp_path):
        net = random_net(np.random.default_rng(16))
        path = tmp_path / "net.json"
        save_checkpoint(net, path)
        text = path.read_text().replace('"hidden"', '"hidden" ')
        first = net.to_flat()[0]
        text = text.replace(repr(float(first)), repr(float(first) + 1.0), 1)
        path.write_text(text)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_unknown_activation_is_config_error(self, tmp_path):
        # an intact checkpoint of an activation this version lacks
        net = random_net(np.random.default_rng(17))
        record = {"schema": _CHECKPOINT_SCHEMA, "hidden": net.hidden_width,
                  "output": net.output_width, "activation": "logistic",
                  "params": net.to_flat().tolist(),
                  "sha256": _checkpoint_digest(net.hidden_width,
                                               net.output_width, "logistic",
                                               net.to_flat())}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ConfigError, match="'activation' must be"):
            load_checkpoint(path)

    def test_params_of_another_length_rejected(self, tmp_path):
        # a signed checkpoint whose params do not fit its hidden and output
        # widths
        net = random_net(np.random.default_rng(18))
        flat = net.to_flat()[:-1]
        record = {"schema": _CHECKPOINT_SCHEMA, "hidden": net.hidden_width,
                  "output": net.output_width, "activation": net.activation,
                  "params": flat.tolist(),
                  "sha256": _checkpoint_digest(net.hidden_width,
                                               net.output_width,
                                               net.activation, flat)}
        path = tmp_path / "net.json"
        path.write_text(json.dumps(record))
        with pytest.raises(ConfigError, match=f"'params' must be a list of "
                                              f"{net.n_params} numbers"):
            load_checkpoint(path)

    def test_rejects_other_schema(self, tmp_path):
        path = tmp_path / "net.json"
        path.write_text('{"schema": "something-else"}')
        with pytest.raises(ConfigError):
            load_checkpoint(path)
