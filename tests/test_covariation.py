"""Tests for the weighted inner product, drift map and likelihood ratio."""

import numpy as np
import pytest

from driftmc.covariation import (SLICE_PATHS, CovariationSpec, TimeGrid,
                                 cameron_martin_map, lambda2_inner,
                                 log_likelihood_inverse, sample_increments)
from driftmc.errors import DimensionError, NonFiniteError


def uniform_spec(sigma, horizon=1.0, n_steps=64):
    return CovariationSpec(np.asarray(sigma, dtype=float),
                           TimeGrid(horizon, n_steps))


class TestTimeGrid:
    def test_uniform_masses_sum_to_horizon(self):
        grid = TimeGrid(2.0, 10)
        assert grid.n_steps == 10
        np.testing.assert_allclose(grid.times, np.linspace(0.0, 2.0, 11))
        assert grid.dt == 0.2
        np.testing.assert_allclose(grid.n_steps * grid.dt, 2.0)

    def test_rejects_zero_total_mass(self):
        # the total step length is the horizon
        with pytest.raises(ValueError):
            TimeGrid(0.0, 2)

    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            TimeGrid(-1.0, 2)

    def test_rejects_no_steps(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0)

    def test_read_only(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            grid.times[0] = 0.5
        with pytest.raises(AttributeError):
            grid.dt = 0.5


class TestCovariationSpec:
    def test_pi_is_sigma_sigma_t(self):
        spec = uniform_spec([[2.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(spec.pi, [[4.0, 2.0], [2.0, 2.0]])


class TestLambda2Inner:
    def test_zero_function(self):
        spec = uniform_spec(np.eye(3))
        rng = np.random.default_rng(0)
        g = rng.standard_normal((spec.grid.n_steps, 3))
        assert lambda2_inner(np.zeros_like(g), g, spec) == 0.0

    def test_degenerate_pi_annihilates_equal_components(self):
        # pi = [[1,-1],[-1,1]] has (c, c) in its null space: seminorm zero.
        spec = uniform_spec([[1.0, 0.0], [-1.0, 0.0]])
        np.testing.assert_allclose(spec.pi, [[1.0, -1.0], [-1.0, 1.0]])
        for c in (1.0, -3.5, 123.0):
            g = np.full((spec.grid.n_steps, 2), c)
            assert lambda2_inner(g, g, spec) == 0.0

    def test_constant_identity_integrand(self):
        spec = uniform_spec(np.eye(2), horizon=1.0)
        f = np.ones((spec.grid.n_steps, 2))
        np.testing.assert_allclose(lambda2_inner(f, f, spec), 2.0)

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            spec = uniform_spec(rng.standard_normal((d, d)) + np.eye(d),
                                n_steps=int(rng.integers(2, 40)))
            k = spec.grid.n_steps
            f, g, h = rng.standard_normal((3, k, d))
            a, b = rng.standard_normal(2)
            sym = lambda2_inner(f, g, spec)
            np.testing.assert_allclose(sym, lambda2_inner(g, f, spec),
                                       rtol=1e-12, atol=1e-14)
            lin = lambda2_inner(a * f + b * g, h, spec)
            parts = a * lambda2_inner(f, h, spec) + b * lambda2_inner(g, h, spec)
            np.testing.assert_allclose(lin, parts, rtol=1e-10, atol=1e-12)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            spec = uniform_spec(rng.standard_normal((d, d)) + 1e-3 * np.eye(d),
                                n_steps=int(rng.integers(2, 30)))
            f = rng.standard_normal((spec.grid.n_steps, d))
            assert lambda2_inner(f, f, spec) >= -1e-12

    def test_dimension_mismatch(self):
        spec = uniform_spec(np.eye(2))
        good = np.zeros((spec.grid.n_steps, 2))
        with pytest.raises(DimensionError):
            lambda2_inner(good, np.zeros((spec.grid.n_steps, 3)), spec)

    def test_nan_rejected(self):
        spec = uniform_spec(np.eye(2))
        f = np.zeros((spec.grid.n_steps, 2))
        g = f.copy()
        g[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            lambda2_inner(f, g, spec)


class TestCameronMartinMap:
    def test_zero_integrand(self):
        spec = uniform_spec(np.eye(2))
        out = cameron_martin_map(np.zeros((spec.grid.n_steps, 2)), spec)
        assert out.h_norm_sq == 0.0
        np.testing.assert_array_equal(out.cumulative, 0.0)

    def test_constant_integrand_linear_drift(self):
        c, u = 1.7, 2.0
        spec = uniform_spec([[1.0]], horizon=u, n_steps=100)
        out = cameron_martin_map(np.full((100, 1), c), spec)
        np.testing.assert_allclose(out.cumulative[:, 0], c * spec.grid.times,
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(out.h_norm_sq, c * c * u, rtol=1e-12)

    def test_shift_is_the_drift_increment_per_step(self):
        # simulation and training shift the driver by this field, so it
        # must be the differenced drift bit for bit, and read-only
        spec = uniform_spec([[0.3, 0.0], [0.1, 0.2]], n_steps=9)
        f = np.random.default_rng(5).standard_normal((9, 2))
        out = cameron_martin_map(f, spec)
        np.testing.assert_array_equal(
            out.shift, out.cumulative[1:] - out.cumulative[:-1])
        np.testing.assert_allclose(out.shift, (f @ spec.pi) * spec.grid.dt,
                                   rtol=1e-12)
        assert not out.shift.flags.writeable

    def test_isometry_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(1, 5))
            spec = uniform_spec(rng.standard_normal((d, d)) + np.eye(d),
                                n_steps=int(rng.integers(2, 60)))
            f = rng.standard_normal((spec.grid.n_steps, d))
            out = cameron_martin_map(f, spec)
            np.testing.assert_allclose(out.h_norm_sq,
                                       lambda2_inner(f, f, spec), rtol=1e-12)

    def test_tanh_integrand_converges_to_log_cosh(self):
        # integral of tanh(a t + e) is (log cosh(a t + e) - log cosh(e)) / a;
        # the left-endpoint rule converges at first order in the step size.
        alpha, eta = 1.3, -0.4
        exact = lambda t: (np.log(np.cosh(alpha * t + eta))
                           - np.log(np.cosh(eta))) / alpha
        errors = []
        for n_steps in (63, 126, 252, 504):
            spec = uniform_spec([[1.0]], n_steps=n_steps)
            f = np.tanh(alpha * spec.grid.left_times + eta)[:, None]
            out = cameron_martin_map(f, spec)
            errors.append(np.max(np.abs(out.cumulative[:, 0]
                                        - exact(spec.grid.times))))
        errors = np.array(errors)
        orders = np.log2(errors[:-1] / errors[1:])
        assert np.all(orders > 0.9)


class TestSampleIncrements:
    def test_identity_diffusion_covariance(self):
        spec = uniform_spec(np.eye(2), horizon=1.0, n_steps=4)
        rng = np.random.default_rng(0)
        dm = sample_increments(spec, rng, 200_000)
        # moment oracle: sample covariance of one step vs pi * dt
        step = dm[:, 0, :]
        dt = 0.25
        cov = np.cov(step.T)
        se = 5 * dt / np.sqrt(step.shape[0])  # generous entrywise band
        assert np.max(np.abs(cov - np.eye(2) * dt)) < 5 * se

    def test_general_sigma_covariance_moment_oracle(self):
        sigma = np.array([[0.3, 0.0, 0.0], [0.1, 0.2, 0.0], [-0.1, 0.05, 0.25]])
        spec = uniform_spec(sigma, n_steps=2)
        rng = np.random.default_rng(1)
        dm = sample_increments(spec, rng, 100_000)
        dt = 0.5
        target = spec.pi * dt
        step = dm[:, 1, :]
        cov = np.cov(step.T)
        # entrywise standard error of a covariance estimate ~ sqrt(v_ii v_jj / n)
        var = np.diag(target)
        se = np.sqrt(np.outer(var, var) + target**2) / np.sqrt(step.shape[0])
        assert np.all(np.abs(cov - target) <= 5 * se)

    def test_same_seed_bit_identical(self):
        spec = uniform_spec(np.eye(3), n_steps=16)
        a = sample_increments(spec, np.random.default_rng(77), 100)
        b = sample_increments(spec, np.random.default_rng(77), 100)
        np.testing.assert_array_equal(a, b)

    def test_slices_read_the_stream_of_one_draw(self):
        # the normals are drawn a slice at a time, in the order of one
        # (n_paths, n_steps, d) draw, and the last slice is a short one
        sigma = np.tril(np.random.default_rng(3).uniform(0.1, 0.4, (5, 5)))
        spec = uniform_spec(sigma, n_steps=12)
        n_paths = 3 * SLICE_PATHS + 5
        dm = sample_increments(spec, np.random.default_rng(11), n_paths)
        z = np.random.default_rng(11).standard_normal((n_paths, 12, 5))
        np.testing.assert_array_max_ulp(
            dm, (z * np.sqrt(spec.grid.dt)) @ sigma.T, maxulp=4)

    def test_empty_batch(self):
        spec = uniform_spec(np.eye(2), n_steps=8)
        out = sample_increments(spec, np.random.default_rng(0), 0)
        assert out.shape == (0, 8, 2)


class TestLogLikelihoodInverse:
    def test_zero_drift_gives_zero(self):
        spec = uniform_spec(np.eye(2), n_steps=12)
        drift = cameron_martin_map(np.zeros((12, 2)), spec)
        dm = sample_increments(spec, np.random.default_rng(5), 7)
        out = log_likelihood_inverse(drift, dm, spec)
        np.testing.assert_array_equal(out, np.zeros(7))

    def test_single_step_closed_form(self):
        c, dt = 0.8, 1.0
        spec = uniform_spec([[1.0]], horizon=dt, n_steps=1)
        drift = cameron_martin_map(np.array([[c]]), spec)
        z = 0.37
        dm = np.array([[z * np.sqrt(dt)]])
        out = log_likelihood_inverse(drift, dm, spec)
        np.testing.assert_allclose(out, -c * z * np.sqrt(dt) + c * c * dt / 2,
                                   rtol=1e-14)

    def test_doleans_mean_one_under_original_measure(self):
        # E[exp(sum f dM - |h|^2/2)] = 1 for increments drawn without drift
        rng = np.random.default_rng(123)
        sigma = np.array([[0.25, 0.0], [0.05, 0.2]])
        spec = uniform_spec(sigma, n_steps=64)
        f = 0.8 * rng.standard_normal((64, 2))
        drift = cameron_martin_map(f, spec)
        assert drift.h_norm_sq < 4.0
        dm = sample_increments(spec, rng, 100_000)
        weights = np.exp(-log_likelihood_inverse(drift, dm, spec))
        se = weights.std(ddof=1) / np.sqrt(weights.size)
        assert abs(weights.mean() - 1.0) <= 3 * se

    def test_additive_over_partition(self):
        rng = np.random.default_rng(8)
        spec = uniform_spec(np.array([[0.4, 0.1], [0.0, 0.3]]), n_steps=30)
        f = rng.standard_normal((30, 2))
        drift = cameron_martin_map(f, spec)
        dm = sample_increments(spec, rng, 1)[0]
        total = log_likelihood_inverse(drift, dm, spec)
        # split the steps at 10 and 22; H-norm splits with the same partition
        pieces = 0.0
        for lo, hi in ((0, 10), (10, 22), (22, 30)):
            sub_grid = TimeGrid(spec.grid.times[hi] - spec.grid.times[lo],
                                hi - lo)
            sub_spec = CovariationSpec(spec.sigma, sub_grid)
            sub_drift = cameron_martin_map(f[lo:hi], sub_spec)
            pieces += log_likelihood_inverse(sub_drift, dm[lo:hi], sub_spec)
        np.testing.assert_allclose(total, pieces, rtol=1e-10)

    def test_grid_mismatch_rejected(self):
        spec = uniform_spec(np.eye(2), n_steps=12)
        drift = cameron_martin_map(np.zeros((12, 2)), spec)
        with pytest.raises(DimensionError):
            log_likelihood_inverse(drift, np.zeros((11, 2)), spec)
