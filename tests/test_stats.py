"""Tests for the moments of a sample."""

import numpy as np

from driftmc.stats import RunningMoments


class TestRunningMoments:
    def test_matches_numpy_on_one_array(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        acc = RunningMoments.from_array(x)
        assert acc.count == 1000
        np.testing.assert_allclose(acc.mean, x.mean(), rtol=1e-12)
        np.testing.assert_allclose(acc.variance(), x.var(ddof=1), rtol=1e-10)

    def test_degenerate_counts(self):
        single = RunningMoments.from_array(np.array([5.0]))
        assert single.variance() == 0.0
