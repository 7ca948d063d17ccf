"""Tests for streaming moment accumulation and merging."""

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

    def test_merge_equals_concatenation(self):
        rng = np.random.default_rng(2)
        parts = [rng.standard_normal(n) for n in (3, 100, 1, 57)]
        merged = RunningMoments()
        for part in parts:
            merged = merged.merge(RunningMoments.from_array(part))
        whole = RunningMoments.from_array(np.concatenate(parts))
        assert merged.count == whole.count
        np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-12)
        np.testing.assert_allclose(merged.variance(), whole.variance(),
                                   rtol=1e-10)

    def test_merge_with_empty_is_identity(self):
        x = RunningMoments.from_array(np.array([1.0, 2.0, 4.0]))
        for merged in (x.merge(RunningMoments()), RunningMoments().merge(x)):
            assert merged.count == x.count
            assert merged.mean == x.mean
            assert merged.m2 == x.m2

    def test_merge_order_determinism(self):
        rng = np.random.default_rng(3)
        parts = [RunningMoments.from_array(rng.standard_normal(50))
                 for _ in range(8)]
        first = RunningMoments()
        second = RunningMoments()
        for p in parts:
            first = first.merge(p)
            second = second.merge(p)
        assert (first.count, first.mean, first.m2) \
            == (second.count, second.mean, second.m2)

    def test_degenerate_counts(self):
        empty = RunningMoments()
        assert empty.variance() == 0.0
        assert empty.standard_error() == 0.0
        single = RunningMoments.from_array(np.array([5.0]))
        assert single.variance() == 0.0
