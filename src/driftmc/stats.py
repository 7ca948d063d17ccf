"""Streaming first/second moment accumulation (Welford form).

Path blocks are reduced independently and merged in a fixed order, so
estimates are bit-identical no matter how many worker threads ran the
blocks.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class RunningMoments:
    """Count, mean and sum of squared deviations of a scalar sample."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def from_array(cls, values):
        values = np.asarray(values, dtype=np.float64)
        n = int(values.size)
        if n == 0:
            return cls()
        mean = float(values.mean())
        m2 = float(np.sum((values - mean) ** 2))
        return cls(count=n, mean=mean, m2=m2)

    def merge(self, other):
        """Return the accumulator for the concatenated sample."""
        if other.count == 0:
            return RunningMoments(self.count, self.mean, self.m2)
        if self.count == 0:
            return RunningMoments(other.count, other.mean, other.m2)
        count = self.count + other.count
        delta = other.mean - self.mean
        mean = self.mean + delta * other.count / count
        m2 = self.m2 + other.m2 + delta**2 * self.count * other.count / count
        return RunningMoments(count, mean, m2)

    def variance(self):
        """Sample variance; 0.0 when fewer than two observations."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    def standard_error(self):
        if self.count == 0:
            return 0.0
        return float(np.sqrt(self.variance() / self.count))
