"""First and second moments of a scalar sample.

An estimate reduces its whole sample once, from the per-path values in
block order, so it is bit-identical no matter how many worker threads
simulated the blocks.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class RunningMoments:
    """Count, mean and sum of squared deviations of a non-empty scalar
    sample."""

    count: int
    mean: float
    m2: float

    @classmethod
    def from_array(cls, values):
        values = np.asarray(values, dtype=np.float64)
        mean = float(values.mean())
        m2 = float(np.sum((values - mean) ** 2))
        return cls(count=int(values.size), mean=mean, m2=m2)

    def variance(self):
        """Sample variance; 0.0 when fewer than two observations."""
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    def standard_error(self):
        return float(np.sqrt(self.variance() / self.count))
