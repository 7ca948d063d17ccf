"""Shared fixtures."""

import numpy as np
import pytest


class FixedNormals:
    """Generator stand-in whose ``standard_normal(shape)`` returns a fixed
    array: zeros by default, which collapses a simulation onto its
    deterministic Euler skeleton."""

    def __init__(self, z=None):
        self.z = z

    def standard_normal(self, shape):
        if self.z is None:
            return np.zeros(shape)
        assert self.z.shape == tuple(shape)
        return np.array(self.z, dtype=np.float64)


@pytest.fixture
def fixed_normals():
    """The :class:`FixedNormals` factory."""
    return FixedNormals
