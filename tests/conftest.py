"""Shared fixtures."""

import math

import numpy as np
import pytest

from driftmc import training


class FixedNormals:
    """Generator stand-in whose ``standard_normal(shape)`` returns a fixed
    array: zeros by default, which collapses a simulation onto its
    deterministic Euler skeleton.  A fixed array must be the normals of one
    draw, so a batch of at most ``SLICE_PATHS`` paths."""

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


class BlowUpNormals:
    """Generator stand-in drawing zero normals, except for the path at
    ``path`` of the whole sequence of draws, which is forced over the
    edge on its first two steps."""

    def __init__(self, path):
        self.path = path
        self.drawn = 0

    def standard_normal(self, shape):
        z = np.zeros(shape)
        if 0 <= self.path - self.drawn < shape[0]:
            z[self.path - self.drawn, :2] = 1e200
        self.drawn += shape[0]
        return z


@pytest.fixture
def blow_up_normals():
    """The :class:`BlowUpNormals` factory."""
    return BlowUpNormals


@pytest.fixture
def nan_objective_from(monkeypatch):
    """``nan_objective_from(step)`` makes the training objective NaN from
    training step ``step`` on; the earlier steps get the real objective."""
    real = training.objective_on_batch

    def patch(step):
        calls = []

        def objective(net, batch, grid, cov):
            calls.append(None)
            v_hat, grad, h_norm_sq = real(net, batch, grid, cov)
            return (math.nan if len(calls) > step else v_hat), grad, h_norm_sq

        monkeypatch.setattr(training, "objective_on_batch", objective)
    return patch
