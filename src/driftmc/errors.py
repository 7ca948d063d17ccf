"""Exception hierarchy shared across the package."""


class DriftmcError(Exception):
    """Base class for all errors raised by driftmc."""


class DimensionError(DriftmcError):
    """Array shapes do not match the grid or the driver dimension."""


class NonFiniteError(DriftmcError):
    """NaN or infinity found where a finite value is required."""


class ModelValidationError(DriftmcError):
    """A model spec violates a structural invariant."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"model spec invalid: {lines}")


class SimulationError(DriftmcError):
    """Paths blew up to a non-finite state during simulation.

    ``path_indices`` index the simulated batch; the estimators re-raise
    :meth:`shifted` to estimate-wide path ids, the place of the path in
    the whole sample of the estimate.
    """

    def __init__(self, path_indices):
        self.path_indices = tuple(int(i) for i in path_indices)
        super().__init__(f"{len(self.path_indices)} path(s) reached a "
                         f"non-finite state, first at index "
                         f"{self.path_indices[0]}")

    def shifted(self, offset):
        """The same error with every path index moved by ``offset``."""
        return SimulationError(offset + i for i in self.path_indices)


class WeightOverflowError(DriftmcError):
    """A likelihood-ratio exponent exceeded the overflow guard."""


class ConfigError(DriftmcError):
    """A run configuration could not be parsed or resolved, or asks for an
    option that has no implementation."""


class CheckpointError(DriftmcError):
    """A checkpoint file is malformed or fails its integrity check."""
