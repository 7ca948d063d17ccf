"""Exception hierarchy shared across the package, and the one reader and
the one writer of JSON: :func:`read_object` reads every file the program
reads, :func:`write_json` writes every file it writes, and five rules check
every field read, refusing a bad one with a ConfigError naming it:
:func:`number`, :func:`integer`, :func:`numbers` (a list, entry by entry),
:func:`string` and :func:`record` (an object's field set)."""

import json
import sys
from pathlib import Path


class DriftmcError(Exception):
    """Base class for all errors raised by driftmc."""


class DimensionError(DriftmcError):
    """Array shapes do not match the grid or the driver dimension."""


class NumericalError(DriftmcError):
    """A computation left the range where its numbers mean anything."""


class NonFiniteError(NumericalError):
    """NaN or infinity found where a finite value is required."""


class SimulationError(NumericalError):
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


class WeightOverflowError(NumericalError):
    """A likelihood-ratio exponent exceeded the overflow guard."""


class ConfigError(DriftmcError):
    """An input file could not be read, or a run configuration or
    checkpoint holds a value the program refuses."""


class ModelValidationError(ConfigError):
    """A model spec violates a structural invariant: a refused config."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(str(v) for v in self.violations)
        super().__init__(f"model spec invalid: {lines}")


def read_object(path, what):
    """The JSON object in the ``what`` file at ``path`` (config or
    checkpoint); every refusal is a ConfigError naming both."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            value = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{what} {path}: {exc.strerror}") from exc
    except (RecursionError, ValueError) as exc:  # not UTF-8, JSON, too deep
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{what} {path} is not a JSON object")
    return value


def number(value, name, positive=False):
    """A number that is a finite float, positive if asked; never a bool."""
    if not (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max
            and (value > 0 or not positive)):
        kind = "a positive finite" if positive else "a finite"
        raise ConfigError(f"{name} must be {kind} number, got {value!r}")
    return value


def integer(value, name, minimum):
    """A whole number in the float range of at least ``minimum``, as an
    int; never a bool."""
    try:
        whole = (int(value) == value and not isinstance(value, bool)
                 and abs(value) <= sys.float_info.max)
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole or value < minimum:
        raise ConfigError(f"{name} must be an integer of at least {minimum}, "
                          f"got {value!r}")
    return int(value)


def numbers(values, name, length=None, check=number):
    """A non-empty list, of ``length`` entries if given, checked entrywise;
    a bad entry is named by its index, such as ``name[2]``."""
    if not (isinstance(values, list) and values
            and len(values) == (length or len(values))):
        got = (f"{len(values)} entries" if isinstance(values, list)
               else repr(values))
        raise ConfigError(f"{name} must be a list of {length or 'one or more'} "
                          f"numbers, got {got}")
    return [check(value, f"{name}[{j}]") for j, value in enumerate(values)]


def string(value, name, choices):
    """One of the strings ``choices``."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{name} must be {' or '.join(map(repr, choices))}, "
                          f"got {value!r}")
    return value


def record(value, name, fields):
    """An object, such as :func:`read_object` returns, with exactly the
    fields ``fields``."""
    for field in value:
        if field not in fields:
            raise ConfigError(f"{name} has unknown field {field!r}")
    for field in fields:
        if field not in value:
            raise ConfigError(f"{name} has no {field!r} field")
    return value


def write_json(path, payload):
    """Write ``payload`` as JSON with deterministic formatting, to stdout if
    ``path`` is None."""
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")
