"""Exception types shared across the package, and the checks of scalar and
array fields that every constructor applies."""

import math
import numbers

import numpy as np


class ConfigError(ValueError):
    """A parameter, mode index, or configuration file entry is invalid.

    Carries an optional ``path`` ("controller.samples", "missions[2].target")
    so CLI users can locate the offending entry.
    """

    def __init__(self, message: str, path: str | None = None):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


class InfeasibleConstraintError(ValueError):
    """The feasible set of a constrained projection is empty."""


class NonFiniteCostError(ValueError):
    """No sample of a control step has a finite cost.

    Carries the control ``step`` index when the controller raised it.
    """

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        super().__init__(f"control step {step}: {message}" if step is not None else message)


def check_int(name: str, value, minimum: int) -> None:
    """``value`` is an integer (not a bool, float or string) >= ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value}")


def check_real(name: str, value, above: float | None = None) -> None:
    """``value`` is a finite real number (not a bool or string), and
    greater than ``above`` if that is given."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool) or not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if above is not None and value <= above:
        raise ConfigError(f"{name} must be > {above:g}, got {value}")


def real_array(name: str, value) -> np.ndarray:
    """A read-only float copy of ``value``, whose entries must be finite
    real numbers (not bools or strings)."""
    try:
        arr = np.array(value)
    except ValueError:  # a ragged nested list
        raise ConfigError(f"{name} must be a rectangular array of numbers") from None
    if arr.dtype.kind not in "iuf":
        raise ConfigError(f"{name} must hold real numbers, got {value!r}")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name} must be finite, got {arr.tolist()}")
    arr.flags.writeable = False
    return arr
