"""Exception types shared across the package."""


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
