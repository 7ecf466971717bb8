"""Multi-horizon multi-objective sampling MPC with backup-mission planning."""

from .controller import ControllerParams, ControllerState, StepDiagnostics, control_step
from .cost import Mission, MissionSet, ObstacleSet
from .dynamics import DoubleIntegrator, SimpleCar, step
from .errors import ConfigError, InfeasibleConstraintError
from .multi_horizon import MultiHorizonInput, dims
from .weights import WeightLawParams, desired_weights, update_weights

__all__ = [
    "ConfigError",
    "ControllerParams",
    "ControllerState",
    "DoubleIntegrator",
    "InfeasibleConstraintError",
    "Mission",
    "MissionSet",
    "MultiHorizonInput",
    "ObstacleSet",
    "SimpleCar",
    "StepDiagnostics",
    "WeightLawParams",
    "control_step",
    "desired_weights",
    "dims",
    "step",
    "update_weights",
]

__version__ = "0.1.0"
