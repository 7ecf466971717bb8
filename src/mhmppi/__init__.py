"""Multi-horizon multi-objective sampling MPC with backup-mission planning."""

from .controller import ControllerParams, ControllerState, StepDiagnostics, control_step
from .cost import Mission, MissionSet, ObstacleSet, cost_vector, tail_cost_vector
from .dynamics import DoubleIntegrator, SimpleCar, rollout, step
from .errors import ConfigError, InfeasibleConstraintError
from .multi_horizon import MultiHorizonInput, MultiHorizonTrajectory, dims, expand
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
    "MultiHorizonTrajectory",
    "ObstacleSet",
    "SimpleCar",
    "StepDiagnostics",
    "WeightLawParams",
    "control_step",
    "cost_vector",
    "desired_weights",
    "dims",
    "expand",
    "rollout",
    "step",
    "tail_cost_vector",
    "update_weights",
]

__version__ = "0.1.0"
