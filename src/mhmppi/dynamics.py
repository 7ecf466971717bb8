"""Discrete-time vehicle models with switchable input authority.

Two models are provided:

* :class:`DoubleIntegrator` -- planar point mass, state
  ``[px, py, vx, vy]``, input ``[ax, ay]``, 0.1 s sample time baked into
  the transition matrices.
* :class:`SimpleCar` -- kinematic car, state ``[px, py, theta]``, input
  ``[v, phi]`` (speed, steering angle).

A model carries a list of :class:`ModeParams`.  Mode ``j`` rescales the
input channel-wise before it enters the nominal update, which is how
degraded actuation (e.g. a partial engine failure) is represented.  Mode 0
is always the identity unless configured otherwise.

All step functions are pure and operate on float64 arrays with arbitrary
leading batch dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


@dataclass(frozen=True)
class ModeParams:
    """Per-mode input authority: ``u_effective = input_scale * u``."""

    mode_id: int
    input_scale: np.ndarray

    def __post_init__(self):
        scale = np.asarray(self.input_scale, dtype=float)
        if np.any(scale < 0.0):
            raise ConfigError("input_scale entries must be >= 0")
        scale.flags.writeable = False
        object.__setattr__(self, "input_scale", scale)


def _default_modes(n_u: int) -> tuple[ModeParams, ...]:
    return (ModeParams(0, np.ones(n_u)),)


class DynamicsModel:
    """Common interface: ``n_x``, ``n_u``, ``modes``, and a pure update rule."""

    n_x: int
    n_u: int

    def __init__(self, modes=None):
        if modes is None:
            modes = _default_modes(self.n_u)
        modes = tuple(modes)
        for j, mode in enumerate(modes):
            if mode.input_scale.shape != (self.n_u,):
                raise ConfigError(f"mode {j}: input_scale must have length {self.n_u}")
        self.modes = modes

    def update(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Nominal transition ``x_next = f(x, u)`` on (..., n_x)/(..., n_u) arrays."""
        raise NotImplementedError

    def mode_scale(self, mode: int) -> np.ndarray:
        if not 0 <= mode < len(self.modes):
            raise ConfigError(f"unknown mode {mode}; model has {len(self.modes)} modes")
        return self.modes[mode].input_scale


class DoubleIntegrator(DynamicsModel):
    """Planar double integrator with 0.1 s sample time.

    ``x_next = A x + B u`` with A adding 0.1*velocity to position and B
    adding 0.1*acceleration to velocity.
    """

    n_x = 4
    n_u = 2

    A = np.array(
        [
            [1.0, 0.0, 0.1, 0.0],
            [0.0, 1.0, 0.0, 0.1],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    B = np.array(
        [
            [0.0, 0.0],
            [0.0, 0.0],
            [0.1, 0.0],
            [0.0, 0.1],
        ]
    )
    A.flags.writeable = False
    B.flags.writeable = False

    def update(self, x, u):
        return x @ self.A.T + u @ self.B.T


class SimpleCar(DynamicsModel):
    """Kinematic simple car (nonholonomic).

    ``px += v*cos(theta)*dt``, ``py += v*sin(theta)*dt``,
    ``theta += (v/L)*tan(phi)*dt`` with wheelbase L and time step dt.
    """

    n_x = 3
    n_u = 2

    def __init__(self, wheelbase: float = 0.2, time_step: float = 0.1, modes=None):
        if wheelbase <= 0.0:
            raise ConfigError("wheelbase must be > 0")
        if time_step <= 0.0:
            raise ConfigError("time_step must be > 0")
        self.wheelbase = float(wheelbase)
        self.time_step = float(time_step)
        super().__init__(modes)

    def update(self, x, u):
        theta = x[..., 2]
        v = u[..., 0]
        phi = u[..., 1]
        dt = self.time_step
        return np.stack(
            [
                x[..., 0] + v * np.cos(theta) * dt,
                x[..., 1] + v * np.sin(theta) * dt,
                theta + (v / self.wheelbase) * np.tan(phi) * dt,
            ],
            axis=-1,
        )


def step(model: DynamicsModel, x: np.ndarray, u: np.ndarray, mode: int = 0) -> np.ndarray:
    """One transition under mode-scaled input.  Pure; x, u are not modified."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    if x.shape[-1] != model.n_x:
        raise ValueError(f"state has dim {x.shape[-1]}, expected {model.n_x}")
    if u.shape[-1] != model.n_u:
        raise ValueError(f"input has dim {u.shape[-1]}, expected {model.n_u}")
    return model.update(x, model.mode_scale(mode) * u)


def rollout(model: DynamicsModel, x0: np.ndarray, inputs, mode: int = 0) -> np.ndarray:
    """Simulate an input sequence; returns len(inputs)+1 states starting at x0."""
    inputs = np.asarray(inputs, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n_x,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({model.n_x},)")
    if inputs.size and inputs.shape[-1] != model.n_u:
        raise ValueError(f"inputs have dim {inputs.shape[-1]}, expected {model.n_u}")
    n = len(inputs)
    states = np.empty((n + 1, model.n_x))
    states[0] = x0
    scale = model.mode_scale(mode)
    for k in range(n):
        states[k + 1] = model.update(states[k], scale * inputs[k])
    return states
