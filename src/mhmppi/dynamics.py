"""Discrete-time vehicle models with switchable input authority.

Two models are provided:

* :class:`DoubleIntegrator` -- planar point mass, state
  ``[px, py, vx, vy]``, input ``[ax, ay]``, 0.1 s sample time baked into
  the transition matrices.
* :class:`SimpleCar` -- kinematic car, state ``[px, py, theta]``, input
  ``[v, phi]`` (speed, steering angle).

A model carries its modes as one read-only ``(n_modes, n_u)`` array of
non-negative input scales.  Mode ``j`` multiplies the input channel-wise by
row ``j`` before it enters the nominal update, which is how degraded
actuation (e.g. a partial engine failure) is represented.  By default the
model has one mode, the identity.

All step functions are pure and operate on float64 arrays laid out
component first: a batch of states is ``(n_x, ...)`` and a batch of inputs
``(n_u, ...)``, with any batch axes after the component axis, so each
component is one contiguous slab.  A single state or input is 1-D and
reads the same in either layout.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, check_real, real_array


class DynamicsModel:
    """Common interface: ``n_x``, ``n_u``, ``modes``, and a pure update rule."""

    n_x: int
    n_u: int

    def __init__(self, modes=None):
        modes = real_array("modes", np.ones((1, self.n_u)) if modes is None else modes)
        if modes.ndim != 2 or modes.shape[1] != self.n_u:
            raise ConfigError(f"modes must be an (n_modes, {self.n_u}) array of input scales")
        if np.any(modes < 0.0):
            raise ConfigError("input scale entries must be >= 0")
        self.modes = modes

    def update(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Nominal transition ``x_next = f(x, u)`` on (n_x, ...)/(n_u, ...) arrays."""
        raise NotImplementedError

    def mode_scale(self, mode: int) -> np.ndarray:
        if not 0 <= mode < len(self.modes):
            raise ConfigError(f"unknown mode {mode}; model has {len(self.modes)} modes")
        return self.modes[mode]


class DoubleIntegrator(DynamicsModel):
    """Planar double integrator with 0.1 s sample time.

    ``x_next = A x + B u`` with A adding 0.1*velocity to position and B
    adding 0.1*acceleration to velocity.
    """

    n_x = 4
    n_u = 2
    time_step = 0.1

    A = np.array(
        [
            [1.0, 0.0, time_step, 0.0],
            [0.0, 1.0, 0.0, time_step],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]
    )
    B = np.array(
        [
            [0.0, 0.0],
            [0.0, 0.0],
            [time_step, 0.0],
            [0.0, time_step],
        ]
    )
    A.flags.writeable = False
    B.flags.writeable = False

    def update(self, x, u):
        # A x + B u, one slab per component: position += dt * velocity,
        # velocity += dt * acceleration
        dt = self.time_step
        out = np.empty(x.shape)
        np.multiply(dt, x[2:], out=out[:2])
        out[:2] += x[:2]
        np.multiply(dt, u, out=out[2:])
        out[2:] += x[2:]
        return out


class SimpleCar(DynamicsModel):
    """Kinematic simple car (nonholonomic).

    ``px += v*cos(theta)*dt``, ``py += v*sin(theta)*dt``,
    ``theta += (v/L)*tan(phi)*dt`` with wheelbase L and time step dt.
    """

    n_x = 3
    n_u = 2

    def __init__(self, wheelbase: float = 0.2, time_step: float = 0.1, modes=None):
        check_real("wheelbase", wheelbase, above=0.0)
        check_real("time_step", time_step, above=0.0)
        self.wheelbase = float(wheelbase)
        self.time_step = float(time_step)
        super().__init__(modes)

    def update(self, x, u):
        theta = x[2]
        v = u[0]
        phi = u[1]
        dt = self.time_step
        return np.stack(
            [
                x[0] + v * np.cos(theta) * dt,
                x[1] + v * np.sin(theta) * dt,
                theta + (v / self.wheelbase) * np.tan(phi) * dt,
            ]
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
