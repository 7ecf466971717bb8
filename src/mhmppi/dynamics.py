"""Discrete-time vehicle models with switchable input authority.

Two models are provided:

* :class:`DoubleIntegrator` -- planar point mass, state
  ``[px, py, vx, vy]``, input ``[ax, ay]``, 0.1 s sample time.
* :class:`SimpleCar` -- kinematic car, state ``[px, py, theta]``, input
  ``[v, phi]`` (speed, steering angle), 0.2 m wheelbase, 0.1 s sample
  time.

Wheelbase and time step are class constants, so a model is built from its
modes alone.

A model carries its modes as one read-only ``(n_modes, n_u)`` array of
non-negative input scales.  Mode ``j`` multiplies the input channel-wise by
row ``j`` before it enters the nominal update, which is how degraded
actuation (e.g. a partial engine failure) is represented.  By default the
model has one mode, the identity.

The scale is applied in one place, inside ``update``: its ``scale``
argument is broadcast against the inputs, so the plant (:func:`step`), the
primary rollout and the branch tails of :mod:`mhmppi.controller` all turn
a commanded input into motion by the same code.  :class:`DoubleIntegrator`
folds the scale into its time step and computes ``(dt*scale)*u``, one pass
over the inputs, however many inputs share a scale; :class:`SimpleCar`
multiplies its inputs by the scale before its trigonometry.  A unit scale
changes no bit of either update.

All step functions are pure and operate on arrays laid out component
first: a batch of states is ``(n_x, ...)`` and a batch of inputs
``(n_u, ...)``, with any batch axes after the component axis, so each
component is one contiguous slab.  A single state or input is 1-D and
reads the same in either layout.  ``update`` writes its result into
``out`` when given one, which may be ``x`` itself; its temporaries are
:mod:`mhmppi.buffers` scratch, so a batched update allocates nothing.

``update`` computes in the dtype of its arrays, which match: the plant
(:func:`step`) steps one float64 state, so the executed trajectory is
float64, and the controller's rollouts advance float32 slabs, whose
trigonometry on the car is many times faster.  The model's constants
(time step, wheelbase) are Python floats, which take the arrays' dtype,
and the controller passes its mode scales in the batch's dtype; an
``np.float64`` scale would promote a float32 update to float64.
"""

from __future__ import annotations

import numpy as np

from .buffers import buffer
from .errors import ConfigError, real_array


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

    def update(
        self, x: np.ndarray, u: np.ndarray, out: np.ndarray | None = None, scale=1.0
    ) -> np.ndarray:
        """Transition ``x_next = f(x, scale*u)`` on (n_x, ...)/(n_u, ...)
        arrays, written into and returned as ``out`` (a new array by
        default).  ``scale`` is the channel-wise input scale of a mode,
        broadcast against ``u`` (a mode row of n_u entries takes trailing
        unit axes, e.g. ``(n_u, 1)`` for (n_u, K) inputs) and never beyond
        its shape.  ``out`` may be ``x``, which then advances in place with
        bit-identical values; any other overlap with ``x`` or ``u`` is not
        allowed.  Raises ValueError when axis 0 of ``x`` is not n_x or that
        of ``u`` is not n_u."""
        raise NotImplementedError

    def _check_shapes(self, x: np.ndarray, u: np.ndarray) -> None:
        if x.shape[:1] != (self.n_x,) or u.shape[:1] != (self.n_u,):
            raise ValueError(
                f"update takes (n_x, ...) = ({self.n_x}, ...) states and (n_u, ...) = "
                f"({self.n_u}, ...) inputs, got {x.shape} and {u.shape}"
            )

    def mode_scale(self, mode: int) -> np.ndarray:
        if not 0 <= mode < len(self.modes):
            raise ConfigError(f"unknown mode {mode}; model has {len(self.modes)} modes")
        return self.modes[mode]


class DoubleIntegrator(DynamicsModel):
    """Planar double integrator with 0.1 s sample time: ``x_next`` adds
    0.1*velocity to the position and 0.1*acceleration to the velocity."""

    n_x = 4
    n_u = 2
    time_step = 0.1

    def update(self, x, u, out=None, scale=1.0):
        # one slab per component: position += dt * velocity, velocity +=
        # (dt * scale) * acceleration, the scale folded into the time step
        # so the inputs are read once; the positions are written first,
        # while the old velocity is still in x when out is x
        self._check_shapes(x, u)
        dt = self.time_step
        if out is None:
            out = np.empty(x.shape, x.dtype)
        step = buffer("dynamics.step", x[2:].shape, x.dtype)
        np.multiply(dt, x[2:], out=step)
        np.add(x[:2], step, out=out[:2])
        np.multiply(dt * scale, u, out=step)
        np.add(x[2:], step, out=out[2:])
        return out


class SimpleCar(DynamicsModel):
    """Kinematic simple car (nonholonomic).

    ``px += v*cos(theta)*dt``, ``py += v*sin(theta)*dt``,
    ``theta += (v/L)*tan(phi)*dt`` with wheelbase L = 0.2 m and time step
    dt = 0.1 s.
    """

    n_x = 3
    n_u = 2
    wheelbase = 0.2
    time_step = 0.1

    def update(self, x, u, out=None, scale=1.0):
        # [i, ...] keeps a 0-d view of a single state's component; the
        # heading is written last, after both positions have read it
        self._check_shapes(x, u)
        applied = np.multiply(scale, u, out=buffer("dynamics.car_inputs", u.shape, u.dtype))
        theta, v, phi = x[2, ...], applied[0, ...], applied[1, ...]
        dt = self.time_step
        if out is None:
            out = np.empty(x.shape, x.dtype)
        scratch = buffer("dynamics.car", (2,) + theta.shape, x.dtype)
        a, b = scratch[0, ...], scratch[1, ...]
        for i, turn in ((0, np.cos), (1, np.sin)):
            turn(theta, out=a)
            a *= v
            a *= dt
            np.add(x[i, ...], a, out=out[i, ...])
        np.divide(v, self.wheelbase, out=b)
        b *= np.tan(phi, out=a)
        b *= dt
        np.add(theta, b, out=out[2, ...])
        return out


def step(model: DynamicsModel, x: np.ndarray, u: np.ndarray, mode: int = 0) -> np.ndarray:
    """One transition under mode-scaled input.  Pure; x, u are not modified."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    return model.update(x, u, scale=model.mode_scale(mode))
