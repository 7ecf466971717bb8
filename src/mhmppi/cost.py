"""Mission cost functions.

Each mission i has a target state, diagonal quadratic stage weights Q
(state) and R (input), and a dynamics mode for its branch rollouts.  A
trajectory's cost charges, for k = 1..N, the stage term at the pair
(state reached after step k, input applied at step k), plus a terminal
quadratic at the final state.  The known initial state is never charged.  A problem's
missions are a plain tuple of :class:`Mission`: entry 0 is the primary
mission and entries 1..m are the backup missions.

Obstacles are axis-aligned boxes on the position plane; occupancy adds
the constant penalty :attr:`ObstacleSet.penalty` to the stage term (soft
constraint), which keeps every cost finite for the sampling weights
downstream.  The caller charges an array of states once, with
:meth:`ObstacleSet.charge`, and passes that charge to the stage kernel
of every mission that reads those states.

The cost of the whole plan structure is a vector of m+1 entries: entry 0
is the primary plan's cost, entry i >= 1 averages mission i's cost over
its N-1 branch plans.

:func:`stage_cost_terms` and :func:`terminal_cost_terms` are the batched
kernels: they take component-first ``(n_x, ...)``/``(n_u, ...)`` arrays,
and write into ``out`` when given one.  They compute in the dtype of
their state array: float32 in ``controller.evaluate_plan_batch``, which
sums them into the cost vectors of a whole batch of plans.  Their
temporaries are :mod:`mhmppi.buffers` scratch of that dtype.  The
constants they apply, target entries, weights and box corners, are
Python floats, which under numpy's promotion rules take the array's
dtype, and :meth:`ObstacleSet.charge` makes the penalty a scalar of its
output's dtype: an ``np.float64`` scalar would promote a float32 charge
to float64.  The penalty, 1e4, is exact in float32 and float64 alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .buffers import buffer
from .errors import ConfigError, check_int, diagonal_matrix, real_array

POSITION_DIMS = 2

_METRICS = ("position", "full")


def distance(x: np.ndarray, target: np.ndarray, metric: str = "position") -> np.ndarray:
    """Euclidean distance, on the position plane or the full state."""
    x = np.asarray(x, dtype=float)
    target = np.asarray(target, dtype=float)
    if metric == "position":
        d = x[..., :POSITION_DIMS] - target[..., :POSITION_DIMS]
    elif metric == "full":
        d = x - target
    else:
        raise ConfigError(f"unknown distance metric {metric!r}; use one of {_METRICS}")
    return np.sqrt(np.sum(d * d, axis=-1))


def _support(M: np.ndarray) -> tuple:
    """``(i, w)`` for each nonzero diagonal entry ``w = M[i, i]`` of the
    diagonal M, in order, so ``d^T M d`` is the sum of ``w d_i^2``."""
    return tuple((i, w) for i, w in enumerate(np.diag(M).tolist()) if w)


@dataclass(frozen=True)
class Mission:
    """One target with its diagonal quadratic weights and branch dynamics
    mode.  Every construction (direct, :meth:`build` or
    :func:`dataclasses.replace`) is validated and raises
    :class:`ConfigError`; the arrays are read-only copies of the caller's.
    ``state_support`` and ``input_support`` are the weights' nonzero
    diagonal entries as ``(i, weight)`` pairs, and ``center`` the
    target's entries, all Python floats (see :func:`_quad`)."""

    target: np.ndarray  # (n_x,)
    state_weight: np.ndarray  # Q, n_x x n_x diagonal, entries >= 0
    input_weight: np.ndarray  # R, n_u x n_u diagonal, entries >= 0
    mode: int = 0
    state_support: tuple = field(init=False)
    input_support: tuple = field(init=False)
    center: tuple = field(init=False)

    def __post_init__(self):
        target = real_array("target", self.target)
        if target.ndim != 1:
            raise ConfigError(f"target must be a vector, got shape {target.shape}")
        state_weight = diagonal_matrix("state_weight", self.state_weight)
        if len(state_weight) != len(target):
            raise ConfigError(f"state_weight must be {len(target)}x{len(target)} like the target")
        check_int("mode", self.mode, 0)
        input_weight = diagonal_matrix("input_weight", self.input_weight)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "state_weight", state_weight)
        object.__setattr__(self, "input_weight", input_weight)
        object.__setattr__(self, "state_support", _support(state_weight))
        object.__setattr__(self, "input_support", _support(input_weight))
        object.__setattr__(self, "center", tuple(target.tolist()))

    @classmethod
    def build(cls, target, state_weight=1.0, input_weight=1.0, n_u: int = 2, **mode) -> "Mission":
        """As the constructor; a scalar weight scales the identity of the
        target's dimension (Q) or of ``n_u`` (R)."""
        target = real_array("target", target)
        return cls(
            target,
            diagonal_matrix("state_weight", state_weight, target.size),
            diagonal_matrix("input_weight", input_weight, n_u),
            **mode,
        )


@dataclass(frozen=True)
class ObstacleSet:
    """Axis-aligned boxes on the position plane.  ``boxes`` holds (min
    corner, max corner) pairs as a read-only [box, corner, axis] array.
    Every construction is validated here.  ``penalty``, the stage cost
    that occupancy of any box adds (:meth:`charge`), is a class constant,
    as the car's wheelbase is: no scenario sets another."""

    boxes: np.ndarray = ()
    penalty = 1.0e4

    def __post_init__(self):
        boxes = real_array("boxes", self.boxes)
        if boxes.size and boxes.shape[1:] != (2, POSITION_DIMS):
            raise ConfigError(
                f"boxes must be (min corner, max corner) pairs of {POSITION_DIMS}-vectors, "
                f"got shape {boxes.shape}"
            )
        boxes = boxes.reshape(-1, 2, POSITION_DIMS)
        if np.any(boxes[:, 0] > boxes[:, 1]):
            raise ConfigError("obstacle min corner must be <= max corner")
        object.__setattr__(self, "boxes", boxes)

    def charge(self, positions: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The stage cost the boxes add at (2, ...) positions: ``penalty``
        where they occupy any box (inclusive), 0 elsewhere, written into
        and returned as ``out``, in its dtype."""
        x, y = positions[0, ...], positions[1, ...]
        hit, box, test = buffer("cost.box", (3,) + out.shape, bool)
        hit[...] = False
        # corners as Python floats: compared in the positions' dtype
        for (lx, ly), (hx, hy) in self.boxes.tolist():
            np.greater_equal(x, lx, out=box)
            box &= np.less_equal(x, hx, out=test)
            box &= np.greater_equal(y, ly, out=test)
            box &= np.less_equal(y, hy, out=test)
            hit |= box
        # hit * penalty, which the stage kernel adds in one pass: a masked
        # add (where=hit) takes about six times as long, and adding 0.0
        # outside the boxes changes no bit
        return np.multiply(hit, out.dtype.type(self.penalty), out=out)


def _quad(x: np.ndarray, support: tuple, center=None, out=None) -> np.ndarray:
    """``d^T M d`` with ``d = x - center`` over the component axis 0 of
    ``x``, written into and returned as ``out`` (a new array of ``x``'s
    dtype by default).  The diagonal M is given as its ``support`` (see
    :class:`Mission`): the weighted sum of squares runs one component
    slab at a time over M's nonzero diagonal entries.  The weights and
    ``center`` are Python floats, so the sum runs in the dtype of ``x``."""
    if out is None:
        out = np.empty(x.shape[1:], x.dtype)
    out[...] = 0.0
    d = buffer("cost.quad", out.shape, out.dtype)
    for i, w in support:
        if center is None:
            np.multiply(x[i], x[i], out=d)
        else:
            np.subtract(x[i], center[i], out=d)
            d *= d
        if w != 1.0:
            d *= w
        out += d
    return out


def stage_cost_terms(
    mission: Mission,
    states: np.ndarray,
    inputs: np.ndarray,
    out: np.ndarray | None = None,
    *,
    charge: np.ndarray | None,
) -> np.ndarray:
    """Element-wise stage costs for matching (n_x, ...)/(n_u, ...) arrays,
    written into and returned as ``out`` (a new array by default).
    ``charge``, the caller's obstacle charge of the states' positions
    (module docstring), is added to the quadratic terms; None adds
    nothing."""
    cost = _quad(states, mission.state_support, mission.center, out)
    cost += _quad(inputs, mission.input_support, out=buffer("cost.input", cost.shape, cost.dtype))
    if charge is not None:
        cost += charge
    return cost


def terminal_cost_terms(
    mission: Mission, states: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Terminal quadratic for (n_x, ...) states, written into and returned
    as ``out`` (a new array by default)."""
    return _quad(states, mission.state_support, mission.center, out)
