"""Mission cost functions.

Each mission i has a target state, quadratic stage weights Q (state) and
R (input), and a dynamics mode for its branch rollouts.  A trajectory's
cost charges, for k = 1..N, the stage term at the pair (state reached
after step k, input applied at step k), plus a terminal quadratic at the
final state.  The known initial state is never charged.

Obstacles are axis-aligned boxes on the position plane; occupancy adds a
constant penalty to the stage term (soft constraint), which keeps every
cost finite for the sampling weights downstream.

The cost of the whole plan structure is a vector of m+1 entries: entry 0
is the primary plan's cost, entry i >= 1 averages mission i's cost over
its N-1 branch plans.

:func:`stage_cost_terms` and :func:`terminal_cost_terms` are the batched
kernels: they take component-first ``(n_x, ...)``/``(n_u, ...)`` arrays.
``controller.evaluate_plan_batch`` sums them into the cost vectors of a
whole batch of plans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_int, check_real, real_array

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


def _psd_weight(M, what: str) -> np.ndarray:
    M = real_array(what, M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ConfigError(f"{what} must be a square matrix, got shape {M.shape}")
    if not np.allclose(M, M.T):
        raise ConfigError(f"{what} must be symmetric")
    if np.any(np.linalg.eigvalsh(M) < -1e-12):
        raise ConfigError(f"{what} must be positive semidefinite")
    return M


def _scaled_eye(M, n: int, what: str):
    """A scalar ``M`` times the n x n identity; any other ``M`` as given."""
    return real_array(what, M) * np.eye(n) if np.ndim(M) == 0 else M


@dataclass(frozen=True)
class Mission:
    """One target with its quadratic weights and branch dynamics mode.
    Every construction (direct, :meth:`build` or
    :func:`dataclasses.replace`) is validated and raises
    :class:`ConfigError`; the arrays are read-only copies of the caller's."""

    target: np.ndarray  # (n_x,)
    state_weight: np.ndarray  # Q, n_x x n_x PSD
    input_weight: np.ndarray  # R, n_u x n_u PSD
    mode: int = 0

    def __post_init__(self):
        target = real_array("target", self.target)
        if target.ndim != 1:
            raise ConfigError(f"target must be a vector, got shape {target.shape}")
        state_weight = _psd_weight(self.state_weight, "state_weight")
        if len(state_weight) != len(target):
            raise ConfigError(f"state_weight must be {len(target)}x{len(target)} like the target")
        check_int("mode", self.mode, 0)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "state_weight", state_weight)
        object.__setattr__(self, "input_weight", _psd_weight(self.input_weight, "input_weight"))

    @classmethod
    def build(cls, target, state_weight=1.0, input_weight=1.0, n_u: int = 2, **mode) -> "Mission":
        """As the constructor; a scalar weight scales the identity of the
        target's dimension (Q) or of ``n_u`` (R)."""
        target = real_array("target", target)
        return cls(
            target,
            _scaled_eye(state_weight, target.size, "state_weight"),
            _scaled_eye(input_weight, n_u, "input_weight"),
            **mode,
        )


@dataclass(frozen=True)
class MissionSet:
    """Primary mission (index 0) plus the backup missions 1..m."""

    missions: tuple

    def __post_init__(self):
        if not self.missions:
            raise ConfigError("at least a primary mission is required")
        object.__setattr__(self, "missions", tuple(self.missions))

    @property
    def n_alternatives(self) -> int:
        return len(self.missions) - 1

    @property
    def modes(self) -> tuple:
        return tuple(mission.mode for mission in self.missions)

    def __getitem__(self, i: int) -> Mission:
        return self.missions[i]

    def __len__(self) -> int:
        return len(self.missions)


@dataclass(frozen=True)
class ObstacleSet:
    """Axis-aligned boxes on the position plane with a constant penalty."""

    lo: np.ndarray  # (n_boxes, 2)
    hi: np.ndarray  # (n_boxes, 2)
    penalty: float = 1.0e4

    def __post_init__(self):
        lo = real_array("lo", self.lo)
        hi = real_array("hi", self.hi)
        if lo.shape != hi.shape or lo.ndim != 2 or lo.shape[1] != POSITION_DIMS:
            raise ConfigError("obstacle corner arrays must both be (n_boxes, 2)")
        if np.any(lo > hi):
            raise ConfigError("obstacle min corner must be <= max corner")
        check_real("obstacle penalty", self.penalty)
        if self.penalty < 0.0:
            raise ConfigError("obstacle penalty must be >= 0")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def empty(cls) -> "ObstacleSet":
        return cls(np.zeros((0, POSITION_DIMS)), np.zeros((0, POSITION_DIMS)), 0.0)

    @classmethod
    def from_boxes(cls, boxes=(), **penalty) -> "ObstacleSet":
        """As the constructor, from a sequence of (min_corner, max_corner)
        pairs of position-plane corners."""
        corners = real_array("boxes", boxes)
        if corners.size == 0:
            corners = corners.reshape(0, 2, POSITION_DIMS)
        if corners.shape[1:] != (2, POSITION_DIMS):
            raise ConfigError(
                f"boxes must be (min corner, max corner) pairs of {POSITION_DIMS}-vectors, "
                f"got shape {corners.shape}"
            )
        return cls(corners[:, 0], corners[:, 1], **penalty)

    @property
    def n_boxes(self) -> int:
        return self.lo.shape[0]

    def inside(self, positions: np.ndarray) -> np.ndarray:
        """Boolean occupancy of any box for (2, ...) positions (inclusive)."""
        positions = np.asarray(positions)
        if self.n_boxes == 0:
            return np.zeros(positions.shape[1:], dtype=bool)
        x, y = positions[0], positions[1]
        hit = np.zeros(x.shape, dtype=bool)
        for (lx, ly), (hx, hy) in zip(self.lo, self.hi):
            hit |= (x >= lx) & (x <= hx) & (y >= ly) & (y <= hy)
        return hit


def _quad(x: np.ndarray, M: np.ndarray, center=None) -> np.ndarray:
    """``d^T M d`` with ``d = x - center`` over the component axis 0 of ``x``.

    A diagonal M is a weighted sum of squares, one component slab at a
    time, that skips zero weights; any other M takes the dense product.
    """
    w = np.diagonal(M)
    if np.count_nonzero(M) == np.count_nonzero(w):
        total = np.zeros(x.shape[1:])
        for i in np.flatnonzero(w):
            if center is None:
                d = x[i] * x[i]
            else:
                d = x[i] - center[i]
                d *= d
            if w[i] != 1.0:
                d *= w[i]
            total += d
        return total
    if center is not None:
        x = x - center.reshape((-1,) + (1,) * (x.ndim - 1))
    d = x.reshape(len(M), -1)
    return ((M @ d) * d).sum(0).reshape(x.shape[1:])


def stage_cost_terms(
    mission: Mission,
    states: np.ndarray,
    inputs: np.ndarray,
    obstacles: ObstacleSet,
) -> np.ndarray:
    """Element-wise stage costs for matching (n_x, ...)/(n_u, ...) arrays."""
    cost = _quad(states, mission.state_weight, mission.target)
    cost += _quad(inputs, mission.input_weight)
    if obstacles.n_boxes and obstacles.penalty:
        np.add(cost, obstacles.penalty, out=cost, where=obstacles.inside(states[:POSITION_DIMS]))
    return cost


def terminal_cost_terms(mission: Mission, states: np.ndarray) -> np.ndarray:
    """Terminal quadratic for (n_x, ...) states."""
    return _quad(states, mission.state_weight, mission.target)
