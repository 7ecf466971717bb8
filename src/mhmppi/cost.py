"""Mission cost functions and the per-mission cost vector.

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
The per-structure route (:func:`stage_cost`, :func:`mission_cost`,
:func:`cost_vector`, :func:`tail_cost_vector`) takes one plan with the
component axis last and is the test oracle for the batched evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .multi_horizon import MultiHorizonInput, MultiHorizonTrajectory

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


def _psd_weight(M, n: int, what: str) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim == 0:
        M = float(M) * np.eye(n)
    if M.shape != (n, n):
        raise ConfigError(f"{what} must be a scalar or {n}x{n} matrix, got shape {M.shape}")
    if not np.allclose(M, M.T):
        raise ConfigError(f"{what} must be symmetric")
    if np.any(np.linalg.eigvalsh(M) < -1e-12):
        raise ConfigError(f"{what} must be positive semidefinite")
    M.flags.writeable = False
    return M


@dataclass(frozen=True)
class Mission:
    """One target with its quadratic weights and branch dynamics mode."""

    target: np.ndarray
    state_weight: np.ndarray  # Q, n_x x n_x PSD (scalar -> scaled identity)
    input_weight: np.ndarray  # R, n_u x n_u PSD
    mode: int = 0

    @classmethod
    def build(cls, target, state_weight=1.0, input_weight=1.0, mode=0, n_u=2) -> "Mission":
        target = np.asarray(target, dtype=float)
        target.flags.writeable = False
        n_x = target.shape[0]
        return cls(
            target,
            _psd_weight(state_weight, n_x, "state_weight"),
            _psd_weight(input_weight, n_u, "input_weight"),
            mode,
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
        lo = np.asarray(self.lo, dtype=float).reshape(-1, POSITION_DIMS)
        hi = np.asarray(self.hi, dtype=float).reshape(-1, POSITION_DIMS)
        if lo.shape != hi.shape:
            raise ConfigError("obstacle corner arrays must have matching shapes")
        if np.any(lo > hi):
            raise ConfigError("obstacle min corner must be <= max corner")
        if self.penalty < 0.0:
            raise ConfigError("obstacle penalty must be >= 0")
        lo.flags.writeable = False
        hi.flags.writeable = False
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def empty(cls) -> "ObstacleSet":
        return cls(np.zeros((0, POSITION_DIMS)), np.zeros((0, POSITION_DIMS)), 0.0)

    @classmethod
    def from_boxes(cls, boxes, penalty: float = 1.0e4) -> "ObstacleSet":
        """boxes: iterable of (min_corner, max_corner) pairs."""
        boxes = list(boxes)
        if not boxes:
            return cls(np.zeros((0, POSITION_DIMS)), np.zeros((0, POSITION_DIMS)), penalty)
        lo = np.stack([np.asarray(b[0], dtype=float) for b in boxes])
        hi = np.stack([np.asarray(b[1], dtype=float) for b in boxes])
        return cls(lo, hi, penalty)

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


# The per-structure route below (stage_cost, mission_cost, cost_vector,
# tail_cost_vector) takes one plan at a time with the component axis last
# and keeps its own dense quadratic, so it stays an independent oracle for
# the batched evaluator in ``controller``.


def _dense_quad(dz: np.ndarray, M: np.ndarray) -> np.ndarray:
    return ((dz @ M) * dz).sum(axis=-1)


def _stage_terms(mission: Mission, states, inputs, obstacles: ObstacleSet) -> np.ndarray:
    """Stage costs for matching (..., n_x)/(..., n_u) arrays."""
    cost = _dense_quad(states - mission.target, mission.state_weight)
    cost = cost + _dense_quad(inputs, mission.input_weight)
    if obstacles.n_boxes and obstacles.penalty:
        positions = np.moveaxis(states[..., :POSITION_DIMS], -1, 0)
        cost = cost + obstacles.penalty * obstacles.inside(positions)
    return cost


def _terminal_terms(mission: Mission, states) -> np.ndarray:
    return _dense_quad(states - mission.target, mission.state_weight)


def stage_cost(mission: Mission, x, u, obstacles: ObstacleSet) -> float:
    return float(_stage_terms(mission, np.asarray(x, float), np.asarray(u, float), obstacles))


def mission_cost(
    mission: Mission,
    states: np.ndarray,
    inputs: np.ndarray,
    obstacles: ObstacleSet,
) -> np.ndarray:
    """Total plan cost for one mission.

    ``states``: (..., N+1, n_x), ``inputs``: (..., N, n_u); returns (...).
    Stage terms pair states[k] with inputs[k-1] for k = 1..N; the terminal
    quadratic is charged at states[N].
    """
    states = np.asarray(states, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    if states.shape[-2] != inputs.shape[-2] + 1:
        raise ValueError(
            f"need one more state than inputs, got {states.shape[-2]} states "
            f"for {inputs.shape[-2]} inputs"
        )
    terms = _stage_terms(mission, states[..., 1:, :], inputs, obstacles)
    return terms.sum(axis=-1) + _terminal_terms(mission, states[..., -1, :])


def cost_vector(
    trajectories: MultiHorizonTrajectory,
    inputs: MultiHorizonInput,
    missions: MissionSet,
    obstacles: ObstacleSet,
) -> np.ndarray:
    """The m+1 mission costs of one plan structure.

    Entry 0 evaluates the primary plan; entry i averages mission i's cost
    over its N-1 branch plans.
    """
    horizon, m = inputs.horizon, inputs.n_alternatives
    _check_structure(trajectories, inputs, missions)
    out = np.empty(m + 1)
    out[0] = mission_cost(missions[0], trajectories.primary_states, inputs.primary, obstacles)
    for i in range(1, m + 1):
        total = 0.0
        for p in range(horizon - 1):
            total += mission_cost(
                missions[i],
                trajectories.branch_states(i, p),
                inputs.branch_view(i, p),
                obstacles,
            )
        out[i] = total / (horizon - 1)
    return out


def tail_cost_vector(
    trajectories: MultiHorizonTrajectory,
    inputs: MultiHorizonInput,
    missions: MissionSet,
    obstacles: ObstacleSet,
) -> np.ndarray:
    """Final stage + terminal terms of every plan, branch-averaged.

    Applied to a shifted plan (whose last input is the zero placeholder),
    subtracting this from the cost vector removes exactly the cost charged
    to that placeholder step.
    """
    horizon, m = inputs.horizon, inputs.n_alternatives
    _check_structure(trajectories, inputs, missions)

    def last_terms(mission, states, plan):
        return (
            _stage_terms(mission, states[-1], plan[-1], obstacles)
            + _terminal_terms(mission, states[-1])
        )

    out = np.empty(m + 1)
    out[0] = last_terms(missions[0], trajectories.primary_states, inputs.primary)
    for i in range(1, m + 1):
        total = 0.0
        for p in range(horizon - 1):
            total += last_terms(
                missions[i], trajectories.branch_states(i, p), inputs.branch_view(i, p)
            )
        out[i] = total / (horizon - 1)
    return out


def _check_structure(trajectories, inputs, missions) -> None:
    if trajectories.horizon != inputs.horizon:
        raise ValueError("trajectory and input horizons differ")
    if trajectories.n_alternatives != inputs.n_alternatives:
        raise ValueError("trajectory and input mission counts differ")
    if missions.n_alternatives != inputs.n_alternatives:
        raise ValueError(
            f"{missions.n_alternatives} backup missions but structure has "
            f"{inputs.n_alternatives}"
        )
