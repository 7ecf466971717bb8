"""Independent per-structure reference for the batched plan evaluator.

``controller.evaluate_plan_batch`` simulates and costs a whole batch of
flat plans at once, component first and sample last.  This module does the
same work the slow, literal way, one plan at a time with the component axis
last: :func:`expand` simulates every plan of the structure as its own
sequence of states, and :func:`cost_vector` and :func:`tail_cost_vector`
sum each mission's cost over those states with their own dense quadratic.
Its rollout loops, cost kernel and box occupancy are its own; it shares
only the models' ``update`` and the plan views with the package.
The tests compare the two routes entry by entry.

It also keeps the reference forms that the package's faster paths must
reproduce bit for bit: :func:`draw_noise` for the noise substream
convention, with a fresh generator per row, :func:`rollout` for one
input sequence, and :func:`from_parts` to build a plan from its primary
and tails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mhmppi.cost import POSITION_DIMS, Mission, ObstacleSet
from mhmppi.dynamics import DynamicsModel
from mhmppi.multi_horizon import (
    MultiHorizonInput,
    _check_branch,
    _readonly,
    branch_rows,
    dims,
)

# ------------------------------------------------------------------ noise


def draw_noise(key: np.ndarray, shape: tuple, chol: np.ndarray) -> np.ndarray:
    """The (n_u, n_inputs, K) noise batch of stream key ``key``.

    Reference form of the convention, one row at a time: row d is a new
    generator on ``Philox(key, counter=d * 2**192)``, and w_0, w_1, ... are
    its raw 64-bit words.  With P = ceil(n_u / 2) words per sample, word k
    of sample q is w_{qP+k}.  Its halves a = w & 0xFFFFFFFF and b = w >> 32
    give u = 2 - f(a) in (0, 1] and v = f(b) - 1 in [0, 1), where f(h) is
    the float32 with bits (h >> 9) | 0x3F800000.  In float32,
    r = sqrt(-2 log u) and theta = 2 pi v, and components 2k and 2k+1 of
    z[:, d, q] are r cos(theta) and r sin(theta), the latter dropped when
    2k+1 = n_u.  Entry (c, d, q) of the batch is the sum of
    ``chol[c, j] * z[j, d, q]`` over j in order.  ``noise._fill_noise``
    produces the same values in chunks of rows.
    """
    n_u, n_inputs, n_samples = shape
    n_words = (n_u + 1) // 2
    z = np.empty(shape)
    for d in range(n_inputs):
        bits = np.random.Philox(key=key, counter=d << 192)
        words = bits.random_raw(n_samples * n_words).reshape(n_samples, n_words)
        for k in range(n_words):
            u = 2 - _unit(words[:, k] & 0xFFFFFFFF)
            v = _unit(words[:, k] >> 32) - 1
            r = np.sqrt(np.float32(-2) * np.log(u))
            theta = np.float32(2 * np.pi) * v
            z[2 * k, d] = r * np.cos(theta)
            if 2 * k + 1 < n_u:
                z[2 * k + 1, d] = r * np.sin(theta)
    return np.stack([sum(chol[c, j] * z[j] for j in range(n_u)) for c in range(n_u)])


def _unit(half: np.ndarray) -> np.ndarray:
    """The float32 in [1, 2) whose bits are ``(half >> 9) | 0x3F800000``,
    for 32-bit values ``half`` held in uint64."""
    return ((half >> 9) | 0x3F800000).astype(np.uint32).view(np.float32)


# --------------------------------------------------------------- dynamics


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


# ------------------------------------------------------ plan structure


def tail_length(horizon: int, p: int) -> int:
    return horizon - 1 - p


def from_parts(primary, tails=()) -> MultiHorizonInput:
    """Build from an (N, n_u) primary and tails[i-1][p] input lists."""
    primary = np.asarray(primary, dtype=float)
    horizon = primary.shape[0]
    n_alternatives = len(tails)
    n, _ = dims(horizon, n_alternatives)
    flat = np.zeros((n, primary.shape[1]))
    flat[:horizon] = primary
    rows = branch_rows(horizon, n_alternatives)
    for i, mission_tails in enumerate(tails, start=1):
        if len(mission_tails) != horizon - 1:
            raise ValueError(f"mission {i}: expected {horizon - 1} tails")
        for p, tail in enumerate(mission_tails):
            tail = np.asarray(tail, dtype=float)
            if tail.shape[0] != tail_length(horizon, p):
                raise ValueError(
                    f"tail ({i},{p}): expected {tail_length(horizon, p)} inputs"
                )
            flat[rows[p + 1 :, p, i - 1]] = tail
    return MultiHorizonInput(horizon, n_alternatives, flat)


@dataclass(frozen=True)
class MultiHorizonTrajectory:
    """State family produced by simulating a MultiHorizonInput.

    ``primary_states`` has N+1 rows; ``tail_states[i-1][p]`` holds the
    N-1-p states strictly after the prefix shared with the primary
    trajectory (states 0..p+1).
    """

    horizon: int
    n_alternatives: int
    primary_states: np.ndarray
    tail_states: tuple

    @property
    def n_x(self) -> int:
        return self.primary_states.shape[1]

    def branch_states(self, i: int, p: int) -> np.ndarray:
        """Full N+1 state sequence of branch (i, p); prefix aliases primary."""
        _check_branch(self.horizon, self.n_alternatives, i, p)
        return _readonly(
            np.concatenate([self.primary_states[: p + 2], self.tail_states[i - 1][p]])
        )


def expand(
    model: DynamicsModel,
    x0: np.ndarray,
    inputs: MultiHorizonInput,
    mission_modes=None,
) -> MultiHorizonTrajectory:
    """Simulate every plan in the structure from the current state.

    ``mission_modes[i]`` is the dynamics mode used for mission i's inputs
    (default: mode 0 everywhere).  Shared prefixes are simulated once on
    the primary trajectory and never recomputed per branch.
    """
    horizon, m = inputs.horizon, inputs.n_alternatives
    if mission_modes is None:
        mission_modes = (0,) * (m + 1)
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n_x,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({model.n_x},)")

    primary_states = np.empty((horizon + 1, model.n_x))
    primary_states[0] = x0
    scale0 = model.mode_scale(mission_modes[0])
    for k in range(horizon):
        primary_states[k + 1] = model.update(primary_states[k], scale0 * inputs.primary[k])

    tail_states = []
    for i in range(1, m + 1):
        scale = model.mode_scale(mission_modes[i])
        mission_states = []
        for p in range(horizon - 1):
            tail = inputs.branch_view(i, p)[p + 1 :]
            states = np.empty((len(tail), model.n_x))
            x = primary_states[p + 1]
            for k in range(len(tail)):
                x = model.update(x, scale * tail[k])
                states[k] = x
            states.flags.writeable = False
            mission_states.append(states)
        tail_states.append(tuple(mission_states))
    primary_states.flags.writeable = False
    return MultiHorizonTrajectory(horizon, m, primary_states, tuple(tail_states))


# ------------------------------------------------------------------- cost


def _dense_quad(dz: np.ndarray, M: np.ndarray) -> np.ndarray:
    return ((dz @ M) * dz).sum(axis=-1)


def _stage_terms(mission: Mission, states, inputs, obstacles: ObstacleSet) -> np.ndarray:
    """Stage costs for matching (..., n_x)/(..., n_u) arrays."""
    cost = _dense_quad(states - mission.target, mission.state_weight)
    cost = cost + _dense_quad(inputs, mission.input_weight)
    if len(obstacles.boxes):
        # in a box: every position entry between its corners (inclusive)
        positions = states[..., None, :POSITION_DIMS]
        lo, hi = obstacles.boxes[:, 0], obstacles.boxes[:, 1]
        occupied = ((lo <= positions) & (positions <= hi)).all(axis=-1).any(axis=-1)
        cost = cost + obstacles.penalty * occupied
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
    missions: tuple[Mission, ...],
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
    missions: tuple[Mission, ...],
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
    if len(missions) - 1 != inputs.n_alternatives:
        raise ValueError(
            f"{len(missions) - 1} backup missions but structure has {inputs.n_alternatives}"
        )
