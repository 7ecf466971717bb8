"""Closed-loop simulation: mission completion, abort injection, statistics.

A scenario couples a model, a mission set, obstacles, controller and
weight-law parameters with an initial state and termination settings.
The loop executes the controller's first input through the true dynamics
(no plant mismatch), records per-step telemetry, and stops on completion
of the active mission or after ``max_steps``.

An optional abort specification switches the true dynamics mode at a
given step, selects one backup mission (cheapest current branch average,
or nearest), and hands control over to the same controller step and
parameters on the one-mission problem: the chosen mission alone, in the
abort mode, with no backup horizons.  The recorded weight row becomes the
one-hot of the chosen mission.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import controller as ctrl
from .cost import MissionSet, ObstacleSet, distance
from .dynamics import DynamicsModel, step
from .errors import ConfigError, check_int, check_real, real_array
from .multi_horizon import MultiHorizonInput
from .weights import WeightLawParams, desired_weights

ABORT_POLICIES = ("min_cost", "nearest")


@dataclass(frozen=True)
class AbortSpec:
    """Inject a primary-mission abort: at ``step``, switch the true
    dynamics to ``new_mode`` and continue toward one backup mission."""

    step: int
    new_mode: int = 0
    policy: str = "min_cost"

    def __post_init__(self):
        check_int("abort step", self.step, 0)
        check_int("abort new_mode", self.new_mode, 0)
        if self.policy not in ABORT_POLICIES:
            raise ConfigError(f"abort policy must be one of {ABORT_POLICIES}")


@dataclass(frozen=True)
class Scenario:
    """One closed-loop experiment.  Every construction (direct or
    :func:`dataclasses.replace`) is validated and raises
    :class:`ConfigError`; ``x0`` is a read-only copy of the caller's."""

    name: str
    model: DynamicsModel
    missions: MissionSet
    obstacles: ObstacleSet
    controller: ctrl.ControllerParams
    weight_law: WeightLawParams
    x0: np.ndarray
    max_steps: int = 400
    completion_tol: float = 0.5
    completion_metric: str = "position"
    abort: AbortSpec | None = None

    def __post_init__(self):
        x0 = real_array("x0", self.x0)
        if x0.shape != (self.model.n_x,):
            raise ConfigError(f"x0 must have dim {self.model.n_x}, got shape {x0.shape}")
        object.__setattr__(self, "x0", x0)
        check_int("max_steps", self.max_steps, 1)
        check_real("completion_tol", self.completion_tol, above=0.0)
        distance(np.zeros(2), np.zeros(2), self.completion_metric)  # validates the selector
        n_x, n_u = self.model.n_x, self.model.n_u
        for i, mission in enumerate(self.missions.missions):
            if mission.target.shape != (n_x,) or mission.input_weight.shape != (n_u, n_u):
                raise ConfigError(
                    f"missions[{i}] must have a target of dim {n_x} and an input_weight of "
                    f"{n_u}x{n_u}"
                )
            self.model.mode_scale(mission.mode)  # validates the mode index
        if self.abort is not None:
            if self.abort.step >= self.max_steps:
                raise ConfigError(
                    f"abort step {self.abort.step} is beyond max_steps {self.max_steps}"
                )
            if self.missions.n_alternatives < 1:
                raise ConfigError("abort injection needs at least one backup mission")
            self.model.mode_scale(self.abort.new_mode)


@dataclass
class StepRecord:
    step: int
    state: np.ndarray
    inp: np.ndarray
    alpha: np.ndarray
    cost_mean: float
    cost_std: float
    seconds: float


@dataclass(frozen=True)
class Termination:
    kind: str  # "completed" | "aborted_completed" | "max_steps"
    mission: int | None
    steps: int

    def label(self) -> str:
        if self.mission is None:
            return self.kind
        return f"{self.kind}:{self.mission}"

    @property
    def reached_goal(self) -> bool:
        return self.kind in ("completed", "aborted_completed")

    @classmethod
    def from_label(cls, label: str, steps: int) -> "Termination":
        kind, _, mission = label.partition(":")
        return cls(kind, int(mission) if mission else None, steps)


@dataclass
class ClosedLoopTrace:
    records: list
    termination: Termination
    final_state: np.ndarray
    meta: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)  # in-memory only

    @property
    def states(self) -> np.ndarray:
        """All visited states including the final one; (T+1, n_x)."""
        rows = [r.state for r in self.records] + [self.final_state]
        return np.stack(rows)


def is_completed(
    x, target, metric: str = Scenario.completion_metric, tol: float = Scenario.completion_tol
) -> bool:
    """Mission completion: within ``tol`` of the target (boundary counts)."""
    check_real("completion tolerance", tol, above=0.0)
    return bool(distance(x, target, metric) <= tol)


def _choose_backup(scenario: Scenario, x: np.ndarray, state: ctrl.ControllerState) -> int:
    """Backup mission for an abort at the current state."""
    missions = scenario.missions
    if scenario.abort.policy == "nearest":
        dists = [
            distance(x, mission.target, scenario.completion_metric)
            for mission in missions.missions[1:]
        ]
        return 1 + int(np.argmin(dists))
    shifted = state.inputs.shift()
    costs, _ = ctrl.evaluate_plan_batch(
        scenario.model,
        x,
        shifted.flat.T[:, :, None],
        shifted.horizon,
        missions,
        scenario.obstacles,
    )
    return 1 + int(np.argmin(costs[0, 1:]))


def run_closed_loop(scenario: Scenario, seed: int | None = None) -> ClosedLoopTrace:
    """Run one scenario to completion, abort handover included."""
    params = scenario.controller if seed is None else replace(scenario.controller, seed=seed)
    model, missions, obstacles = scenario.model, scenario.missions, scenario.obstacles
    n_missions = len(missions)

    x = scenario.x0.copy()
    mode = 0
    goal = 0
    active = missions  # the mission set the controller plans for
    state = ctrl.init_state(x, params, missions, scenario.weight_law)

    records: list[StepRecord] = []
    diags = []
    termination = None
    for t in range(scenario.max_steps):
        if scenario.abort is not None and t == scenario.abort.step:
            goal = _choose_backup(scenario, x, state)
            mode = scenario.abort.new_mode
            active = MissionSet((replace(missions[goal], mode=mode),))
            # The stored branch plan for an abort right after the executed
            # input becomes the primary plan of the one-mission problem.
            # Its row 0 is that executed input, so control_step's shift
            # leaves exactly the branch tail, padded with one zero input.
            warm = MultiHorizonInput(params.horizon, 0, state.inputs.branch_view(goal, 0))
            state = ctrl.ControllerState(warm, np.ones(1), state.step_index)

        target = missions[goal].target
        if is_completed(x, target, scenario.completion_metric, scenario.completion_tol):
            kind = "completed" if goal == 0 else "aborted_completed"
            termination = Termination(kind, goal, t)
            break

        u, state, diag = ctrl.control_step(
            x, state, model, active, obstacles, params, scenario.weight_law
        )
        alpha = diag.alpha
        if goal != 0:
            alpha = np.zeros(n_missions)
            alpha[goal] = 1.0

        records.append(
            StepRecord(t, x.copy(), u, alpha, diag.cost_mean, diag.cost_std, diag.seconds)
        )
        diags.append(diag)
        x = step(model, x, u, mode)
    else:
        termination = Termination("max_steps", None, scenario.max_steps)

    meta = {
        "scenario": scenario.name,
        "seed": int(params.seed),
        "n_missions": n_missions,
        "targets": [mission.target.tolist() for mission in missions.missions],
    }
    return ClosedLoopTrace(records, termination, x, meta, diags)


def _path_length(trace: ClosedLoopTrace) -> float:
    pos = trace.states[:, :2]
    return float(np.sum(np.linalg.norm(np.diff(pos, axis=0), axis=1)))


def _min_target_distances(trace: ClosedLoopTrace) -> np.ndarray:
    """Min-over-time position distance to each mission target."""
    targets = np.asarray(trace.meta["targets"], dtype=float)
    pos = trace.states[:, :2]
    d = np.linalg.norm(pos[:, None, :] - targets[None, :, :2], axis=-1)
    return d.min(axis=0)


def analyze(traces) -> list[dict]:
    """Aggregate per-group statistics of closed-loop runs.

    A trace's group label is its ``meta['group']``, falling back to the
    scenario name.  Per-trace quantities are averaged within each group;
    the implied control frequency is the mean of per-trace frequencies.
    """
    traces = list(traces)
    if not traces:
        raise ValueError("analyze() needs at least one trace")

    groups: dict = {}
    for trace in traces:
        label = trace.meta.get("group", trace.meta.get("scenario", "all"))
        groups.setdefault(label, []).append(trace)

    rows = []
    for label in sorted(groups, key=str):
        members = groups[label]
        cost_means, cost_stds, secs, freqs, lengths = [], [], [], [], []
        min_dists = []
        steps, completed = [], 0
        for trace in members:
            steps.append(len(trace.records))
            completed += int(trace.termination.reached_goal)
            lengths.append(_path_length(trace))
            min_dists.append(_min_target_distances(trace))
            if trace.records:
                cost_means.append(float(np.mean([r.cost_mean for r in trace.records])))
                cost_stds.append(float(np.mean([r.cost_std for r in trace.records])))
                mean_sec = float(np.mean([r.seconds for r in trace.records]))
                secs.append(mean_sec)
                freqs.append(1.0 / mean_sec if mean_sec > 0 else float("inf"))
        min_dists = np.stack(min_dists)  # (runs, n_missions)
        row = {
            "group": label,
            "n_runs": len(members),
            "completion_rate": completed / len(members),
            "mean_steps": float(np.mean(steps)),
            "mean_cost_mean": float(np.mean(cost_means)) if cost_means else float("nan"),
            "mean_cost_std": float(np.mean(cost_stds)) if cost_stds else float("nan"),
            "mean_step_seconds": float(np.mean(secs)) if secs else float("nan"),
            "mean_frequency_hz": float(np.mean(freqs)) if freqs else float("nan"),
            "mean_path_length": float(np.mean(lengths)),
        }
        n_missions = min_dists.shape[1]
        for i in range(1, n_missions):
            row[f"mean_min_dist_alt{i}"] = float(np.mean(min_dists[:, i]))
        if n_missions > 1:
            row["mean_min_dist_nearest_alt"] = float(
                np.mean(min_dists[:, 1:].min(axis=1))
            )
        rows.append(row)
    return rows
