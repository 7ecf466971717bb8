"""Sampling-based receding-horizon controller over the multi-horizon plan.

One control step, given the measured state:

1. compute the desired mission weights from the current distances;
2. shift last step's plan (drop the executed input, pad with zeros);
3. re-simulate the shifted plan noise-free, evaluate its cost vector and
   tail-cost vector, and project the desired weights onto the descent
   constraint they define;
4. sample K noise perturbations of the whole flat plan;
5. simulate every perturbed plan and evaluate its m+1 mission costs;
6. scalarize with the projected weights;
7. update the plan with the softmax-weighted average of the noise, and
   execute the first primary input of the result.

Noise reproducibility contract
------------------------------
Sample q of step t draws from the dedicated counter-block stream
``Philox(key=stream_key(seed, t), counter=q * 2**192)``; the first rows of
that stream are the primary-horizon noise.  Any sampler honoring this
convention (e.g. the m=0 case of this step) produces bit-identical primary
noise for the same (seed, step, q), regardless of batch width.  The
weighted reduction over samples runs in a fixed order, so whole runs are
bit-reproducible.

Plain MPPI is the m=0 case
--------------------------
With no backup missions the flat plan is the primary horizon and the
projected weight is exactly ``[1.0]``, so the step is plain single-horizon
MPPI; the closed-loop harness runs the post-abort phase this way.  With the
backup-weight gamma at zero the weights stay ``[1, 0, ..., 0]``, and a step
over m backup missions executes bit-identical inputs to the m=0 step on the
primary mission alone.  That equivalence does not hold with
``control_cost=True``: the penalty spans every flat row, backup tails
included, so the two diverge as soon as the shifted plan is nonzero.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import cost as cost_mod
from .cost import MissionSet, ObstacleSet
from .dynamics import DynamicsModel
from .errors import ConfigError
from .multi_horizon import MultiHorizonInput, dims, tail_slice
from .weights import WeightLawParams, desired_weights, update_weights


@dataclass(frozen=True)
class ControllerParams:
    """Sampling parameters; build via :meth:`build` to validate the covariance."""

    n_samples: int
    horizon: int
    n_alternatives: int
    noise_cov: np.ndarray  # (n_u, n_u) positive definite
    noise_chol: np.ndarray  # lower Cholesky factor of noise_cov
    temperature: float = 0.5
    seed: int = 0
    # Adds the noise-alignment penalty over every flat row to the sample
    # costs; with it on, gamma=0 no longer reduces the step to the m=0 case.
    control_cost: bool = False

    @classmethod
    def build(
        cls,
        n_samples: int,
        horizon: int,
        n_alternatives: int,
        n_u: int,
        noise_cov=1.0,
        temperature: float = 0.5,
        seed: int = 0,
        control_cost: bool = False,
    ) -> "ControllerParams":
        if n_samples < 1:
            raise ConfigError(f"n_samples must be >= 1, got {n_samples}")
        if temperature <= 0.0:
            raise ConfigError(f"temperature must be > 0, got {temperature}")
        dims(horizon, n_alternatives)  # validates horizon/alternative counts
        cov = np.asarray(noise_cov, dtype=float)
        if cov.ndim == 0:
            cov = float(cov) * np.eye(n_u)
        if cov.shape != (n_u, n_u):
            raise ConfigError(f"noise_cov must be scalar or {n_u}x{n_u}, got {cov.shape}")
        if not np.allclose(cov, cov.T):
            raise ConfigError("noise_cov must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ConfigError("noise_cov must be positive definite") from None
        cov.flags.writeable = False
        chol.flags.writeable = False
        return cls(
            n_samples,
            horizon,
            n_alternatives,
            cov,
            chol,
            temperature,
            seed,
            control_cost,
        )

    @property
    def n_u(self) -> int:
        return self.noise_cov.shape[0]

    def with_seed(self, seed: int) -> "ControllerParams":
        return replace(self, seed=int(seed))


@dataclass
class ControllerState:
    """Carried between steps: last plan, last weights, substream counter."""

    inputs: MultiHorizonInput
    alpha: np.ndarray
    step_index: int = 0


@dataclass
class StepDiagnostics:
    """Per-step telemetry: applied/desired weights, sample-cost statistics,
    the noise-free plan cost estimates the weight update used, wall time,
    and instrumentation counters of the work actually performed."""

    alpha: np.ndarray
    alpha_desired: np.ndarray
    cost_mean: float
    cost_std: float
    seconds: float
    plan_costs: np.ndarray
    tail_costs: np.ndarray
    n_rollouts: int
    n_sim_steps: int


def stream_key(seed: int, step_index: int) -> np.ndarray:
    """128-bit noise stream key for one control step."""
    return np.random.SeedSequence((int(seed), int(step_index))).generate_state(2, np.uint64)


def draw_noise(key: np.ndarray, q: int, count: int, chol: np.ndarray) -> np.ndarray:
    """(count, n_u) noise rows from sample q's counter-block substream.

    Reference form of the convention: stream q is
    ``Philox(key, counter=q * 2**192)``.  :class:`NoiseStream` produces the
    same values while reusing one bit generator.
    """
    gen = np.random.Generator(np.random.Philox(key=key, counter=q << 192))
    out = gen.standard_normal((count, chol.shape[0]))
    return out if _is_identity(chol) else out @ chol.T


def _is_identity(chol: np.ndarray) -> bool:
    return bool(np.array_equal(chol, np.eye(chol.shape[0])))


class NoiseStream:
    """One step's noise source; ``rows(q, count)`` equals
    :func:`draw_noise` for the same key, sample index, and covariance."""

    def __init__(self, seed: int, step_index: int, chol: np.ndarray):
        self.key = stream_key(seed, step_index)
        self._bits = np.random.Philox(key=self.key)
        self._gen = np.random.Generator(self._bits)
        self._chol = chol
        self._plain = _is_identity(chol)
        self._template = self._bits.state  # reused dict; only the counter varies

    def rows(self, q: int, count: int) -> np.ndarray:
        state = self._template
        state["state"]["counter"][3] = q  # block offset q * 2**192
        state["buffer_pos"] = 4
        self._bits.state = state
        out = self._gen.standard_normal((count, self._chol.shape[0]))
        return out if self._plain else out @ self._chol.T


def sample_noise(params: ControllerParams, step_index: int) -> np.ndarray:
    """The (K, n_inputs, n_u) noise batch for one step; layout matches
    the flat plan storage, so row d perturbs flat input d."""
    n_inputs, _ = dims(params.horizon, params.n_alternatives)
    stream = NoiseStream(params.seed, step_index, params.noise_chol)
    out = np.empty((params.n_samples, n_inputs, params.n_u))
    for q in range(params.n_samples):
        out[q] = stream.rows(q, n_inputs)
    return out


def softmax_weights(costs: np.ndarray, temperature: float) -> np.ndarray:
    """Gibbs sample weights with min-cost shift; sums to 1."""
    costs = np.asarray(costs, dtype=float)
    z = np.exp(-(costs - costs.min()) / temperature)
    return z / z.sum()


def mppi_update(
    inputs: MultiHorizonInput, noise: np.ndarray, weights: np.ndarray
) -> MultiHorizonInput:
    """Plan plus the weighted noise average, accumulated in sample order."""
    delta = np.einsum("q,qdc->dc", weights, noise, optimize=False)
    return inputs.with_flat(inputs.flat + delta)


def rollout_primary_batch(
    model: DynamicsModel, x0: np.ndarray, inputs: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Simulate (K, N, n_u) input batches from one state; returns (K, N+1, n_x)."""
    n_batch, horizon = inputs.shape[0], inputs.shape[1]
    states = np.empty((n_batch, horizon + 1, model.n_x))
    states[:, 0] = x0
    for k in range(horizon):
        states[:, k + 1] = model.update(states[:, k], scale * inputs[:, k])
    return states


def evaluate_plan_batch(
    model: DynamicsModel,
    x0: np.ndarray,
    flat_batch: np.ndarray,
    horizon: int,
    missions: MissionSet,
    obstacles: ObstacleSet,
    return_tail_costs: bool = False,
) -> tuple:
    """Mission cost vectors of a batch of flat plans.

    ``flat_batch``: (K, n_inputs, n_u) in the flat plan layout for
    ``horizon``.  Returns ``(costs, tail_costs, n_rollouts, n_sim_steps)``:
    the (K, m+1) cost matrix, the matching final-stage-plus-terminal matrix
    (None unless requested), and counters of the plans simulated and single
    dynamics steps evaluated.  Branch prefixes reuse the primary rollout;
    only tails are simulated.
    """
    n_batch = flat_batch.shape[0]
    m = missions.n_alternatives
    if flat_batch.shape[1] != dims(horizon, m)[0]:
        raise ValueError(
            f"flat batch has {flat_batch.shape[1]} input rows, expected "
            f"{dims(horizon, m)[0]} for horizon {horizon} with {m} alternatives"
        )
    scales = np.stack([model.mode_scale(mission.mode) for mission in missions.missions])

    primary_inputs = flat_batch[:, :horizon]
    states = rollout_primary_batch(model, x0, primary_inputs, scales[0])
    n_sim_steps = n_batch * horizon
    n_rollouts = n_batch

    costs = np.empty((n_batch, m + 1))
    costs[:, 0] = cost_mod.mission_cost(missions[0], states, primary_inputs, obstacles)
    tail_costs = None
    if return_tail_costs:
        tail_costs = np.empty((n_batch, m + 1))
        tail_costs[:, 0] = cost_mod.stage_cost_terms(
            missions[0], states[:, -1], primary_inputs[:, -1], obstacles
        ) + cost_mod.terminal_cost_terms(missions[0], states[:, -1])
    if m == 0:
        return costs, tail_costs, n_rollouts, n_sim_steps

    # Prefix sums of each backup mission's stage terms along the primary.
    prefix = np.empty((m, n_batch, horizon))
    for i in range(1, m + 1):
        terms = cost_mod.stage_cost_terms(
            missions[i], states[:, 1:], primary_inputs, obstacles
        )
        np.cumsum(terms, axis=1, out=prefix[i - 1])

    branch_sum = np.zeros((n_batch, m))
    tail_sum = np.zeros((n_batch, m)) if return_tail_costs else None
    alt_scale = scales[1:]  # (m, n_u)
    for p in range(horizon - 1):
        rows = _tail_rows(horizon, m)[p]
        tails_u = flat_batch[:, rows]  # (K, m, L, n_u)
        scaled_u = alt_scale[:, None] * tails_u
        length = tails_u.shape[2]
        tail_states = np.empty((n_batch, m, length, model.n_x))
        x = np.broadcast_to(states[:, p + 1][:, None], (n_batch, m, model.n_x))
        for s in range(length):
            x = model.update(x, scaled_u[:, :, s])
            tail_states[:, :, s] = x
        n_sim_steps += n_batch * m * length
        n_rollouts += n_batch * m
        for i in range(1, m + 1):
            terms = cost_mod.stage_cost_terms(
                missions[i], tail_states[:, i - 1], tails_u[:, i - 1], obstacles
            )
            terminal = cost_mod.terminal_cost_terms(missions[i], tail_states[:, i - 1, -1])
            branch_sum[:, i - 1] += prefix[i - 1][:, p] + terms.sum(axis=-1) + terminal
            if return_tail_costs:
                tail_sum[:, i - 1] += terms[..., -1] + terminal
    costs[:, 1:] = branch_sum / (horizon - 1)
    if return_tail_costs:
        tail_costs[:, 1:] = tail_sum / (horizon - 1)
    return costs, tail_costs, n_rollouts, n_sim_steps


_TAIL_ROWS_CACHE: dict = {}


def _tail_rows(horizon: int, m: int) -> list:
    """Per branch step p, the (m, N-1-p) flat row indices of all tails."""
    cached = _TAIL_ROWS_CACHE.get((horizon, m))
    if cached is None:
        cached = [
            np.stack(
                [
                    np.arange(tail_slice(horizon, i, p).start, tail_slice(horizon, i, p).stop)
                    for i in range(1, m + 1)
                ]
            )
            for p in range(horizon - 1)
        ]
        _TAIL_ROWS_CACHE[(horizon, m)] = cached
    return cached


def init_state(
    x0: np.ndarray,
    params: ControllerParams,
    missions: MissionSet,
    weight_law: WeightLawParams,
) -> ControllerState:
    """Zero initial plan; weights start at the desired vector for x0."""
    inputs = MultiHorizonInput.zeros(params.horizon, params.n_alternatives, params.n_u)
    alpha = desired_weights(np.asarray(x0, dtype=float), missions, weight_law)
    return ControllerState(inputs, alpha, 0)


def control_step(
    x: np.ndarray,
    state: ControllerState,
    model: DynamicsModel,
    missions: MissionSet,
    obstacles: ObstacleSet,
    params: ControllerParams,
    weight_law: WeightLawParams,
) -> tuple[np.ndarray, ControllerState, StepDiagnostics]:
    """One full receding-horizon step; see the module docstring."""
    t_start = time.perf_counter()
    x = np.asarray(x, dtype=float)

    alpha_desired = desired_weights(x, missions, weight_law)

    shifted = state.inputs.shift()
    noise = sample_noise(params, state.step_index)
    # row 0: the noise-free shifted plan (for the weight update); rows 1..K:
    # the noise-perturbed samples.  Row results are independent of batch
    # composition, so this changes no values, only the call count.
    flat_all = np.concatenate([shifted.flat[None], shifted.flat[None] + noise])
    costs_all, tails_all, n_rollouts, n_sim_steps = evaluate_plan_batch(
        model, x, flat_all, params.horizon, missions, obstacles,
        return_tail_costs=True,
    )
    plan_costs, tail_costs = costs_all[0], tails_all[0]
    alpha = update_weights(state.alpha, alpha_desired, plan_costs, tail_costs)

    # diagnostics count the sampling stage only, not the noise-free row
    per_plan = n_rollouts // (params.n_samples + 1)
    per_steps = n_sim_steps // (params.n_samples + 1)
    n_rollouts = per_plan * params.n_samples
    n_sim_steps = per_steps * params.n_samples
    sample_costs = costs_all[1:] @ alpha
    if params.control_cost:
        sample_costs = sample_costs + params.temperature * np.einsum(
            "qdc,dc->q",
            noise,
            np.linalg.solve(params.noise_cov, shifted.flat.T).T,
            optimize=False,
        )

    weights = softmax_weights(sample_costs, params.temperature)
    new_inputs = mppi_update(shifted, noise, weights)
    u_exec = new_inputs.primary[0].copy()

    diag = StepDiagnostics(
        alpha=alpha,
        alpha_desired=alpha_desired,
        cost_mean=float(sample_costs.mean()),
        cost_std=float(sample_costs.std()),
        seconds=time.perf_counter() - t_start,
        plan_costs=plan_costs,
        tail_costs=tail_costs,
        n_rollouts=n_rollouts,
        n_sim_steps=n_sim_steps,
    )
    return u_exec, ControllerState(new_inputs, alpha, state.step_index + 1), diag
