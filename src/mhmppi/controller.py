"""Sampling-based receding-horizon controller over the multi-horizon plan.

One control step, given the measured state:

1. compute the desired mission weights from the current distances;
2. shift last step's plan (drop the executed input, pad with zeros);
3. take the shifted plan's noise-free cost and tail-cost vectors (row 0
   of the batch evaluated in step 5), and project the desired weights
   onto the descent constraint they define;
4. sample K noise perturbations of the whole flat plan;
5. simulate every perturbed plan and evaluate its m+1 mission costs: the
   primary rollout once, then every branch tail in one pass over time,
   each branch starting from the primary state where it splits off;
6. scalarize with the projected weights;
7. update the plan with the softmax-weighted average of the noise, and
   execute the first primary input of the result.

Batch layout
------------
The sampled plans are one component-major, sample-last array
``(n_u, n_inputs, K)``: ``[c, d, q]`` is component c of flat input d of
sample q, and the batch evaluated in step 5 holds K+1 samples, sample 0
being the noise-free shifted plan.  Every batched state is ``(n_x, ...,
K)``.  So each dynamics and cost term is an element-wise operation on
contiguous K-wide slabs, one per component.

Noise reproducibility contract
------------------------------
The noise of step t is drawn one K-wide slab at a time.  Slab (d, c),
component c of flat row d, is the dedicated counter-block stream
``Philox(key=stream_key(seed, t), counter=(d * n_u + c) * 2**192)``, and
its first K standard normals are ``z[c, d, :]``.  Row d of the batch is
``chol @ z[:, d, :]``, left as z when the Cholesky factor ``chol`` is the
identity.  Three guarantees follow.  The primary rows d < N draw the same
slabs for every m, so the m=0 step gets bit-identical primary noise (the
gamma=0 equivalence below).  A slab's first K draws do not depend on K,
so sample q's noise is the same in every batch wider than q.  And a batch
depends only on (seed, t, chol, shape), and the weighted reduction over
samples runs in a fixed order, so whole runs are bit-reproducible.
A sample whose cost is not finite gets weight 0; a step on which no
sample cost is finite, or whose noise-free plan has a non-finite cost or
tail cost, raises :class:`~mhmppi.errors.NonFiniteCostError` with the
step index.

Noise prefetch
--------------
Step t+1's noise batch depends only on its key (seed, t+1, Cholesky
factor, batch shape), not on the state.  So :func:`sample_noise` shares
the drawing with one worker process (:mod:`mhmppi.prefetch`, started on
the first step).  Once step t has its batch, the worker is sent step
t+1's key and draws that batch's flat rows upward from row 0 while this
process evaluates step t.  When step t+1 asks for its batch, this process
draws its rows downward from the last until it meets the rows the worker
has drawn, and copies those into a private array.  It never waits for
the worker, so a step whose worker is slow or starved of CPU costs what
an inline draw costs.  A batch whose key does not match the worker's
last job (a new seed, or the m=2 to m=0 change at an abort) is sent to
the worker first, which stops the stale job, and then shared the same
way.  The noise is drawn inline, with no worker, when the process may
use fewer than two CPUs, when it is a multiprocessing child (``cli
--workers N`` already keeps N processes busy), outside Linux or x86-64,
and from the step on which the worker cannot start or is found dead.
Both processes run the same :func:`_fill_noise` loop, and row d's values
depend only on the key and d, so the reproducibility contract above is
unchanged: every batch is bit-identical whichever process drew which of
its rows, and there is nothing to configure.

Plain MPPI is the m=0 case
--------------------------
With no backup missions the flat plan is the primary horizon and the
projected weight is exactly ``[1.0]``, so the step is plain single-horizon
MPPI.  The closed-loop harness runs the post-abort phase this way with the
same :class:`ControllerParams`: m is the mission set's and the plan's.  With
the backup-weight gamma at zero the weights stay ``[1, 0, ..., 0]``, and a
step over m backup missions executes bit-identical inputs to the m=0 step
on the primary mission alone.  That equivalence does not hold with
``control_cost=True``: the penalty spans every flat row, backup tails
included, so the two diverge as soon as the shifted plan is nonzero.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from . import cost as cost_mod
from .cost import MissionSet, ObstacleSet
from .dynamics import DynamicsModel
from .errors import ConfigError, NonFiniteCostError, check_int, check_real, real_array
from .multi_horizon import MultiHorizonInput, branch_rows, dims
from .weights import WeightLawParams, desired_weights, update_weights


@dataclass(frozen=True)
class ControllerParams:
    """The sampling choices; the number m of backup missions is the
    mission set's.  Every construction (direct, :meth:`build` or
    :func:`dataclasses.replace`) is validated here and raises
    :class:`ConfigError`.  ``noise_cov`` is a read-only copy of the
    caller's array, and ``noise_chol`` its read-only Cholesky factor."""

    n_samples: int
    horizon: int
    noise_cov: np.ndarray  # (n_u, n_u) symmetric positive definite
    temperature: float = 0.5
    seed: int = 0
    # Adds the noise-alignment penalty over every flat row to the sample
    # costs; with it on, gamma=0 no longer reduces the step to the m=0 case.
    control_cost: bool = False
    noise_chol: np.ndarray = field(init=False)

    def __post_init__(self):
        check_int("n_samples", self.n_samples, 1)
        check_int("horizon", self.horizon, 2)
        check_real("temperature", self.temperature, above=0.0)
        check_int("seed", self.seed, 0)
        if not isinstance(self.control_cost, bool):
            raise ConfigError(f"control_cost must be true or false, got {self.control_cost!r}")
        cov = real_array("noise_cov", self.noise_cov)
        if cov.ndim != 2 or cov.shape != cov.T.shape or not np.allclose(cov, cov.T):
            raise ConfigError(f"noise_cov must be a symmetric matrix, got {cov.tolist()}")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ConfigError("noise_cov must be positive definite") from None
        chol.flags.writeable = False
        object.__setattr__(self, "noise_cov", cov)
        object.__setattr__(self, "noise_chol", chol)

    @classmethod
    def build(
        cls, n_samples: int = 1000, horizon: int = 10, *, n_u: int, noise_cov=1.0, **choices
    ) -> "ControllerParams":
        """As the constructor, with the other fields' defaults; a scalar
        ``noise_cov`` scales the n_u x n_u identity."""
        cov = real_array("noise_cov", noise_cov)
        if cov.ndim == 0:
            cov = cov * np.eye(n_u)
        if cov.shape != (n_u, n_u):
            raise ConfigError(f"noise_cov must be scalar or {n_u}x{n_u}, got {cov.shape}")
        return cls(n_samples, horizon, cov, **choices)

    @property
    def n_u(self) -> int:
        return self.noise_cov.shape[0]


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
    and the spread of the sample weights: the Kish effective sample size
    ``1 / sum(w**2)`` (K for uniform weights, 1 for one-hot) and the
    largest weight.

    The per-layer seconds split the step: ``noise_s`` takes the noise
    batch (the copy of the flat rows the worker drew ahead, and the
    drawing of the other rows, one K-wide slab per row and component; the
    whole draw when nothing was drawn ahead), ``eval_s`` builds
    and evaluates the plan batch, ``project_s`` projects the mission
    weights, and ``update_s`` scalarizes the sample costs and updates the
    plan."""

    alpha: np.ndarray
    alpha_desired: np.ndarray
    cost_mean: float
    cost_std: float
    seconds: float
    plan_costs: np.ndarray
    tail_costs: np.ndarray
    ess: float
    max_weight: float
    noise_s: float
    eval_s: float
    project_s: float
    update_s: float


def stream_key(seed: int, step_index: int) -> np.ndarray:
    """128-bit noise stream key for one control step; ``seed`` >= 0."""
    return np.random.SeedSequence((int(seed), int(step_index))).generate_state(2, np.uint64)


def _is_identity(chol: np.ndarray) -> bool:
    return bool(np.array_equal(chol, np.eye(chol.shape[0])))


class NoiseStream:
    """One step's standard normal source.  ``slab(s, out)`` fills the
    contiguous float64 array ``out`` with the first ``out.size`` draws of
    ``Philox(key=stream_key(seed, step_index), counter=s * 2**192)``.  One
    bit generator serves every slab; only its counter is reset between
    slabs."""

    def __init__(self, seed: int, step_index: int):
        self.key = stream_key(seed, step_index)
        self._bits = np.random.Philox(key=self.key)
        self._gen = np.random.Generator(self._bits)
        self._template = self._bits.state  # reused dict; only the counter varies

    def slab(self, s: int, out: np.ndarray) -> None:
        state = self._template
        state["state"]["counter"][3] = s  # block offset s * 2**192
        state["buffer_pos"] = 4
        self._bits.state = state
        self._gen.standard_normal(out=out)


def _fill_noise(
    out: np.ndarray, seed: int, step_index: int, chol: np.ndarray, rows: Iterable[int]
) -> None:
    """Write flat rows ``rows`` of step ``step_index``'s (n_u, n_inputs, K)
    noise batch into the same rows of ``out``, each row's slabs whole."""
    stream = NoiseStream(seed, step_index)
    n_u = out.shape[0]
    plain = _is_identity(chol)
    for d in rows:
        for c in range(n_u):
            stream.slab(d * n_u + c, out[c, d])
        if not plain:
            # chol @ z as element-wise products summed over the columns of
            # chol in order: a matmul may fuse the multiply-adds, and how it
            # does may depend on K
            out[:, d] = (chol[:, :, None] * out[None, :, d]).sum(axis=1)


def sample_noise(params: ControllerParams, step_index: int, n_inputs: int) -> np.ndarray:
    """The (n_u, n_inputs, K) noise batch for one step of a plan of
    ``n_inputs`` flat rows: ``[c, d, q]`` is component c of sample q's
    perturbation of flat input d.  The array is the caller's own; part
    of it may have been drawn by a worker."""
    # imported on the first step, not with the package: the multiprocessing
    # and subprocess modules it needs add about 6% to the import time
    from .prefetch import process_prefetch

    out = np.empty((params.n_u, n_inputs, params.n_samples))
    prefetch = process_prefetch()
    if prefetch is None:
        _fill_noise(out, params.seed, step_index, params.noise_chol, range(n_inputs))
    else:
        prefetch.fill(out, params.seed, step_index, params.noise_chol)
    return out


def softmax_weights(costs: np.ndarray, temperature: float) -> np.ndarray:
    """Gibbs sample weights with min-cost shift; sums to 1.

    A non-finite cost gets weight 0; on finite costs the weights are those
    of the plain formula, bit for bit.  Raises
    :class:`NonFiniteCostError` when no cost is finite.
    """
    costs = np.asarray(costs, dtype=float)
    finite = np.isfinite(costs)
    if not finite.any():
        raise NonFiniteCostError(f"all {costs.size} sample costs are non-finite")
    shifted = np.where(finite, costs - costs[finite].min(), np.inf)
    z = np.exp(-shifted / temperature)
    return z / z.sum()


def mppi_update(
    inputs: MultiHorizonInput, noise: np.ndarray, weights: np.ndarray
) -> MultiHorizonInput:
    """Plan plus the weighted noise average; ``noise`` is (n_u, n_inputs, K)
    and each entry's sum over the samples runs in a fixed order."""
    delta = np.einsum("cdq,q->dc", noise, weights, optimize=False)
    return inputs.with_flat(inputs.flat + delta)


def rollout_primary_batch(
    model: DynamicsModel, x0: np.ndarray, inputs: np.ndarray, scale: np.ndarray
) -> np.ndarray:
    """Simulate (n_u, N, K) input batches from one state; returns (n_x, N+1, K)."""
    horizon, n_batch = inputs.shape[1], inputs.shape[2]
    scale = scale[:, None]
    states = np.empty((model.n_x, horizon + 1, n_batch))
    states[:, 0] = x0[:, None]
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
) -> tuple[np.ndarray, np.ndarray]:
    """Mission cost and tail-cost matrices of a batch of flat plans.

    ``flat_batch``: (n_u, n_inputs, K), component first and sample last;
    ``flat_batch[:, :, q].T`` is plan q in the flat plan layout for
    ``horizon``.  Every state and cost term is computed on contiguous
    K-wide slabs, states as (n_x, ..., K).  Returns ``(costs, tail_costs)``,
    two (K, m+1) matrices whose rows are each plan's mission costs and
    tail costs (final stage plus terminal term, branch-averaged).
    ``tests/oracle.py`` computes both one plan at a time, as the reference.

    Branch (i, p) shares primary stages 1..p+1, so primary stage k < N
    lies on the N-k branches p >= k-1 and enters mission i's sum with that
    weight.  The tails run in one pass over time t = 1..N-1: branch p
    splits off after input p, so at time t the branches p < t are running,
    and one ``model.update`` advances all of them, held as one
    (n_x, m, N-1, K) state array.  Time N-1 is the final stage of every
    branch, which gives the tail costs.
    """
    n_batch = flat_batch.shape[2]
    m = missions.n_alternatives
    n_inputs = dims(horizon, m)[0]
    if flat_batch.shape[1] != n_inputs:
        raise ValueError(
            f"flat batch has {flat_batch.shape[1]} input rows, expected "
            f"{n_inputs} for horizon {horizon} with {m} alternatives"
        )
    scales = np.stack([model.mode_scale(mode) for mode in missions.modes])
    primary_inputs = flat_batch[:, :horizon]
    states = rollout_primary_batch(model, x0, primary_inputs, scales[0])
    costs = np.empty((n_batch, m + 1))
    tail_costs = np.empty((n_batch, m + 1))
    stage = cost_mod.stage_cost_terms(missions[0], states[:, 1:], primary_inputs, obstacles)
    terminal = cost_mod.terminal_cost_terms(missions[0], states[:, -1])
    costs[:, 0] = stage.sum(axis=0) + terminal
    tail_costs[:, 0] = stage[-1] + terminal
    if m == 0:
        return costs, tail_costs

    backups = list(enumerate(missions.missions[1:]))
    shared = np.arange(horizon - 1, 0, -1.0)  # branches through primary stage k = 1..N-1
    branch_sum = np.empty((m, n_batch))
    for j, mission in backups:
        terms = cost_mod.stage_cost_terms(
            mission, states[:, 1:-1], primary_inputs[:, :-1], obstacles
        )
        branch_sum[j] = shared @ terms

    rows = branch_rows(horizon, m).transpose(0, 2, 1)  # [t, i-1, p]
    tail_scales = scales[1:].T[:, :, None, None]  # (n_u, m, 1, 1)
    x = np.empty((model.n_x, m, horizon - 1, n_batch))  # x[:, j, p]: branch (j+1, p)
    stage = np.empty((m, n_batch))
    for t in range(1, horizon):
        x[:, :, t - 1] = states[:, t, None]
        u = flat_batch[:, rows[t, :, :t]]  # (n_u, m, t, K): input t of the running branches
        x[:, :, :t] = model.update(x[:, :, :t], tail_scales * u)
        for j, mission in backups:
            terms = cost_mod.stage_cost_terms(mission, x[:, j, :t], u[:, j], obstacles)
            stage[j] = terms.sum(axis=0)
        branch_sum += stage
    for j, mission in backups:
        terminal = cost_mod.terminal_cost_terms(mission, x[:, j]).sum(axis=0)
        costs[:, j + 1] = (branch_sum[j] + terminal) / (horizon - 1)
        tail_costs[:, j + 1] = (stage[j] + terminal) / (horizon - 1)
    return costs, tail_costs


def init_state(
    x0: np.ndarray,
    params: ControllerParams,
    missions: MissionSet,
    weight_law: WeightLawParams,
) -> ControllerState:
    """Zero initial plan over the backups of ``missions``; weights start
    at the desired vector for x0."""
    inputs = MultiHorizonInput.zeros(params.horizon, missions.n_alternatives, params.n_u)
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
    """One full receding-horizon step; see the module docstring.  m is read
    from ``missions``, and a plan in ``state`` of another m or horizon
    raises ValueError.  ``params`` was validated when it was made."""
    t_start = time.perf_counter()
    x = np.asarray(x, dtype=float)

    alpha_desired = desired_weights(x, missions, weight_law)

    shifted = state.inputs.shift()
    plan = shifted.flat.T[:, :, None]  # (n_u, n_inputs, 1)
    t_noise = time.perf_counter()
    noise = sample_noise(params, state.step_index, shifted.flat.shape[0])
    t_eval = time.perf_counter()
    # sample 0: the noise-free shifted plan (for the weight update); samples
    # 1..K: the noise-perturbed plans.  Sample results are independent of
    # batch composition, so this changes no values, only the call count.
    flat_all = np.empty(noise.shape[:2] + (noise.shape[2] + 1,))
    flat_all[:, :, :1] = plan
    np.add(plan, noise, out=flat_all[:, :, 1:])
    costs_all, tails_all = evaluate_plan_batch(
        model, x, flat_all, params.horizon, missions, obstacles
    )
    plan_costs, tail_costs = costs_all[0], tails_all[0]
    if not (np.isfinite(plan_costs).all() and np.isfinite(tail_costs).all()):
        raise NonFiniteCostError(
            f"noise-free plan costs {plan_costs.tolist()} and tail costs "
            f"{tail_costs.tolist()} must be finite",
            step=state.step_index,
        )
    t_project = time.perf_counter()
    alpha = update_weights(state.alpha, alpha_desired, plan_costs, tail_costs)
    t_update = time.perf_counter()

    sample_costs = costs_all[1:] @ alpha
    if params.control_cost:
        sample_costs = sample_costs + params.temperature * np.einsum(
            "cdq,cd->q",
            noise,
            np.linalg.solve(params.noise_cov, shifted.flat.T),
            optimize=False,
        )

    try:
        weights = softmax_weights(sample_costs, params.temperature)
    except NonFiniteCostError as exc:
        raise NonFiniteCostError(str(exc), step=state.step_index) from None
    new_inputs = mppi_update(shifted, noise, weights)
    u_exec = new_inputs.primary[0].copy()
    t_end = time.perf_counter()

    diag = StepDiagnostics(
        alpha=alpha,
        alpha_desired=alpha_desired,
        cost_mean=float(sample_costs.mean()),
        cost_std=float(sample_costs.std()),
        seconds=t_end - t_start,
        plan_costs=plan_costs,
        tail_costs=tail_costs,
        ess=1.0 / float(weights @ weights),
        max_weight=float(weights.max()),
        noise_s=t_eval - t_noise,
        eval_s=t_project - t_eval,
        project_s=t_update - t_project,
        update_s=t_end - t_update,
    )
    return u_exec, ControllerState(new_inputs, alpha, state.step_index + 1), diag
