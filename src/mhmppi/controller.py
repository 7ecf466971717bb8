"""Sampling-based receding-horizon controller over the multi-horizon plan.

One control step, given the measured state:

1. compute the desired mission weights from the current distances;
2. shift last step's plan (drop the executed input, pad with zeros);
3. take the shifted plan's noise-free cost and tail-cost vectors (row 0
   of the batch evaluated in step 5), and project the desired weights
   onto the descent constraint they define;
4. sample K noise perturbations of the whole flat plan, and add the
   shifted plan to them;
5. simulate every perturbed plan and evaluate its m+1 mission costs: the
   primary rollout once, then every branch tail in one pass over time,
   each branch starting from the primary state where it splits off;
6. scalarize with the projected weights;
7. replace the plan by the softmax-weighted mean of the perturbed plans,
   and execute the first primary input of the result.

Batch layout
------------
The plans of a step are one component-major, sample-last float32 array
``(n_u, n_inputs, K+1)``, the step's only sample array: ``[c, d, q]`` is
component c of flat input d of plan q.  Sample 0 is the noise-free
shifted plan, rounded to float32; the noise of step 4 is drawn straight
into samples 1..K, and sample 0 is then added to it in place.  Every
batched state is ``(n_x, ..., K+1)``.  So each dynamics and cost term is
an element-wise operation on contiguous K-wide slabs, one per component.
The flat rows follow :mod:`mhmppi.multi_horizon`'s layout, in which the
inputs of the branch tails running at one time are one block of rows, so
step 5 reads every input where it lies in the batch.

float32 and float64
-------------------
Evaluating the batch is element-wise work over memory-bound slabs, most
of a multi-horizon step, and float32 halves its bytes; the car's
``cos``, ``sin`` and ``tan`` are many times faster in float32 than in
float64.  So the batch, its rollouts, the branch tails and the cost terms
are float32 (:func:`evaluate_plan_batch`).  What is summed or decided
stays float64: each sample's cost, summed from its float32 terms, and
the cost matrices; the weight projection, the softmax and the update,
which accumulates the weighted mean of the float32 plans in float64 in a
fixed sample order; the stored plan and the executed input; and the plant
(:func:`~mhmppi.dynamics.step`).  So the plan a step stores is a float64
average of float32 plans, and the controller evaluates a plan up to
float32 rounding: the cost of a state within float32 rounding of a box
face may count the box or not.

Noise
-----
:func:`sample_noise` takes each step's noise batch from
:mod:`mhmppi.noise`, whose substream contract fixes every batch by (seed,
step, noise scale, shape, dtype) alone, whichever process draws it:
each flat row's normals come from the raw words of its own Philox
substream, by a float32 Box-Muller transform made in whole-array passes
over chunks of rows.  The covariance Σ is diagonal, so component c of
the noise is its normal times the scale s_c = √Σ_cc, one float64 product
rounded once.  The step draws the batch as float32, into its plan
batch, so with unit scales (Σ = I) the normals are written as computed.
The weighted mean of the perturbed plans in :func:`mppi_update` sums over
the samples in a fixed order, so whole runs are bit-reproducible on one
machine with one numpy build.  They are not across AVX2 and AVX-512
machines: the noise batches agree there (:mod:`mhmppi.noise`), but
numpy's float64 ``exp`` in the softmax and its float32 ``tan`` in the
car's rollouts give other bits under its AVX-512 code paths than under
its AVX2 ones.

A sample whose cost is not finite gets weight 0, and the floating-point
overflow that makes such a cost raises no warning; a step on which no
sample cost is finite, or whose noise-free plan has a non-finite cost or
tail cost, raises :class:`~mhmppi.errors.NonFiniteCostError` with the
step index.  float32's range ends near 3.4e38, so a plan entry, state,
target, mode scale or noise value beyond it rounds to inf in the batch,
silently too, and takes the same path; so does a cost term whose float32
value overflows, as the square of an entry beyond about 1.8e19 does.  A
sample of weight 0 still enters the weighted mean, where an inf entry
gives 0 * inf = NaN.  So when the updated plan is not finite, the step
zeroes the non-finite entries of its weight-0 samples and updates once
more; a finite update runs neither.  A plan that is still not finite,
whose weighted mean overflows or reads a non-finite entry of a sample of
positive weight, raises the same error before the step hands out an
input.

Step buffers
------------
A step allocates none of its slab arrays, those with a K-wide slab per
component, state, input or time, after the first step of its shape.  The
plan batch, the primary rollout and its box charge, the branch-tail states
and the tail loop's box charges and stage costs, and the temporaries of the
dynamics and cost kernels, are per-thread
:mod:`mhmppi.buffers` scratch: made on first use (never in
:func:`init_state`), and reused by every later step of the same or a
smaller shape.  Fresh slab arrays would cost more than their allocation:
they run to megabytes, and the allocator hands such memory back to the
system when it is freed, so a step that allocates them pays a page fault
on every page it writes.  The per-sample cost vectors, each K or K+1
long, are fresh: about a dozen per call of :func:`evaluate_plan_batch`
(terminal costs, their float64 sums with the stage costs, the branch sums
and the cost quotients) and a few more in the update.  Every buffer is
written before it is read, so the values of a step do not depend on what
an earlier step left there, and nothing a caller keeps points into them:
the cost matrices :func:`evaluate_plan_batch` returns, the noise-free
costs that :class:`StepDiagnostics` keeps (copied out of those matrices,
so that a kept step holds m+1 costs each, not K+1), the new plan and the
executed input are arrays of their own.

Plain MPPI is the m=0 case
--------------------------
With no backup missions the flat plan is the primary horizon and the
projected weight is exactly ``[1.0]``, so the step is plain single-horizon
MPPI.  The closed-loop harness runs the post-abort phase this way with the
same :class:`ControllerParams`: the step takes the missions as a tuple,
primary first, so m is ``len(missions) - 1``, and the plan's m must match.
With the backup-weight gamma at zero the weights stay ``[1, 0, ..., 0]``,
and a step over m backup missions executes bit-identical inputs to the m=0
step on the primary mission alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import cost as cost_mod
from .buffers import buffer
from .cost import POSITION_DIMS, Mission, ObstacleSet
from .dynamics import DynamicsModel
from .errors import NonFiniteCostError, check_int, check_real, diagonal_matrix
from .multi_horizon import MultiHorizonInput, branch_rows, dims
from .weights import WeightLawParams, desired_weights, softmax_weights, update_weights


@dataclass(frozen=True)
class ControllerParams:
    """The sampling choices; the number m of backup missions is read from
    the missions tuple each step is given.  Every construction (direct,
    :meth:`build` or :func:`dataclasses.replace`) is validated here and
    raises :class:`ConfigError`.  ``noise_cov`` is a read-only copy of the
    caller's array, a diagonal Σ, and ``noise_scale`` the read-only
    (n_u,) vector √diag Σ of the noise components' standard deviations."""

    n_samples: int
    horizon: int
    noise_cov: np.ndarray  # (n_u, n_u) diagonal, entries > 0
    temperature: float = 0.5
    seed: int = 0
    noise_scale: np.ndarray = field(init=False)

    def __post_init__(self):
        check_int("n_samples", self.n_samples, 1)
        check_int("horizon", self.horizon, 2)
        check_real("temperature", self.temperature, above=0.0)
        check_int("seed", self.seed, 0)
        cov = diagonal_matrix("noise_cov", self.noise_cov, positive=True)
        scale = np.sqrt(np.diag(cov))
        scale.flags.writeable = False
        object.__setattr__(self, "noise_cov", cov)
        object.__setattr__(self, "noise_scale", scale)

    @classmethod
    def build(
        cls, n_samples: int = 1000, horizon: int = 10, *, n_u: int, noise_cov=1.0, **choices
    ) -> "ControllerParams":
        """As the constructor, with the other fields' defaults; a scalar
        ``noise_cov`` scales the n_u x n_u identity."""
        return cls(n_samples, horizon, diagonal_matrix("noise_cov", noise_cov, n_u), **choices)

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
    batch (the copy of the flat rows the worker finished ahead, the
    sending of the next step's job, and the drawing of the remaining rows
    in chunks of rows; the whole draw when the worker drew none of this
    batch), ``eval_s`` builds and evaluates the plan batch, ``project_s``
    projects the mission weights, and ``update_s`` scalarizes the sample
    costs and updates the plan."""

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


def sample_noise(
    params: ControllerParams, step_index: int, n_inputs: int, out: np.ndarray | None = None
) -> np.ndarray:
    """The (n_u, n_inputs, K) noise batch for one step of a plan of
    ``n_inputs`` flat rows: ``[c, d, q]`` is component c of sample q's
    perturbation of flat input d.  It is written into and returned as
    ``out``, an array or view of that shape, in ``out``'s dtype
    (:func:`control_step` passes its float32 plan batch's sample columns);
    by default a new float64 array, the caller's own.  Part of it may have
    been drawn by a worker process (:mod:`mhmppi.noise`)."""
    # imported on the first step, not with the package: the multiprocessing
    # and subprocess modules it needs add about 6% to the import time
    from .noise import process_prefetch

    if out is None:
        out = np.empty((params.n_u, n_inputs, params.n_samples))
    process_prefetch().fill(out, params.seed, step_index, params.noise_scale)
    return out


def mppi_update(
    inputs: MultiHorizonInput, plans: np.ndarray, weights: np.ndarray
) -> MultiHorizonInput:
    """The weighted mean of the perturbed plans ``plans``, (n_u, n_inputs,
    K), as a plan of ``inputs``' structure.  The weights sum to 1, so it is
    the plan plus the weighted noise average up to rounding; each entry's
    sum over the samples runs in float64, whatever the dtype of ``plans``,
    in a fixed order."""
    return inputs.with_flat(np.einsum("cdq,q->dc", plans, weights, optimize=False))


def evaluate_plan_batch(
    model: DynamicsModel,
    x0: np.ndarray,
    flat_batch: np.ndarray,
    horizon: int,
    missions: tuple[Mission, ...],
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

    Each rollout runs in its mission's mode: ``model.update`` applies the
    mode's input scale, mission 0's to the primary inputs and mission i's
    to the tail inputs of mission i, as it applies the plant's in
    :func:`~mhmppi.dynamics.step`.  The inputs the cost terms charge are
    the commanded ones, read unscaled from ``flat_batch``.

    Branch (i, p) shares primary stages 1..p+1, so primary stage k < N
    lies on the N-k branches p >= k-1 and enters mission i's sum with that
    weight.  The tails run in one pass over time t = 1..N-1: branch p
    splits off after input p, so at time t the branches p < t are running,
    and one ``model.update`` advances all of them, held as one
    (n_x, m, N-1, K) state array, in place.  Their inputs t are read where
    they lie: one block of rows from :func:`branch_rows`' ``[t, 0, 0]`` on,
    viewed as (n_u, m, t, K).  Each simulated state is tested once against
    the boxes: one :meth:`~mhmppi.cost.ObstacleSet.charge` of the primary
    states serves all m+1 missions, and one per tail time the m backups.
    Time N-1 is the final stage of every branch, which gives the tail
    costs.  The slab arrays are step-buffer scratch (module docstring);
    the two returned matrices and the per-sample cost vectors summed into
    them are new arrays on every call.

    The batch's dtype is the arithmetic's.  :func:`control_step` and the
    abort's backup choice pass float32 batches: x0 and the mode scales are
    rounded to float32, every state, input and cost-term slab is float32,
    and the cost kernels apply their constants in float32 (see
    :mod:`mhmppi.cost`).  Every sum of terms into a per-sample cost, over
    stages, branches and the terminal term, accumulates in float64, and
    the returned matrices are float64.  An x0 or mode scale beyond
    float32's range rounds to inf, which gives a non-finite cost; the
    caller scopes that overflow (:func:`control_step`).  The tests' oracle
    comparisons pass float64 batches to the same code.
    """
    n_batch = flat_batch.shape[2]
    m = len(missions) - 1
    n_inputs = dims(horizon, m)[0]
    if flat_batch.shape[1] != n_inputs:
        raise ValueError(
            f"flat batch has {flat_batch.shape[1]} input rows, expected "
            f"{n_inputs} for horizon {horizon} with {m} alternatives"
        )
    dtype = flat_batch.dtype
    # in the batch's dtype: a float64 scale would promote every update
    scales = np.stack([model.mode_scale(mission.mode) for mission in missions]).astype(dtype)
    n_u, n_x = flat_batch.shape[0], model.n_x
    primary_inputs = flat_batch[:, :horizon]
    states = buffer("controller.states", (n_x, horizon + 1, n_batch), dtype)
    primary_scale = scales[0][:, None]  # (n_u, 1)
    states[:, 0] = x0[:, None]
    for k in range(horizon):
        model.update(states[:, k], primary_inputs[:, k], out=states[:, k + 1], scale=primary_scale)
    costs = np.empty((n_batch, m + 1))
    tail_costs = np.empty((n_batch, m + 1))
    stage = buffer("controller.terms", (horizon, n_batch), dtype)
    visited = states[:, 1:]  # the states charged a stage term
    charge = None
    if len(obstacles.boxes):
        charge = buffer("controller.charge", stage.shape, dtype)
        obstacles.charge(visited[:POSITION_DIMS], charge)
    cost_mod.stage_cost_terms(missions[0], visited, primary_inputs, stage, charge=charge)
    terminal = cost_mod.terminal_cost_terms(missions[0], states[:, -1])
    costs[:, 0] = np.add.reduce(stage, axis=0, dtype=float) + terminal
    tail_costs[:, 0] = np.add(stage[-1], terminal, dtype=float)
    if m == 0:
        return costs, tail_costs

    backups = list(enumerate(missions[1:]))
    shared = np.arange(horizon - 1, 0, -1.0)  # branches through primary stage k = 1..N-1
    branch_sum = np.empty((m, n_batch))
    for j, mission in backups:
        cost_mod.stage_cost_terms(mission, visited, primary_inputs, stage, charge=charge)
        np.einsum("k,kq->q", shared, stage[:-1], out=branch_sum[j])

    rows = branch_rows(horizon, m)
    tail_scales = scales[1:].T[:, :, None, None]  # (n_u, m, 1, 1)
    # x[:, j, p]: branch (j+1, p)
    x = buffer("controller.tail_states", (n_x, m, horizon - 1, n_batch), dtype)
    stage = np.empty((m, n_batch))
    for t in range(1, horizon):
        x[:, :, t - 1] = states[:, t, None]
        running = x[:, :, :t]
        # (n_u, m, t, K): input t of the running branches, one block of rows
        first = rows[t, 0, 0]
        u = flat_batch[:, first : first + m * t].reshape(n_u, m, t, n_batch)
        model.update(running, u, out=running, scale=tail_scales)
        charge = [None] * m
        if len(obstacles.boxes):
            charge = buffer("controller.charge", (m, t, n_batch), dtype)
            obstacles.charge(running[:POSITION_DIMS], charge)
        terms = buffer("controller.terms", (t, n_batch), dtype)
        for j, mission in backups:
            cost_mod.stage_cost_terms(mission, running[:, j], u[:, j], terms, charge=charge[j])
            np.add.reduce(terms, axis=0, dtype=float, out=stage[j])
        branch_sum += stage
    terms = buffer("controller.terms", (horizon - 1, n_batch), dtype)
    for j, mission in backups:
        terminal = cost_mod.terminal_cost_terms(mission, x[:, j], terms)
        terminal = np.add.reduce(terminal, axis=0, dtype=float)
        costs[:, j + 1] = (branch_sum[j] + terminal) / (horizon - 1)
        tail_costs[:, j + 1] = (stage[j] + terminal) / (horizon - 1)
    return costs, tail_costs


def init_state(
    x0: np.ndarray,
    params: ControllerParams,
    missions: tuple[Mission, ...],
    weight_law: WeightLawParams,
) -> ControllerState:
    """Zero initial plan over the backups ``missions[1:]``; weights start
    at the desired vector for x0."""
    inputs = MultiHorizonInput.zeros(params.horizon, len(missions) - 1, params.n_u)
    alpha = desired_weights(np.asarray(x0, dtype=float), missions, weight_law)
    return ControllerState(inputs, alpha, 0)


def control_step(
    x: np.ndarray,
    state: ControllerState,
    model: DynamicsModel,
    missions: tuple[Mission, ...],
    obstacles: ObstacleSet,
    params: ControllerParams,
    weight_law: WeightLawParams,
) -> tuple[np.ndarray, ControllerState, StepDiagnostics]:
    """One full receding-horizon step; see the module docstring.  m is
    ``len(missions) - 1``, and a plan in ``state`` of another m or horizon
    raises ValueError.  ``params`` was validated when it was made."""
    shape = (state.inputs.horizon, state.inputs.n_alternatives)
    if shape != (params.horizon, len(missions) - 1):
        raise ValueError(
            f"plan has horizon {shape[0]} with m={shape[1]}, expected horizon "
            f"{params.horizon} with m={len(missions) - 1}"
        )
    t_start = time.perf_counter()
    x = np.asarray(x, dtype=float)

    alpha_desired = desired_weights(x, missions, weight_law)

    shifted = state.inputs.shift()
    plan = shifted.flat.T[:, :, None]  # (n_u, n_inputs, 1)
    # sample 0: the noise-free shifted plan (for the weight update); samples
    # 1..K: the perturbed plans, their noise drawn in place
    batch = buffer("controller.plan_batch", plan.shape[:2] + (params.n_samples + 1,), np.float32)
    samples = batch[:, :, 1:]
    # a noise or plan entry beyond float32's range rounds to inf, and a
    # sample whose cost overflows gets weight 0 (module docstring)
    with np.errstate(over="ignore", invalid="ignore"):
        t_noise = time.perf_counter()
        sample_noise(params, state.step_index, plan.shape[1], out=samples)
        t_eval = time.perf_counter()
        batch[:, :, :1] = plan
        samples += batch[:, :, :1]
        costs_all, tails_all = evaluate_plan_batch(
            model, x, batch, params.horizon, missions, obstacles
        )
    plan_costs, tail_costs = costs_all[0].copy(), tails_all[0].copy()
    if not (np.isfinite(plan_costs).all() and np.isfinite(tail_costs).all()):
        raise NonFiniteCostError(
            f"noise-free plan costs {plan_costs.tolist()} and tail costs "
            f"{tail_costs.tolist()} must be finite",
            step=state.step_index,
        )
    t_project = time.perf_counter()
    alpha = update_weights(state.alpha, alpha_desired, plan_costs, tail_costs)
    t_update = time.perf_counter()

    with np.errstate(over="ignore", invalid="ignore"):
        sample_costs = costs_all[1:] @ alpha
        cost_mean, cost_std = float(sample_costs.mean()), float(sample_costs.std())
        try:
            weights = softmax_weights(sample_costs, params.temperature)
        except NonFiniteCostError as exc:
            raise NonFiniteCostError(str(exc), step=state.step_index) from None
    new_inputs = mppi_update(shifted, samples, weights)
    if not np.isfinite(new_inputs.flat).all():
        # 0 * inf = NaN: zero the weight-0 samples' non-finite entries, retry
        np.copyto(samples, 0.0, where=(weights == 0.0) & ~np.isfinite(samples))
        new_inputs = mppi_update(shifted, samples, weights)
        if not np.isfinite(new_inputs.flat).all():
            raise NonFiniteCostError("the updated plan is not finite", step=state.step_index)
    u_exec = new_inputs.primary[0].copy()
    t_end = time.perf_counter()

    diag = StepDiagnostics(
        alpha=alpha,
        alpha_desired=alpha_desired,
        cost_mean=cost_mean,
        cost_std=cost_std,
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
