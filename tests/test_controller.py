import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhmppi import buffers, dynamics
from mhmppi import controller as ctrl
from mhmppi import cost as cost_mod
from mhmppi.config import scenario_from_dict
from mhmppi.cost import Mission, ObstacleSet
from mhmppi.dynamics import DoubleIntegrator, SimpleCar, step
from mhmppi.errors import ConfigError, NonFiniteCostError
from mhmppi.multi_horizon import MultiHorizonInput, dims
from mhmppi.scenarios import get_scenario_dict
from mhmppi.weights import WeightLawParams
from oracle import cost_vector, expand, from_parts, occupied, tail_cost_vector
from quadratic import fit_quadratic, gap, plan_costs

NO_OBS = ObstacleSet()
UAV_MISSIONS = (
    Mission.build([10, 10, 0, 0]),
    Mission.build([2, 6, 0, 0]),
    Mission.build([8, 6, 0, 0]),
)


def make_params(**kw):
    defaults = dict(n_samples=64, horizon=5, n_u=2, noise_cov=1.0, seed=42)
    defaults.update(kw)
    return ctrl.ControllerParams.build(**defaults)


def n_rows(params, m):
    """Flat rows of a plan over m backup missions."""
    return dims(params.horizon, m)[0]


# ----------------------------------------------------------------- sampling


def test_params_validation():
    with pytest.raises(ConfigError):
        make_params(n_samples=0)
    with pytest.raises(ConfigError):
        make_params(temperature=0.0)
    with pytest.raises(ConfigError):
        make_params(noise_cov=np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PD
    with pytest.raises(ConfigError):
        make_params(noise_cov=np.array([[1.0, 0.5], [0.4, 1.0]]))  # asymmetric
    with pytest.raises(ConfigError):
        make_params(horizon=1)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        make_params(seed=-1)


def test_params_validated_on_every_construction():
    params = make_params()
    for change in (dict(temperature=0.0), dict(seed=-1), dict(n_samples=0), dict(horizon=1)):
        with pytest.raises(ConfigError):
            replace(params, **change)
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        ctrl.ControllerParams(16, 5, np.eye(2), seed=-1)
    with pytest.raises(ConfigError, match="square diagonal"):
        ctrl.ControllerParams(16, 5, np.ones(2))
    # the scale follows the covariance through replace
    cov = np.diag([4.0, 2.0])
    changed = replace(params, noise_cov=cov)
    assert np.array_equal(changed.noise_scale, np.sqrt([4.0, 2.0]))
    assert np.array_equal(replace(changed, seed=3).noise_scale, changed.noise_scale)


def test_params_fields_checked_not_coerced():
    params = make_params()
    for change in (
        dict(n_samples=100.7),
        dict(n_samples=True),
        dict(seed=1.9),
        dict(horizon="12"),
        dict(temperature=float("nan")),
        dict(noise_cov=np.array([[1.0, np.nan], [np.nan, 1.0]])),
    ):
        with pytest.raises(ConfigError):
            replace(params, **change)
    with pytest.raises(ConfigError, match="noise_cov"):
        make_params(noise_cov="1.0")


def test_params_hold_only_the_sampling_choices():
    cov = np.diag([2.0, 0.5])
    params = ctrl.ControllerParams(16, 5, cov)
    # the caller's array stays the caller's; the params hold read-only copies
    assert cov.flags.writeable
    cov[0, 0] = 9.0
    assert params.noise_cov[0, 0] == 2.0
    assert not params.noise_cov.flags.writeable and not params.noise_scale.flags.writeable
    assert not hasattr(params, "n_alternatives") and not hasattr(params, "with_seed")
    with pytest.raises(ValueError, match="noise_scale"):
        replace(params, noise_scale=np.ones(2))


# ------------------------------------------------------------------ softmax


def test_softmax_uniform_and_single():
    assert np.allclose(ctrl.softmax_weights(np.full(7, 3.3), 0.5), np.full(7, 1 / 7))
    assert np.array_equal(ctrl.softmax_weights(np.array([5.0]), 0.5), [1.0])


def test_softmax_frozen_two_point_oracle():
    lam = 0.5
    w = ctrl.softmax_weights(np.array([0.0, lam]), lam)
    assert np.allclose(w, [0.73105858, 0.26894142], atol=1e-8)


def test_softmax_shift_invariance_and_normalization():
    rng = np.random.default_rng(3)
    costs = rng.uniform(0, 100, size=256)
    w = ctrl.softmax_weights(costs, 0.5)
    assert abs(w.sum() - 1.0) < 1e-12
    for shift in (1.0, -50.0, 1e6):
        w2 = ctrl.softmax_weights(costs + shift, 0.5)
        assert np.max(np.abs(w2 - w)) < 1e-9


def test_softmax_gives_non_finite_costs_zero_weight():
    lam = 0.5
    w = ctrl.softmax_weights(np.array([1.0, np.nan, 2.0]), lam)
    finite = ctrl.softmax_weights(np.array([1.0, 2.0]), lam)
    assert np.array_equal(w, [finite[0], 0.0, finite[1]])
    w = ctrl.softmax_weights(np.array([np.inf, 3.0, -np.inf, np.nan]), lam)
    assert np.array_equal(w, [0.0, 1.0, 0.0, 0.0])
    # on finite costs the weights are the plain formula's, bit for bit
    costs = np.random.default_rng(5).uniform(0, 20, size=97)
    z = np.exp(-(costs - costs.min()) / lam)
    assert np.array_equal(ctrl.softmax_weights(costs, lam), z / z.sum())


def test_softmax_all_non_finite_raises():
    with pytest.raises(NonFiniteCostError, match="all 3 sample costs are non-finite"):
        ctrl.softmax_weights(np.array([np.nan, np.inf, -np.inf]), 0.5)


def _step_with_noise(monkeypatch, sample_noise, n_samples=64, step_index=0):
    """One m=0 control step of the double integrator with ``sample_noise``
    in place of the sampler."""
    params = make_params(n_samples=n_samples, horizon=5)
    missions = (UAV_MISSIONS[0],)
    wl = WeightLawParams(gamma=0.0)
    monkeypatch.setattr(ctrl, "sample_noise", sample_noise)
    x = np.array([1.0, 2.0, 0.5, -0.5])
    state = ctrl.init_state(x, params, missions, wl)
    state = replace(state, step_index=step_index)
    return ctrl.control_step(x, state, DoubleIntegrator(), missions, NO_OBS, params, wl)


def test_all_non_finite_sample_costs_name_the_step(monkeypatch):
    # every perturbed plan overflows the cost; the noise-free plan stays finite
    def huge(params, _, n_inputs, out):
        out[...] = 1e30  # finite in the float32 batch; its square is not
        return out

    with pytest.raises(NonFiniteCostError, match="control step 7: ") as info:
        _step_with_noise(monkeypatch, huge, step_index=7)
    assert info.value.step == 7


def test_step_diagnostics_effective_sample_size(monkeypatch):
    n = 64
    # equal sample costs: uniform weights, ESS = K
    def zero(params, _, n_inputs, out):
        out[...] = 0.0
        return out

    u, _, diag = _step_with_noise(monkeypatch, zero, n_samples=n)
    assert diag.ess == n
    assert diag.max_weight == 1.0 / n

    # one finite sample cost: one-hot weights, ESS = 1, and the masked
    # samples move the plan not at all
    def one_finite(params, _, n_inputs, out):
        out[...] = 1e30
        out[:, :, 3] = 0.25
        return out

    u, _, diag = _step_with_noise(monkeypatch, one_finite, n_samples=n)
    assert diag.ess == 1.0
    assert diag.max_weight == 1.0
    assert np.array_equal(u, [0.25, 0.25])


def test_non_finite_noise_free_row_names_the_step():
    params = make_params(n_samples=16, horizon=5)
    model, wl = DoubleIntegrator(), WeightLawParams(gamma=0.66)
    x = np.zeros(4)
    state = ctrl.init_state(x, params, UAV_MISSIONS, wl)
    flat = state.inputs.flat.copy()
    flat[1, 0] = np.nan  # the shifted plan's first input
    state = replace(state, inputs=state.inputs.with_flat(flat), step_index=12)
    with pytest.raises(NonFiniteCostError, match="control step 12: noise-free") as info:
        ctrl.control_step(x, state, model, UAV_MISSIONS, NO_OBS, params, wl)
    assert info.value.step == 12


def test_step_diagnostics_layer_seconds():
    params = make_params(n_samples=16, horizon=5)
    wl = WeightLawParams(gamma=0.66)
    x = np.zeros(4)
    state = ctrl.init_state(x, params, UAV_MISSIONS, wl)
    _, _, diag = ctrl.control_step(x, state, DoubleIntegrator(), UAV_MISSIONS, NO_OBS, params, wl)
    layers = (diag.noise_s, diag.eval_s, diag.project_s, diag.update_s)
    assert all(s > 0.0 for s in layers)
    assert sum(layers) <= diag.seconds


# -------------------------------------------------------------- mppi update


def test_mppi_update_degenerate_and_cancellation():
    plan = MultiHorizonInput.zeros(3, 1, 2)
    # (n_u, n_inputs, K) batches of perturbed plans, each the zero plan
    # plus its noise
    plans = np.random.default_rng(0).standard_normal((2, 6, 2)).transpose(2, 1, 0)
    w = np.array([0.0, 1.0])
    out = ctrl.mppi_update(plan, plans, w)
    assert np.allclose(out.flat, plans[:, :, 1].T)

    out = ctrl.mppi_update(plan, np.zeros((2, 6, 4)), np.full(4, 0.25))
    assert np.array_equal(out.flat, plan.flat)

    sym = np.stack([plans[:, :, 0], -plans[:, :, 0]], axis=-1)
    out = ctrl.mppi_update(plan, sym, np.array([0.5, 0.5]))
    assert np.allclose(out.flat, 0.0, atol=1e-16)


# ---------------------------------------------------------- exact quadratic


def _uav_primary():
    """uav-free-1's model, start state, horizon and primary mission."""
    sc = scenario_from_dict(get_scenario_dict("uav-free-1"))
    return sc.model, sc.x0, sc.controller.horizon, sc.missions[0]


def test_m0_cost_is_the_fitted_quadratic():
    # the double integrator without obstacles: the m=0 cost is exactly
    # quadratic in the plan, so the fit holds on any plan
    model, x0, horizon, mission = _uav_primary()
    c, g, hessian = fit_quadratic(model, x0, horizon, mission)
    plans = 3.0 * np.random.default_rng(0).standard_normal((50, g.size))
    fitted = c + plans @ g + np.einsum("qi,ij,qj->q", plans, hessian, plans) / 2.0
    exact = plan_costs(model, x0, horizon, mission, plans)
    assert np.max(np.abs(fitted - exact) / np.abs(exact)) < 1e-10
    assert np.all(np.linalg.eigvalsh(hessian) > 0.0)


def test_weighted_cost_is_the_fitted_quadratic():
    # m=2 at N=4: alpha @ J over the whole flat plan, branch tails
    # included, is exactly quadratic too (n=32, 561 plans in one call)
    sc = scenario_from_dict(get_scenario_dict("uav-free-1"))
    mission, *backups = sc.missions
    horizon, alpha = 4, np.array([0.5, 0.2, 0.3])
    c, g, hessian = fit_quadratic(sc.model, sc.x0, horizon, mission, backups, alpha)
    assert g.size == 32
    plans = 3.0 * np.random.default_rng(1).standard_normal((50, g.size))
    fitted = c + plans @ g + np.einsum("qi,ij,qj->q", plans, hessian, plans) / 2.0
    exact = plan_costs(sc.model, sc.x0, horizon, mission, plans, backups, alpha)
    assert np.max(np.abs(fitted - exact) / np.abs(exact)) < 1e-10
    assert np.all(np.linalg.eigvalsh(hessian) > 0.0)
    # the tail rows enter: the primary's cost alone leaves them out
    primary = plan_costs(sc.model, sc.x0, horizon, mission, plans, backups)
    assert not np.allclose(primary, exact)


@pytest.mark.parametrize("noise_cov, temperature", [(1.0, 5.0), (0.25, 0.5)])
def test_mppi_iterations_approach_the_exact_optimum(noise_cov, temperature):
    # the sampler alone: 30 MPPI iterations of K=1000 at a fixed state,
    # with no shift, from the zero plan (gap 98).  Seeds 0-3 end at gaps
    # of 0.05-0.09; the built-in (noise_cov 1, temperature 0.5) stalls at
    # 2-5.  A flipped softmax sign or unnormalised weights fail both
    # cases, and noise that ignores the Cholesky factor fails the second
    model, x0, horizon, mission = _uav_primary()
    _, g, hessian = fit_quadratic(model, x0, horizon, mission)
    params = make_params(
        n_samples=1000, horizon=horizon, noise_cov=noise_cov, temperature=temperature, seed=0
    )
    plan = MultiHorizonInput.zeros(horizon, 0, params.n_u)
    assert gap(plan.flat.ravel(), g, hessian) == pytest.approx(98.0, abs=0.05)
    for t in range(30):
        plans = plan.flat.T[:, :, None] + ctrl.sample_noise(params, t, horizon)
        costs, _ = ctrl.evaluate_plan_batch(model, x0, plans, horizon, (mission,), NO_OBS)
        plan = ctrl.mppi_update(plan, plans, ctrl.softmax_weights(costs[:, 0], temperature))
    assert gap(plan.flat.ravel(), g, hessian) < 0.5


# -------------------------------------------------------- full control step


def test_control_step_is_deterministic():
    params = make_params(n_samples=32, horizon=5)
    model = DoubleIntegrator()
    wl = WeightLawParams(gamma=0.66)
    x = np.zeros(4)
    state = ctrl.init_state(x, params, UAV_MISSIONS, wl)
    u1, s1, _ = ctrl.control_step(x, state, model, UAV_MISSIONS, NO_OBS, params, wl)

    state_b = ctrl.init_state(x, params, UAV_MISSIONS, wl)
    u2, s2, _ = ctrl.control_step(x, state_b, model, UAV_MISSIONS, NO_OBS, params, wl)
    assert np.array_equal(u1, u2)
    assert np.array_equal(s1.inputs.flat, s2.inputs.flat)
    assert np.array_equal(s1.alpha, s2.alpha)


@pytest.mark.parametrize("plan_horizon, plan_m", [(6, 0), (3, 0), (4, 1)])
def test_control_step_rejects_a_plan_of_another_horizon_or_m(plan_horizon, plan_m):
    # (N=6, m=0) and (N=3, m=1) both have 6 flat rows, so a check of the
    # row count alone lets the first plan through as a plan of the second
    params = ctrl.ControllerParams.build(64, 3, n_u=2)
    missions = (Mission.build([1.0, 1.0, 0, 0]), Mission.build([0.0, 1.0, 0, 0]))
    plan = MultiHorizonInput.zeros(plan_horizon, plan_m, 2)
    state = ctrl.ControllerState(plan, np.array([0.5, 0.5]))
    wl = WeightLawParams(gamma=0.66)
    expected = f"horizon {plan_horizon} with m={plan_m}, expected horizon 3 with m=1"
    with pytest.raises(ValueError, match=expected):
        ctrl.control_step(np.zeros(4), state, DoubleIntegrator(), missions, NO_OBS, params, wl)


def test_control_step_alpha_on_simplex_and_descent():
    params = make_params(n_samples=48, horizon=6, seed=5)
    model = DoubleIntegrator()
    wl = WeightLawParams(gamma=0.66)
    x = np.zeros(4)
    state = ctrl.init_state(x, params, UAV_MISSIONS, wl)
    for _ in range(15):
        alpha_prev = state.alpha.copy()
        u, state, diag = ctrl.control_step(
            x, state, model, UAV_MISSIONS, NO_OBS, params, wl
        )
        assert abs(diag.alpha.sum() - 1.0) < 1e-9
        assert np.all(diag.alpha >= -1e-12)
        c = diag.plan_costs - diag.tail_costs
        assert c @ diag.alpha <= c @ alpha_prev + 1e-9
        x = step(model, x, u)


MAGNITUDES = st.builds(
    lambda mantissa, k: mantissa * 10.0**k,
    st.floats(1.0, 10.0, exclude_max=True),
    st.integers(-150, 150),
)
SIGNED = st.builds(lambda sign, size: sign * size, st.sampled_from([-1.0, 1.0]), MAGNITUDES)


@st.composite
def extreme_problems(draw):
    """(model, missions, obstacles, params, weight law, x0): either model,
    up to three modes whose scales are 0, 1 or up to 10^150, and every
    target, weight, covariance, temperature, box and state entry a
    mantissa times 10^k with k in [-150, 150]."""

    def vec(n, elements=SIGNED):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    model_cls = draw(st.sampled_from([DoubleIntegrator, SimpleCar]))
    n_modes = draw(st.integers(1, 3))
    modes = [vec(2, st.sampled_from([0.0, 1.0]) | MAGNITUDES) for _ in range(n_modes)]
    model = model_cls(modes=modes)
    missions = tuple(
        Mission.build(
            vec(model.n_x),
            state_weight=draw(MAGNITUDES),
            input_weight=draw(MAGNITUDES),
            mode=draw(st.integers(0, n_modes - 1)),
        )
        for _ in range(draw(st.integers(1, 3)))
    )
    corners = [vec(2) for _ in range(draw(st.integers(0, 2)))]
    obstacles = ObstacleSet([[corner, corner + vec(2, MAGNITUDES)] for corner in corners])
    params = make_params(
        n_samples=draw(st.integers(1, 8)),
        horizon=draw(st.integers(2, 4)),
        noise_cov=draw(MAGNITUDES),
        temperature=draw(MAGNITUDES),
        seed=draw(st.integers(0, 1000)),
    )
    wl = WeightLawParams(gamma=draw(st.floats(0.0, 0.99)))
    return model, missions, obstacles, params, wl, vec(model.n_x)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(extreme_problems())
@example(
    # three of the 1000 samples overflow float32 and get weight 0, and
    # their 0 * inf in the weighted mean must not make the plan NaN
    (
        DoubleIntegrator(modes=[[0.0, 0.0]]),
        (Mission.build([1, 1, 0, 0], input_weight=0.0),),
        NO_OBS,
        make_params(n_samples=1000, horizon=3, noise_cov=1e76, seed=1),
        WeightLawParams(),
        np.zeros(4),
    )
)
def test_control_step_gives_a_finite_plan_or_a_located_error(problem):
    # three closed-loop steps; each gives a finite input and plan, weights
    # on the simplex within the descent bound, or an error naming its step
    model, missions, obstacles, params, wl, x = problem
    state = ctrl.init_state(x, params, missions, wl)
    for _ in range(3):
        try:
            u, new_state, diag = ctrl.control_step(
                x, state, model, missions, obstacles, params, wl
            )
        except NonFiniteCostError as exc:
            assert exc.step == state.step_index
            return
        assert np.isfinite(u).all() and np.isfinite(new_state.inputs.flat).all()
        alpha = diag.alpha
        assert np.all(alpha >= 0.0) and abs(alpha.sum() - 1.0) <= 1e-12
        c = diag.plan_costs - diag.tail_costs
        assert c @ alpha <= max(c @ state.alpha, c.min())
        x = step(model, x, u, missions[0].mode)
        state = new_state


def test_weight_zero_samples_beyond_float32_leave_the_plan_finite():
    # at Σ = 1e76 I three of the 1000 samples hold inf entries, each of
    # weight 0, so the weighted mean reads 0 * inf = NaN there; the step
    # zeroes those entries and returns the mean of the other 997 samples
    model = DoubleIntegrator(modes=[[0.0, 0.0]])
    missions = (Mission.build([1, 1, 0, 0], input_weight=0.0),)
    params = make_params(n_samples=1000, horizon=3, noise_cov=1e76, seed=1)
    wl, x = WeightLawParams(), np.zeros(4)
    state = ctrl.init_state(x, params, missions, wl)
    u, new_state, diag = ctrl.control_step(x, state, model, missions, NO_OBS, params, wl)
    assert np.isfinite(u).all() and np.isfinite(new_state.inputs.flat).all()
    noise = np.empty((2, n_rows(params, 0), params.n_samples), np.float32)
    with np.errstate(over="ignore"):
        ctrl.sample_noise(params, 0, noise.shape[1], out=noise)
    finite = np.isfinite(noise).all(axis=(0, 1))
    assert finite.sum() == 997 and round(diag.ess) == 997
    mean = noise[:, :, finite].astype(float).mean(axis=2).T
    np.testing.assert_allclose(new_state.inputs.flat, mean, rtol=1e-12)


def _spread(rng, n):
    """A random diagonal weight with non-unit entries, one of them zero."""
    w = rng.uniform(0.2, 3.0, n)
    w[rng.integers(n)] = 0.0
    return np.diag(w)


def _oracle_case(model_cls, horizon, m, seed, spread=False):
    """Backup missions in distinct modes, mission 1's with a zero channel;
    boxes on the plans' paths; a shifted base plan plus noisy copies.
    With ``spread``, mission 1 weighs its state and input with diagonal
    matrices of non-unit entries, one of each zero."""
    modes = [np.ones(2), np.array([0.6, 0.8]), np.array([1.0, 0.0])]
    model = model_cls(modes=modes)
    rng = np.random.default_rng(seed)
    missions = tuple(
        Mission.build(
            rng.uniform(-2, 2, model.n_x),
            state_weight=_spread(rng, model.n_x) if spread and i == 1 else 1.0 + i,
            input_weight=_spread(rng, 2) if spread and i == 1 else 0.5,
            mode=(3 - i) % 3 if i else 0,
        )
        for i in range(m + 1)
    )
    obstacles = ObstacleSet([((-0.05, -0.3), (0.3, 0.05)), ((0.1, 0.1), (0.6, 0.6))])
    base = MultiHorizonInput(horizon, m, rng.standard_normal((dims(horizon, m)[0], 2)))
    base = base.shift()  # the last input of every plan is the zero pad
    flat_batch = base.flat[None] + 0.8 * rng.standard_normal((6, *base.flat.shape))
    flat_batch[0] = base.flat
    return model, missions, obstacles, base, flat_batch


def test_batch_costs_match_structure_route():
    # every batch row must reproduce the per-structure cost and tail-cost
    # vectors, for both models, short and long horizons, all input modes,
    # and scalar as well as spread diagonal state and input weights
    for model_cls in (DoubleIntegrator, SimpleCar):
        for horizon, m, spread in [
            (2, 1, False), (3, 3, False), (5, 2, False), (7, 3, False), (5, 2, True)
        ]:
            case = f"{model_cls.__name__} N={horizon} m={m} spread={spread}"
            model, missions, obstacles, base, flat_batch = _oracle_case(
                model_cls, horizon, m, seed=10 * horizon + m, spread=spread
            )
            x0 = np.zeros(model.n_x)
            costs, tails = ctrl.evaluate_plan_batch(
                model, x0, flat_batch.transpose(2, 1, 0), horizon, missions, obstacles
            )
            primary_hits = tail_hits = 0
            for q in range(flat_batch.shape[0]):
                plan = base.with_flat(flat_batch[q])
                traj = expand(model, x0, plan, [mission.mode for mission in missions])
                direct = cost_vector(traj, plan, missions, obstacles)
                direct_tails = tail_cost_vector(traj, plan, missions, obstacles)
                assert np.allclose(costs[q], direct, rtol=1e-11, atol=0), case
                assert np.allclose(tails[q], direct_tails, rtol=1e-11, atol=0), case
                primary_hits += occupied(obstacles, traj.primary_states[1:]).sum()
                tail_hits += sum(
                    occupied(obstacles, states).sum()
                    for branch in traj.tail_states
                    for states in branch
                )
            assert primary_hits and tail_hits, f"{case}: the plans enter no box"


def test_float32_batch_costs_match_float64_route():
    # the control step evaluates float32 batches; the same code on the same
    # plans widened to float64 (checked against the oracle above) bounds
    # the float32 arithmetic.  The double integrator's states carry a few
    # float32 roundings each, so 8 epsilons bound its costs.  The car
    # integrates tan(phi) and cos/sin of the heading, and these plans steer
    # to |phi| near 4, past the poles of tan, which amplify the rounding of
    # phi by about 1 / |sin(2 phi)|: 1024 epsilons.  A state within float32
    # rounding of a box face may count the box in one route only, so the
    # hits are compared first: the boxes add one penalty share per hit over
    # the costs with no boxes, and the routes must add the same number
    eps = float(np.finfo(np.float32).eps)
    for model_cls, rtol in ((DoubleIntegrator, 8 * eps), (SimpleCar, 1024 * eps)):
        for horizon, m, spread in [
            (2, 1, False), (3, 3, False), (5, 2, False), (7, 3, False), (5, 2, True)
        ]:
            case = f"{model_cls.__name__} N={horizon} m={m} spread={spread}"
            model, missions, obstacles, _, flat_batch = _oracle_case(
                model_cls, horizon, m, seed=10 * horizon + m, spread=spread
            )
            batch = flat_batch.transpose(2, 1, 0).astype(np.float32)
            x0 = np.zeros(model.n_x)
            routes = []
            for plans in (batch, batch.astype(float)):
                costs, tails = ctrl.evaluate_plan_batch(
                    model, x0, plans, horizon, missions, obstacles
                )
                free, _ = ctrl.evaluate_plan_batch(model, x0, plans, horizon, missions, NO_OBS)
                # hits, each branch-averaged backup hit counted N-1 times
                hits = np.rint((costs - free) * (horizon - 1) / ObstacleSet.penalty)
                routes.append((costs, tails, hits))
            (costs, tails, hits), (costs64, tails64, hits64) = routes
            assert hits.any() and np.array_equal(hits, hits64), case
            assert costs.dtype == tails.dtype == np.float64, case
            assert np.allclose(costs, costs64, rtol=rtol, atol=0), case
            assert np.allclose(tails, tails64, rtol=rtol, atol=0), case


def test_float32_batch_runs_no_float64_kernel(monkeypatch):
    # an np.float64 scalar or array among a kernel's operands would promote
    # a float32 slab operation to float64 (numpy's promotion rules), as the
    # targets, box corners and mode scales once did: every ufunc that the
    # evaluator, the cost kernels and the models call on a float32 array
    # computes in float32, or in float64 only where a dtype asks for it
    promoted = []

    class Ufunc:
        def __init__(self, ufunc):
            self.ufunc = ufunc

        def __getattr__(self, name):
            return getattr(self.ufunc, name)

        def __call__(self, *args, **kwargs):
            operands = args[: self.ufunc.nin]
            if kwargs.get("dtype") is None and any(
                isinstance(a, np.ndarray) and a.dtype == np.float32 for a in operands
            ):
                if np.result_type(*operands) != np.float32:
                    promoted.append((self.ufunc.__name__, [type(a) for a in operands]))
            return self.ufunc(*args, **kwargs)

    class Numpy:
        def __getattr__(self, name):
            value = getattr(np, name)
            return Ufunc(value) if isinstance(value, np.ufunc) else value

    for module in (ctrl, cost_mod, dynamics):
        monkeypatch.setattr(module, "np", Numpy())
    for model_cls in (DoubleIntegrator, SimpleCar):
        model, missions, obstacles, _, flat_batch = _oracle_case(model_cls, 5, 2, seed=3)
        batch = flat_batch.transpose(2, 1, 0).astype(np.float32)
        ctrl.evaluate_plan_batch(model, np.zeros(model.n_x), batch, 5, missions, obstacles)
    assert not promoted


def test_plan_beyond_float32_range_names_the_step():
    # 1e39 is finite in the stored float64 plan and inf in the float32
    # batch: the noise-free plan's cost is not finite, a located error,
    # with no warning on the way
    params = make_params(n_samples=16, horizon=5)
    model, wl = DoubleIntegrator(), WeightLawParams(gamma=0.66)
    x = np.zeros(4)
    state = ctrl.init_state(x, params, UAV_MISSIONS, wl)
    flat = state.inputs.flat.copy()
    flat[1, 0] = 1e39  # the shifted plan's first input
    state = replace(state, inputs=state.inputs.with_flat(flat), step_index=12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteCostError, match="control step 12: noise-free") as info:
            ctrl.control_step(x, state, model, UAV_MISSIONS, NO_OBS, params, wl)
    assert info.value.step == 12


def test_batch_tail_costs_match_structure_route():
    model = DoubleIntegrator()
    rng = np.random.default_rng(31)
    x0 = rng.standard_normal(4)
    base = MultiHorizonInput(4, 2, rng.standard_normal((dims(4, 2)[0], 2)))
    shifted = base.shift()  # last input of every plan is the zero pad
    costs, tails = ctrl.evaluate_plan_batch(
        model, x0, shifted.flat.T[:, :, None], 4, UAV_MISSIONS, NO_OBS
    )
    traj = expand(model, x0, shifted, [mission.mode for mission in UAV_MISSIONS])
    assert np.allclose(costs[0], cost_vector(traj, shifted, UAV_MISSIONS, NO_OBS), rtol=1e-11)
    assert np.allclose(
        tails[0], tail_cost_vector(traj, shifted, UAV_MISSIONS, NO_OBS), rtol=1e-11
    )


def test_single_step_brute_force_oracle(monkeypatch):
    # N=2, m=1 double-integrator toy, K=2, hand-fixed noise, gamma=0:
    # u_exec must equal the softmax-weighted noise average added to the
    # shifted plan, computed here by an independent step-through
    A = np.eye(4) + np.diag([0.1, 0.1], k=2)  # position += 0.1 s * velocity
    B = np.vstack([np.zeros((2, 2)), 0.1 * np.eye(2)])  # velocity += 0.1 s * input
    p0 = np.array([1.0, 0.0, 0.0, 0.0])
    p1 = np.array([0.0, 1.0, 0.0, 0.0])
    missions = (Mission.build(p0), Mission.build(p1))
    params = make_params(n_samples=2, horizon=2, temperature=0.7)
    wl = WeightLawParams(gamma=0.0)
    model = DoubleIntegrator()

    prev = from_parts(
        [[0.3, -0.2], [0.1, 0.4]], [[[[-0.5, 0.2]]]]
    )
    fixed_noise = np.array(
        [
            [[0.2, 0.1], [-0.3, 0.4], [0.05, -0.1]],
            [[-0.6, 0.3], [0.2, 0.2], [0.4, 0.0]],
        ]
    )
    # sampled as (n_u, n_inputs, K)
    def fixed(*_, out):
        out[...] = fixed_noise.transpose(2, 1, 0)
        return out

    monkeypatch.setattr(ctrl, "sample_noise", fixed)

    x0 = np.array([0.2, -0.1, 0.05, 0.0])
    state = ctrl.ControllerState(prev, np.array([1.0, 0.0]), 0)
    u_exec, new_state, diag = ctrl.control_step(
        x0, state, model, missions, NO_OBS, params, wl
    )

    # --- independent step-through (plain numpy, no package calls) ---
    shifted = np.array([[0.1, 0.4], [0.0, 0.0]])  # primary of the shifted plan
    j0 = np.empty(2)
    for q in range(2):
        u = shifted + fixed_noise[q, :2]
        x1 = A @ x0 + B @ u[0]
        x2 = A @ x1 + B @ u[1]
        j0[q] = (
            (x1 - p0) @ (x1 - p0) + u[0] @ u[0]
            + (x2 - p0) @ (x2 - p0) + u[1] @ u[1]
            + (x2 - p0) @ (x2 - p0)
        )
    z = np.exp(-(j0 - j0.min()) / params.temperature)
    w = z / z.sum()
    expected_u = shifted[0] + w[0] * fixed_noise[0, 0] + w[1] * fixed_noise[1, 0]

    assert np.array_equal(new_state.alpha, [1.0, 0.0])  # gamma=0 keeps primary-only
    # the controller evaluates and averages the float32 plan batch: each
    # perturbed input is rounded twice (the plan, then plan plus noise),
    # and the costs behind the weights sum ten float32 terms of order 1 at
    # temperature 0.7, so u_exec is the float64 result up to a few float32
    # epsilons; 32 of them bound it
    assert np.allclose(u_exec, expected_u, rtol=32 * np.finfo(np.float32).eps, atol=0)


def _gamma_zero_runs(scenario_name: str, n_steps: int = 40, degraded: bool = False):
    """Executed inputs of the m=2 step with gamma=0 and of the m=0 step on
    the primary mission alone, each closing the loop on its own inputs.
    ``degraded`` puts the primary and the two backups each in a non-unit
    mode of its own; the plant steps in the primary's."""
    cfg = get_scenario_dict(scenario_name)
    cfg["controller"].update(samples=50, horizon=10)
    if degraded:
        cfg["model"]["modes"] = [[1.0, 1.0], [0.6, 0.5], [0.8, 0.3], [0.4, 0.9]]
        for i, mission in enumerate(cfg["missions"]):
            mission["mode"] = i + 1
    scenario = scenario_from_dict(cfg)
    model, obstacles = scenario.model, scenario.obstacles
    wl = WeightLawParams(gamma=0.0)
    runs = []
    for missions, params in (
        (scenario.missions, scenario.controller),
        (scenario.missions[:1], scenario.controller),
    ):
        x = scenario.x0.copy()
        state = ctrl.init_state(x, params, missions, wl)
        inputs = []
        for _ in range(n_steps):
            u, state, _ = ctrl.control_step(x, state, model, missions, obstacles, params, wl)
            inputs.append(u)
            x = step(model, x, u, missions[0].mode)
        runs.append(np.stack(inputs))
    return runs


def test_gamma_zero_matches_single_mission_step():
    # with no weight on the backups, the branch tails change nothing the
    # plant sees: the m=0 step on the primary mission executes the same bits
    multi, single = _gamma_zero_runs("uav-obstacles")
    assert multi.tobytes() == single.tobytes()


def test_gamma_zero_matches_single_mission_step_on_the_car():
    multi, single = _gamma_zero_runs("ugv-obstacles")
    assert multi.tobytes() == single.tobytes()


@pytest.mark.parametrize("scenario_name", ["uav-obstacles", "ugv-obstacles"])
def test_gamma_zero_matches_single_mission_step_in_degraded_modes(scenario_name):
    # the tails run in their backups' own modes, and still change nothing
    multi, single = _gamma_zero_runs(scenario_name, degraded=True)
    assert multi.tobytes() == single.tobytes()


# ------------------------------------------------------------- step buffers


def test_noise_is_drawn_into_the_evaluated_batch(monkeypatch):
    # the step keeps one sample array: the noise is drawn into the sample
    # columns 1..K of the batch it evaluates, not into a buffer of its own
    seen = {}
    sample_noise, evaluate = ctrl.sample_noise, ctrl.evaluate_plan_batch

    def noise_spy(params, step_index, n_inputs, out):
        seen["out"] = out
        return sample_noise(params, step_index, n_inputs, out=out)

    def evaluate_spy(model, x0, flat_batch, *args):
        seen["flat_batch"] = flat_batch
        return evaluate(model, x0, flat_batch, *args)

    monkeypatch.setattr(ctrl, "sample_noise", noise_spy)
    monkeypatch.setattr(ctrl, "evaluate_plan_batch", evaluate_spy)
    params = make_params(n_samples=16, horizon=5)
    wl = WeightLawParams(gamma=0.66)
    x = np.zeros(4)
    state = ctrl.init_state(x, params, UAV_MISSIONS, wl)
    ctrl.control_step(x, state, DoubleIntegrator(), UAV_MISSIONS, NO_OBS, params, wl)
    out, flat_batch = seen["out"], seen["flat_batch"]
    assert np.shares_memory(out, flat_batch)
    samples = flat_batch[:, :, 1:]
    assert out.shape == samples.shape == (2, n_rows(params, 2), 16)
    assert out.ctypes.data == samples.ctypes.data and out.strides == samples.strides


@pytest.mark.parametrize("model_cls", [DoubleIntegrator, SimpleCar])
@pytest.mark.parametrize("m", [0, 2])
def test_narrow_batch_matches_rows_of_wide_batch(model_cls, m):
    # the narrow batch runs in the wide batch's buffers, whose tails hold
    # the wide batch's values: sample q's costs must still not see them
    model, missions, obstacles, base, _ = _oracle_case(model_cls, 5, m, seed=7 + m)
    rng = np.random.default_rng(m)
    plans = base.flat[None] + 0.8 * rng.standard_normal((64, *base.flat.shape))
    x0 = rng.uniform(-0.5, 0.5, model.n_x)
    wide = ctrl.evaluate_plan_batch(model, x0, plans.transpose(2, 1, 0), 5, missions, obstacles)
    narrow = ctrl.evaluate_plan_batch(
        model, x0, plans[:32].transpose(2, 1, 0), 5, missions, obstacles
    )
    for w, n in zip(wide, narrow):
        assert n.tobytes() == w[:32].tobytes()


@pytest.mark.parametrize("horizon, m", [(20, 2), (5, 3), (4, 0)])
def test_each_simulated_state_is_tested_against_the_boxes_once(monkeypatch, horizon, m):
    # (20, 2) is the branches-n20 shape: 400 simulated states per sample,
    # which were 438 positions tested when each mission tested the primary
    # states again for its own primary stage terms.  Each charge call forms
    # one penalty product, shared by the missions that read its states:
    # one for the primary states and one per tail time, 20 calls where
    # each mission used to form its own (41)
    tested = []
    charge = ObstacleSet.charge

    def spy(self, positions, out):
        tested.append(np.asarray(positions)[0].size)
        return charge(self, positions, out)

    monkeypatch.setattr(ObstacleSet, "charge", spy)
    model = DoubleIntegrator()
    missions = tuple(Mission.build([1.0 + i, 1.0, 0, 0]) for i in range(m + 1))
    n_batch = 3
    flat_batch = np.random.default_rng(m).standard_normal((2, dims(horizon, m)[0], n_batch))
    box = [((0.0, 0.0), (1.0, 1.0))]
    states = dims(horizon, m)[1] - 1  # all but the known initial state
    calls = 1 + (horizon - 1 if m else 0)
    cases = [(ObstacleSet(box), (states * n_batch, calls)), (ObstacleSet(), (0, 0))]
    for obstacles, expected in cases:
        tested.clear()
        ctrl.evaluate_plan_batch(model, np.zeros(4), flat_batch, horizon, missions, obstacles)
        assert (sum(tested), len(tested)) == expected, obstacles


def _buffer_case():
    """Double integrator over two backups in a degraded mode, with boxes:
    every step buffer, the tail scaling and the occupancy among them."""
    model = DoubleIntegrator(modes=[[1.0, 1.0], [0.6, 0.8]])
    missions = (
        Mission.build([1.5, 1.5, 0, 0]),
        Mission.build([0.0, 1.5, 0, 0], mode=1),
        Mission.build([1.5, 0.0, 0, 0], state_weight=2.0),
    )
    obstacles = ObstacleSet([((0.2, 0.2), (0.8, 0.8))])
    params = make_params(n_samples=64, horizon=6, seed=11)
    return model, missions, obstacles, params, WeightLawParams(gamma=0.66)


def _buffer_steps(n_steps, between=None):
    model, missions, obstacles, params, wl = _buffer_case()
    x = np.array([0.1, 0.0, 0.2, 0.3])
    state = ctrl.init_state(x, params, missions, wl)
    out = []
    for t in range(n_steps):
        if between is not None and t:
            between()
        u, state, diag = ctrl.control_step(x, state, model, missions, obstacles, params, wl)
        out.append((u, state, diag))
        x = step(model, x, u)
    return out


def test_step_does_not_read_what_earlier_steps_left_in_its_buffers():
    def poison():
        store = vars(buffers._local)
        names = {name for name, _ in store}  # keyed by name and dtype
        assert "controller.plan_batch" in names and "controller.tail_states" in names
        for flat in store.values():
            # NaN in the float buffers; every bit set in the others: True in
            # the boolean occupancy buffers, all ones in the noise's raw words
            flat.fill(np.nan if flat.dtype.kind == "f" else ~flat.dtype.type(0))

    clean, poisoned = _buffer_steps(3), _buffer_steps(3, between=poison)
    for (u, state, diag), (u_p, state_p, diag_p) in zip(clean, poisoned):
        assert u.tobytes() == u_p.tobytes()
        assert state.inputs.flat.tobytes() == state_p.inputs.flat.tobytes()
        assert state.alpha.tobytes() == state_p.alpha.tobytes()
        for name, value in vars(diag).items():
            if not name.endswith("_s") and name != "seconds":
                assert np.asarray(value).tobytes() == np.asarray(vars(diag_p)[name]).tobytes()


def test_step_results_outlive_the_next_step():
    [(u, state, diag)] = _buffer_steps(1)
    results = (u, state.inputs.flat, diag.alpha, diag.plan_costs, diag.tail_costs)
    kept = [a.copy() for a in results]
    model, missions, obstacles, params, wl = _buffer_case()
    ctrl.control_step(np.zeros(4), state, model, missions, obstacles, params, wl)
    for before, after in zip(kept, results):
        assert before.tobytes() == after.tobytes()


@pytest.mark.parametrize(
    "scenario, modes",
    [
        ("uav-free-1", [[1.0, 1.0], [0.6, 0.6]]),  # the abort-handover shape
        ("uav-obstacles", None),  # the branches-n20 shape
    ],
)
def test_steady_step_allocates_little(scenario, modes):
    # a steady step reuses its batch-sized buffers; fresh ones cost a page
    # fault per page written (5.5 and 17.4 MB per step when they were new)
    cfg = get_scenario_dict(scenario)
    if modes is not None:
        cfg["model"]["modes"] = modes
    sc = scenario_from_dict(cfg, scenario)
    args = (sc.model, sc.missions, sc.obstacles, sc.controller, sc.weight_law)
    x = np.asarray(sc.x0, dtype=float)
    state = ctrl.init_state(x, sc.controller, sc.missions, sc.weight_law)
    for _ in range(3):
        u, state, _ = ctrl.control_step(x, state, *args)
        x = step(sc.model, x, u)
    tracemalloc.start()
    try:
        ctrl.control_step(x, state, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5e6


def test_step_after_an_abort_reuses_the_larger_step_buffers():
    # the m=0 steps after an abort fit in the storage of the m=2 steps
    # before it (mhmppi.buffers): no new buffer name, none grown
    cfg = get_scenario_dict("uav-free-1")
    cfg["model"]["modes"] = [[1.0, 1.0], [0.6, 0.6]]  # the abort-handover shape
    sc = scenario_from_dict(cfg, "uav-free-1")
    args = (sc.obstacles, sc.controller, sc.weight_law)
    x = np.asarray(sc.x0, dtype=float)
    state = ctrl.init_state(x, sc.controller, sc.missions, sc.weight_law)
    for _ in range(3):
        u, state, _ = ctrl.control_step(x, state, sc.model, sc.missions, *args)
        x = step(sc.model, x, u)
    # the handover of sim.run_closed_loop to backup 1 in mode 1
    primary = (replace(sc.missions[1], mode=1),)
    warm = MultiHorizonInput(state.inputs.horizon, 0, state.inputs.branch_view(1, 0))
    state = ctrl.ControllerState(warm, np.ones(1), state.step_index)
    store = vars(buffers._local)
    before = dict(store)
    tracemalloc.start()
    try:
        _, _, diag = ctrl.control_step(x, state, sc.model, primary, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert diag.alpha.shape == (1,)
    assert store.keys() == before.keys()
    assert all(store[name] is before[name] for name in before)
    assert peak <= 0.5e6
