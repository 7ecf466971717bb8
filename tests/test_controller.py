from dataclasses import replace

import numpy as np
import pytest

from mhmppi import controller as ctrl
from mhmppi.config import scenario_from_dict
from mhmppi.cost import Mission, MissionSet, ObstacleSet, cost_vector
from mhmppi.dynamics import DoubleIntegrator, step
from mhmppi.errors import ConfigError
from mhmppi.multi_horizon import MultiHorizonInput, dims, expand
from mhmppi.scenarios import get_scenario_dict
from mhmppi.weights import WeightLawParams

NO_OBS = ObstacleSet.empty()
UAV_MISSIONS = MissionSet(
    (
        Mission.build([10, 10, 0, 0]),
        Mission.build([2, 6, 0, 0]),
        Mission.build([8, 6, 0, 0]),
    )
)


def make_params(**kw):
    defaults = dict(
        n_samples=64, horizon=5, n_alternatives=2, n_u=2, noise_cov=1.0, seed=42
    )
    defaults.update(kw)
    return ctrl.ControllerParams.build(**defaults)


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


def test_sample_noise_deterministic_and_matches_reference():
    params = make_params()
    batch1 = ctrl.sample_noise(params, step_index=7)
    batch2 = ctrl.sample_noise(params, step_index=7)
    assert np.array_equal(batch1, batch2)
    assert not np.array_equal(batch1, ctrl.sample_noise(params, step_index=8))

    key = ctrl.stream_key(params.seed, 7)
    for q in (0, 1, 63):
        ref = ctrl.draw_noise(key, q, batch1.shape[1], params.noise_chol)
        assert np.array_equal(batch1[q], ref)


def test_noise_primary_prefix_shared_across_widths():
    # a narrower draw from the same substream yields the same leading rows
    params = make_params(horizon=6, n_alternatives=2)
    wide = ctrl.sample_noise(params, step_index=3)
    stream = ctrl.NoiseStream(params.seed, 3, params.noise_chol)
    for q in (0, 5, 63):
        narrow = stream.rows(q, params.horizon)
        assert np.array_equal(wide[q, : params.horizon], narrow)


def test_sample_noise_statistics():
    params = make_params(n_samples=500, horizon=10, n_alternatives=2, seed=11)
    batch = ctrl.sample_noise(params, step_index=0)  # 500 x 100 x 2 draws
    flat = batch.reshape(-1, 2)
    n = flat.shape[0]
    assert abs(flat.mean()) < 4.0 / np.sqrt(2 * n)
    assert abs(flat.var() - 1.0) < 0.05
    cross = np.mean(flat[:, 0] * flat[:, 1])
    assert abs(cross) < 4.0 / np.sqrt(n)


def test_sample_noise_applies_covariance():
    cov = np.array([[4.0, 1.0], [1.0, 2.0]])
    params = make_params(n_samples=400, horizon=10, n_alternatives=1, noise_cov=cov)
    batch = ctrl.sample_noise(params, step_index=1).reshape(-1, 2)
    emp = np.cov(batch.T)
    assert np.allclose(emp, cov, atol=0.15)


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


# -------------------------------------------------------------- mppi update


def test_mppi_update_degenerate_and_cancellation():
    plan = MultiHorizonInput.zeros(3, 1, 2)
    noise = np.random.default_rng(0).standard_normal((2, 6, 2))
    w = np.array([0.0, 1.0])
    out = ctrl.mppi_update(plan, noise, w)
    assert np.allclose(out.flat, noise[1])

    out = ctrl.mppi_update(plan, np.zeros((4, 6, 2)), np.full(4, 0.25))
    assert np.array_equal(out.flat, plan.flat)

    sym = np.stack([noise[0], -noise[0]])
    out = ctrl.mppi_update(plan, sym, np.array([0.5, 0.5]))
    assert np.allclose(out.flat, 0.0, atol=1e-16)


# -------------------------------------------------------- full control step


def test_control_step_counters_and_determinism():
    params = make_params(n_samples=32, horizon=5, n_alternatives=2)
    model = DoubleIntegrator()
    wl = WeightLawParams(gamma=0.66)
    x = np.zeros(4)
    state = ctrl.init_state(x, params, UAV_MISSIONS, wl)
    u1, s1, diag = ctrl.control_step(x, state, model, UAV_MISSIONS, NO_OBS, params, wl)
    n_inputs, _ = dims(params.horizon, params.n_alternatives)
    assert diag.n_rollouts == params.n_samples * (1 + 2 * (params.horizon - 1))
    assert diag.n_sim_steps == params.n_samples * n_inputs

    state_b = ctrl.init_state(x, params, UAV_MISSIONS, wl)
    u2, s2, _ = ctrl.control_step(x, state_b, model, UAV_MISSIONS, NO_OBS, params, wl)
    assert np.array_equal(u1, u2)
    assert np.array_equal(s1.inputs.flat, s2.inputs.flat)
    assert np.array_equal(s1.alpha, s2.alpha)


def test_control_step_alpha_on_simplex_and_descent():
    params = make_params(n_samples=48, horizon=6, n_alternatives=2, seed=5)
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


def test_batch_costs_match_structure_route():
    # every batch row must reproduce the per-structure cost vector
    params = make_params(n_samples=8, horizon=5, n_alternatives=2, seed=2)
    model = DoubleIntegrator()
    rng = np.random.default_rng(9)
    x0 = rng.standard_normal(4)
    base = MultiHorizonInput(5, 2, rng.standard_normal((dims(5, 2)[0], 2)))
    noise = ctrl.sample_noise(params, 0)
    flat_batch = base.flat[None] + noise
    costs, _, n_roll, n_steps = ctrl.evaluate_plan_batch(
        model, x0, flat_batch, 5, UAV_MISSIONS, NO_OBS
    )
    for q in range(params.n_samples):
        plan = base.with_flat(flat_batch[q])
        traj = expand(model, x0, plan, UAV_MISSIONS.modes)
        direct = cost_vector(traj, plan, UAV_MISSIONS, NO_OBS)
        assert np.allclose(costs[q], direct, rtol=1e-11, atol=1e-9)
    assert n_roll == 8 * (1 + 2 * 4)
    assert n_steps == 8 * dims(5, 2)[0]


def test_batch_tail_costs_match_structure_route():
    from mhmppi.cost import tail_cost_vector

    model = DoubleIntegrator()
    rng = np.random.default_rng(31)
    x0 = rng.standard_normal(4)
    base = MultiHorizonInput(4, 2, rng.standard_normal((dims(4, 2)[0], 2)))
    shifted = base.shift()  # last input of every plan is the zero pad
    costs, tails, _, _ = ctrl.evaluate_plan_batch(
        model, x0, shifted.flat[None], 4, UAV_MISSIONS, NO_OBS, return_tail_costs=True
    )
    traj = expand(model, x0, shifted, UAV_MISSIONS.modes)
    assert np.allclose(costs[0], cost_vector(traj, shifted, UAV_MISSIONS, NO_OBS), rtol=1e-11)
    assert np.allclose(
        tails[0], tail_cost_vector(traj, shifted, UAV_MISSIONS, NO_OBS), rtol=1e-11
    )


def test_noise_stream_template_reuse_is_exact():
    # drawing advances internal state; the next sample must still match a
    # freshly keyed construction (the template must not alias generator state)
    params = make_params(n_samples=4, horizon=4, n_alternatives=1, seed=99)
    key = ctrl.stream_key(params.seed, 0)
    stream = ctrl.NoiseStream(params.seed, 0, params.noise_chol)
    order = [3, 0, 3, 2, 0, 1]  # revisits must reproduce identical rows
    for q in order:
        assert np.array_equal(
            stream.rows(q, 7), ctrl.draw_noise(key, q, 7, params.noise_chol)
        )


def test_single_step_brute_force_oracle(monkeypatch):
    # N=2, m=1 double-integrator toy, K=2, hand-fixed noise, gamma=0:
    # u_exec must equal the softmax-weighted noise average added to the
    # shifted plan, computed here by an independent step-through
    A = DoubleIntegrator.A
    B = DoubleIntegrator.B
    p0 = np.array([1.0, 0.0, 0.0, 0.0])
    p1 = np.array([0.0, 1.0, 0.0, 0.0])
    missions = MissionSet((Mission.build(p0), Mission.build(p1)))
    params = make_params(n_samples=2, horizon=2, n_alternatives=1, temperature=0.7)
    wl = WeightLawParams(gamma=0.0)
    model = DoubleIntegrator()

    prev = MultiHorizonInput.from_parts(
        [[0.3, -0.2], [0.1, 0.4]], [[[[-0.5, 0.2]]]]
    )
    fixed_noise = np.array(
        [
            [[0.2, 0.1], [-0.3, 0.4], [0.05, -0.1]],
            [[-0.6, 0.3], [0.2, 0.2], [0.4, 0.0]],
        ]
    )
    monkeypatch.setattr(ctrl, "sample_noise", lambda *_: fixed_noise.copy())

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
    assert np.allclose(u_exec, expected_u, rtol=1e-12)


def test_control_cost_flag_changes_weighting():
    params_off = make_params(n_samples=16, horizon=4, n_alternatives=2, seed=3)
    params_on = ctrl.ControllerParams.build(
        n_samples=16, horizon=4, n_alternatives=2, n_u=2, seed=3, control_cost=True
    )
    model = DoubleIntegrator()
    wl = WeightLawParams(gamma=0.5)
    x = np.array([1.0, 1.0, 0.0, 0.0])
    state0 = ctrl.init_state(x, params_off, UAV_MISSIONS, wl)
    # warm the plan so the shifted plan is nonzero and the alignment term bites
    for _ in range(3):
        u, state0, _ = ctrl.control_step(
            x, state0, model, UAV_MISSIONS, NO_OBS, params_off, wl
        )
    u_off, _, _ = ctrl.control_step(
        x, state0, model, UAV_MISSIONS, NO_OBS, params_off, wl
    )
    u_on, _, _ = ctrl.control_step(x, state0, model, UAV_MISSIONS, NO_OBS, params_on, wl)
    assert not np.array_equal(u_off, u_on)


def _gamma_zero_runs(control_cost: bool, n_steps: int = 40):
    """Executed inputs of the m=2 step with gamma=0 and of the m=0 step on
    the primary mission alone, each closing the loop on its own inputs."""
    cfg = get_scenario_dict("uav-obstacles")
    cfg["controller"].update(samples=50, horizon=10, control_cost=control_cost)
    scenario = scenario_from_dict(cfg)
    model, obstacles = scenario.model, scenario.obstacles
    wl = WeightLawParams(gamma=0.0)
    runs = []
    for missions, params in (
        (scenario.missions, scenario.controller),
        (MissionSet((scenario.missions[0],)), replace(scenario.controller, n_alternatives=0)),
    ):
        x = scenario.x0.copy()
        state = ctrl.init_state(x, params, missions, wl)
        inputs = []
        for _ in range(n_steps):
            u, state, _ = ctrl.control_step(x, state, model, missions, obstacles, params, wl)
            inputs.append(u)
            x = step(model, x, u)
        runs.append(np.stack(inputs))
    return runs


def test_gamma_zero_matches_single_mission_step():
    # with no weight on the backups, the branch tails change nothing the
    # plant sees: the m=0 step on the primary mission executes the same bits
    multi, single = _gamma_zero_runs(control_cost=False)
    assert multi.tobytes() == single.tobytes()
    # not so with the control-cost penalty, which spans every flat row,
    # backup tails included; at step 0 the shifted plan is zero and adds none
    multi, single = _gamma_zero_runs(control_cost=True, n_steps=2)
    assert np.array_equal(multi[0], single[0])
    assert not np.array_equal(multi[1], single[1])
