from dataclasses import replace

import numpy as np
import pytest

from mhmppi import sim as sim_mod
from mhmppi.controller import ControllerParams, ControllerState
from mhmppi.cost import Mission, ObstacleSet
from mhmppi.dynamics import DoubleIntegrator, step
from mhmppi.errors import ConfigError, NonFiniteCostError
from mhmppi.multi_horizon import MultiHorizonInput, branch_rows, dims
from mhmppi.sim import (
    AbortSpec,
    ClosedLoopTrace,
    Scenario,
    StepRecord,
    Termination,
    analyze,
    is_completed,
    run_closed_loop,
)
from mhmppi.weights import WeightLawParams
from oracle import cost_vector, expand


TARGETS = ([3.0, 3.0, 0.0, 0.0], [-2.0, 3.0, 0.0, 0.0], [3.0, -2.0, 0.0, 0.0])


def state_weighted(*targets):
    """Missions that weigh the state 10x the inputs.  At the default
    state_weight=1 (K=64, temperature 0.5) the sample costs are almost all
    sampled input energy (cost/energy correlation 0.997, median ESS about
    2 of 64), so the executed inputs are mostly noise and whether a run
    completes within its budget is a draw.  Over seeds 0-31, the runs of
    ``test_trace_satisfies_true_dynamics_exactly``,
    ``test_abort_switches_mission_and_mode`` and
    ``test_abort_nearest_policy_single_alternative`` complete 25, 20 and 31
    times at state_weight=1, and 32 times each at 10."""
    return tuple(Mission.build(t, state_weight=10.0) for t in targets)


def small_scenario(seed=0, **kw):
    """Cheap double-integrator scenario for loop mechanics tests."""
    missions = kw.pop("missions", tuple(Mission.build(t) for t in TARGETS))
    model = kw.pop("model", DoubleIntegrator())
    defaults = dict(
        name="small",
        model=model,
        missions=missions,
        obstacles=ObstacleSet(),
        controller=ControllerParams.build(n_samples=64, horizon=5, n_u=2, seed=seed),
        weight_law=WeightLawParams(gamma=0.4),
        x0=np.zeros(4),
        max_steps=150,
        completion_tol=0.5,
    )
    defaults.update(kw)
    return Scenario(**defaults)


def test_is_completed_cases():
    p = np.array([10.0, 10.0, 0.0, 0.0])
    assert is_completed(p, p, tol=1e-12)
    x = np.array([10.0, 10.5, 0.0, 0.0])
    assert is_completed(x, p, tol=0.5)  # boundary inclusive
    assert not is_completed(np.zeros(4), p, tol=0.5)  # distance ~14.14
    with pytest.raises(ConfigError):
        is_completed(p, p, tol=0.0)


def test_immediate_completion_at_start():
    scenario = small_scenario(x0=np.array([3.0, 3.0, 0.0, 0.0]))
    trace = run_closed_loop(scenario)
    assert trace.termination == Termination("completed", 0, 0)
    assert trace.records == []
    assert np.array_equal(trace.final_state, scenario.x0)


def test_trace_satisfies_true_dynamics_exactly():
    missions = state_weighted(*TARGETS)
    scenario = small_scenario(missions=missions, seed=3)
    trace = run_closed_loop(scenario)
    assert trace.termination.kind == "completed"
    model = scenario.model
    states = [r.state for r in trace.records] + [trace.final_state]
    for k, rec in enumerate(trace.records):
        assert np.array_equal(states[k + 1], step(model, rec.state, rec.inp, 0))


def test_completion_monotone_in_tolerance():
    loose = run_closed_loop(small_scenario(completion_tol=1.0, seed=1))
    tight = run_closed_loop(small_scenario(completion_tol=0.4, seed=1))
    assert loose.termination.kind == "completed"
    assert tight.termination.kind == "completed"
    assert loose.termination.steps <= tight.termination.steps


def test_max_steps_termination():
    scenario = small_scenario(max_steps=3)
    trace = run_closed_loop(scenario)
    assert trace.termination == Termination("max_steps", None, 3)
    assert len(trace.records) == 3


def test_abort_switches_mission_and_mode():
    missions = state_weighted(*TARGETS)
    modes = [np.ones(2), np.array([0.6, 0.6])]
    scenario = small_scenario(
        missions=missions,
        model=DoubleIntegrator(modes),
        abort=AbortSpec(step=5, new_mode=1, policy="min_cost"),
        max_steps=200,
        seed=2,
    )
    trace = run_closed_loop(scenario)
    assert trace.termination.kind == "aborted_completed"
    assert trace.termination.mission in (1, 2)
    # post-abort records carry the one-hot of the chosen mission
    expect = np.zeros(3)
    expect[trace.termination.mission] = 1.0
    for rec in trace.records[5:]:
        assert np.array_equal(rec.alpha, expect)
    # executed dynamics switched to the degraded mode at the abort step
    states = [r.state for r in trace.records] + [trace.final_state]
    model = scenario.model
    for k, rec in enumerate(trace.records):
        mode = 0 if k < 5 else 1
        assert np.array_equal(states[k + 1], step(model, rec.state, rec.inp, mode))


def test_plant_steps_in_the_primary_mission_mode():
    # no plant mismatch: the controller rolls the primary out in the
    # primary mission's mode, so the plant steps in that mode too
    primary = Mission.build(TARGETS[0], state_weight=10.0, mode=1)
    missions = (primary, *state_weighted(*TARGETS[1:]))
    model = DoubleIntegrator([np.ones(2), np.array([0.5, 0.5])])
    trace = run_closed_loop(small_scenario(missions=missions, model=model, max_steps=12))
    assert len(trace.records) == 12
    states = [r.state for r in trace.records] + [trace.final_state]
    for k, rec in enumerate(trace.records):
        assert np.array_equal(states[k + 1], step(model, rec.state, rec.inp, 1)), k


def test_abort_warm_start_begins_with_stored_branch(monkeypatch):
    """Every step, before and after the abort, goes through the module
    attribute ``ctrl.control_step``.  The first post-abort step plans for
    the chosen mission alone with no backup horizons, and its plan, once
    shifted, is the stored branch tail for an abort right after the
    executed input, padded with one zero."""
    calls = []  # (missions passed in, state passed in, state returned)
    control_step = sim_mod.ctrl.control_step

    def spy_control_step(x, state, model, missions, *args, **kw):
        out = control_step(x, state, model, missions, *args, **kw)
        calls.append((missions, state, out[1]))
        return out

    monkeypatch.setattr(sim_mod.ctrl, "control_step", spy_control_step)
    scenario = small_scenario(abort=AbortSpec(step=5), max_steps=8, seed=2)
    trace = run_closed_loop(scenario)
    assert len(trace.records) == 8
    assert len(calls) == len(trace.records)
    goal = int(np.argmax(trace.records[5].alpha))
    assert goal in (1, 2)

    mh_state = calls[4][2]
    missions, backup, _ = calls[5]
    assert mh_state.inputs.n_alternatives == 2
    assert len(missions) == 1
    assert np.array_equal(missions[0].target, scenario.missions[goal].target)
    assert missions[0].mode == scenario.abort.new_mode
    assert backup.inputs.n_alternatives == 0
    assert np.array_equal(backup.alpha, [1.0])
    assert backup.step_index == mh_state.step_index
    expect = np.vstack([mh_state.inputs.branch_view(goal, 0)[1:], np.zeros((1, 2))])
    assert np.array_equal(backup.inputs.shift().flat, expect)


def test_min_cost_abort_picks_cheapest_backup_branch():
    # the batched evaluator's choice must match the per-structure oracle,
    # on states where each of the two backups is the cheaper one
    scenario = small_scenario(abort=AbortSpec(step=0, policy="min_cost"))
    model, missions = scenario.model, scenario.missions
    rng = np.random.default_rng(4)
    chosen = set()
    for x in (np.array([-1.5, 2.5, 0.0, 0.0]), np.array([2.5, -1.5, 0.0, 0.0])):
        plan = MultiHorizonInput(5, 2, 0.3 * rng.standard_normal((dims(5, 2)[0], 2)))
        state = ControllerState(plan, np.array([0.6, 0.2, 0.2]), 3)
        shifted = plan.shift()
        traj = expand(model, x, shifted, [mission.mode for mission in missions])
        costs = cost_vector(traj, shifted, missions, scenario.obstacles)
        assert abs(costs[1] - costs[2]) > 1.0
        pick = sim_mod._choose_backup(scenario, x, state)
        assert pick == 1 + int(np.argmin(costs[1:]))
        chosen.add(pick)
    assert chosen == {1, 2}


def _overflowing_backups(overflowing, plan_rows=None):
    """An abort scenario whose backups ``overflowing`` run in a mode of
    scale 1e300, and an abort state at step 7 holding ``plan_rows`` (all
    ones by default)."""
    missions = tuple(
        Mission.build(t, mode=int(i in overflowing)) for i, t in enumerate(TARGETS)
    )
    scenario = small_scenario(
        missions=missions,
        model=DoubleIntegrator([[1.0, 1.0], [1e300, 1e300]]),
        abort=AbortSpec(step=7, policy="min_cost"),
    )
    if plan_rows is None:
        plan_rows = np.ones((dims(5, 2)[0], 2))
    plan = MultiHorizonInput(5, 2, plan_rows)
    return scenario, ControllerState(plan, np.full(3, 1 / 3), 7)


def _alternating_tails(value):
    """Plan rows whose branch-tail inputs flip sign at every time step, so a
    tail velocity that overflows to inf meets -inf and turns NaN."""
    rows = branch_rows(5, 2)
    flat = np.ones((dims(5, 2)[0], 2))
    for t in range(1, 5):
        flat[rows[t, :t]] = (-1.0) ** t * value
    return flat


@pytest.mark.parametrize(
    "overflowing, plan_rows, expected",
    [
        ((2,), None, 1),  # backup 2 costs inf
        ((1,), _alternating_tails(1e10), 2),  # backup 1 costs NaN
    ],
)
def test_min_cost_abort_skips_non_finite_backup_costs(overflowing, plan_rows, expected):
    # the choice runs under the step's overflow scope (no RuntimeWarning,
    # which pytest raises) and takes the least of the finite costs only
    scenario, state = _overflowing_backups(overflowing, plan_rows)
    assert sim_mod._choose_backup(scenario, np.zeros(4), state) == expected


def test_abort_with_no_finite_backup_cost_names_the_step():
    scenario, state = _overflowing_backups((1, 2))
    with pytest.raises(NonFiniteCostError, match="control step 7") as info:
        sim_mod._choose_backup(scenario, np.zeros(4), state)
    assert info.value.step == 7


def test_abort_nearest_policy_single_alternative():
    missions = state_weighted([3.0, 3.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0])
    for seed in (0, 1):
        scenario = small_scenario(
            missions=missions,
            abort=AbortSpec(step=4, policy="nearest"),
            max_steps=200,
            seed=seed,
        )
        trace = run_closed_loop(scenario)
        assert trace.termination == Termination(
            "aborted_completed", 1, trace.termination.steps
        )


def test_abort_validation():
    with pytest.raises(ConfigError):
        small_scenario(abort=AbortSpec(step=500), max_steps=100)
    with pytest.raises(ConfigError):
        AbortSpec(step=-1)
    with pytest.raises(ConfigError):
        AbortSpec(step=1, policy="random")


def test_negative_run_seed_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        small_scenario(max_steps=2, seed=-1)


def test_descent_constraint_along_closed_loop():
    scenario = small_scenario(max_steps=40, seed=5)
    trace = run_closed_loop(scenario)
    alpha_prev = None
    for diag in trace.diagnostics:
        if alpha_prev is not None and diag.plan_costs.size:
            c = diag.plan_costs - diag.tail_costs
            assert c @ diag.alpha <= c @ alpha_prev + 1e-9
        alpha_prev = diag.alpha
        assert abs(diag.alpha.sum() - 1.0) < 1e-9


def test_run_is_deterministic_per_seed():
    modes = [np.ones(2), np.array([0.6, 0.6])]
    abort = dict(model=DoubleIntegrator(modes), abort=AbortSpec(step=5, new_mode=1))
    for kw in ({}, abort):
        a = run_closed_loop(small_scenario(**kw, seed=7))
        b = run_closed_loop(small_scenario(**kw, seed=7))
        assert a.termination == b.termination
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert np.array_equal(ra.state, rb.state)
            assert np.array_equal(ra.inp, rb.inp)
            assert np.array_equal(ra.alpha, rb.alpha)
            assert ra.cost_mean == rb.cost_mean and ra.cost_std == rb.cost_std
        assert np.array_equal(a.final_state, b.final_state)
    # the handover ran: from the abort step on, each step solved a backup's
    # one-mission problem
    assert len(a.records) > 5
    assert all(r.alpha[0] == 0.0 for r in a.records[5:])
    assert all(d.alpha.shape == (1,) for d in a.diagnostics[5:])


# ---------------------------------------------------------------- analyze


def fake_trace(seed, stds, seconds, states=None, scenario="fake", group=None):
    states = states if states is not None else np.zeros((len(stds) + 1, 4))
    records = [
        StepRecord(k, states[k], np.zeros(2), np.array([1.0, 0.0]), 1.0, stds[k], seconds)
        for k in range(len(stds))
    ]
    meta = {
        "scenario": scenario,
        "seed": seed,
        "n_missions": 2,
        "targets": [[9.0, 9.0, 0, 0], [1.0, 1.0, 0, 0]],
    }
    if group:
        meta["group"] = group
    return ClosedLoopTrace(records, Termination("completed", 0, len(stds)), states[-1], meta)


def test_analyze_constant_std_passthrough():
    rows = analyze([fake_trace(0, [2.5, 2.5, 2.5], 0.1)])
    assert rows[0]["mean_cost_std"] == pytest.approx(2.5)
    assert rows[0]["n_runs"] == 1
    assert rows[0]["completion_rate"] == 1.0


def test_analyze_mean_frequency_of_traces():
    t1 = fake_trace(0, [1.0] * 4, seconds=0.5)  # 2 Hz
    t2 = fake_trace(1, [1.0] * 4, seconds=0.25)  # 4 Hz
    rows = analyze([t1, t2])
    assert rows[0]["mean_frequency_hz"] == pytest.approx(3.0)


def test_analyze_min_distance_and_grouping():
    states = np.array([[0, 0, 0, 0], [1.0, 1.0, 0, 0], [5.0, 5.0, 0, 0]])
    t1 = fake_trace(0, [1.0, 1.0], 0.1, states=states, group="a")
    t2 = fake_trace(1, [2.0, 2.0], 0.1, group="b")
    rows = analyze([t1, t2])
    assert [r["group"] for r in rows] == ["a", "b"]
    assert rows[0]["mean_min_dist_alt1"] == pytest.approx(0.0)
    assert rows[1]["mean_min_dist_alt1"] == pytest.approx(np.sqrt(2.0))


def test_analyze_rejects_empty():
    with pytest.raises(ValueError):
        analyze([])


def test_scenario_validation():
    with pytest.raises(ConfigError):
        small_scenario(max_steps=0)
    with pytest.raises(ConfigError):
        small_scenario(completion_tol=0.0)
    with pytest.raises(ConfigError):
        small_scenario(x0=np.zeros(3))
    bad = (Mission.build([0.0, 0, 0, 0]), Mission.build([1.0, 0, 0]))
    with pytest.raises(ConfigError):
        small_scenario(missions=bad)


def test_scenario_missions_are_a_tuple_of_missions():
    missions = [Mission.build(t) for t in TARGETS]
    scenario = small_scenario(missions=missions)
    missions.pop()  # the scenario keeps a copy of the caller's list
    assert type(scenario.missions) is tuple and len(scenario.missions) == len(TARGETS)
    assert all(kept is given for kept, given in zip(scenario.missions, missions))
    for bad, match in [
        ((), "non-empty"),
        ([], "non-empty"),
        (missions[0], "non-empty tuple"),
        ((missions[0], TARGETS[1]), r"missions\[1\] must be a Mission, got list"),
    ]:
        with pytest.raises(ConfigError, match=match):
            small_scenario(missions=bad)
        with pytest.raises(ConfigError, match=match):
            replace(scenario, missions=bad)


def test_scenario_controller_must_fit_the_model():
    # a three-input noise covariance for a two-input model
    scenario = small_scenario()
    with pytest.raises(ConfigError, match="noise_cov must be 2x2"):
        replace(scenario, controller=ControllerParams.build(50, 5, n_u=3))


def test_scenario_fields_checked_not_coerced():
    for bad in (
        dict(max_steps=10.5),
        dict(max_steps=True),
        dict(completion_tol=float("nan")),
        dict(completion_metric="bogus"),
        dict(x0=[0.0, float("inf"), 0.0, 0.0]),
        dict(abort=AbortSpec(step=5, new_mode=0), max_steps=4.0),
    ):
        with pytest.raises(ConfigError):
            small_scenario(**bad)
    with pytest.raises(ConfigError, match="max_steps must be an integer"):
        replace(small_scenario(), max_steps=2.5)
    for bad in (dict(step=20.5), dict(step=True), dict(step=1, new_mode=0.5)):
        with pytest.raises(ConfigError):
            AbortSpec(**bad)


def test_scenario_holds_a_private_read_only_x0():
    x0 = np.zeros(4)
    scenario = small_scenario(x0=x0)
    assert x0.flags.writeable  # the caller's array stays the caller's
    x0[0] = 5.0
    assert scenario.x0[0] == 0.0 and not scenario.x0.flags.writeable
