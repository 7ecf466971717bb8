from dataclasses import replace

import numpy as np
import pytest

from mhmppi.cost import Mission, MissionSet, ObstacleSet, distance
from mhmppi.dynamics import DoubleIntegrator
from mhmppi.errors import ConfigError
from mhmppi.multi_horizon import MultiHorizonInput, dims
from oracle import (
    cost_vector,
    expand,
    from_parts,
    mission_cost,
    rollout,
    stage_cost,
    tail_cost_vector,
)

NO_OBS = ObstacleSet.empty()


def uav_missions(targets):
    return MissionSet(tuple(Mission.build(t) for t in targets))


def test_stage_cost_minimum_at_target():
    mission = Mission.build([10, 10, 0, 0])
    assert stage_cost(mission, [10, 10, 0, 0], [0, 0], NO_OBS) == 0.0


def test_stage_cost_quadratic_value():
    mission = Mission.build([10, 10, 0, 0])
    assert stage_cost(mission, [0, 0, 0, 0], [1, 1], NO_OBS) == pytest.approx(202.0)


def test_stage_cost_obstacle_penalty_only():
    obstacles = ObstacleSet.from_boxes([([9, 9], [11, 11])], penalty=1e4)
    mission = Mission.build([10, 10, 0, 0])
    assert stage_cost(mission, [10, 10, 0, 0], [0, 0], obstacles) == pytest.approx(1e4)
    # boundary is inclusive
    assert stage_cost(mission, [9, 9, 0, 0], [0, 0], obstacles) > 1e3


def test_mission_cost_all_on_target_is_zero():
    mission = Mission.build([1, 2, 0, 0])
    states = np.tile(mission.target, (4, 1))
    assert mission_cost(mission, states, np.zeros((3, 2)), NO_OBS) == 0.0


def test_mission_cost_single_stage_boundary():
    mission = Mission.build([1, 0, 0, 0])
    states = np.array([[0.0, 0, 0, 0], [0.5, 0, 0, 0]])
    inputs = np.array([[2.0, 0]])
    # L(x1, u0) + F(x1)
    expected = (0.25 + 4.0) + 0.25
    assert mission_cost(mission, states, inputs, NO_OBS) == pytest.approx(expected)


def test_mission_cost_frozen_oracle():
    # independent per-term summation of the 2-step rollout toward [10,10]
    model = DoubleIntegrator()
    inputs = np.array([[1.0, 0.0], [1.0, 0.0]])
    states = rollout(model, np.zeros(4), inputs)
    mission = Mission.build([10, 10, 0, 0])
    assert mission_cost(mission, states, inputs, NO_OBS) == pytest.approx(
        601.6902, abs=1e-10
    )


def test_mission_cost_length_mismatch():
    mission = Mission.build([0, 0, 0, 0])
    with pytest.raises(ValueError):
        mission_cost(mission, np.zeros((3, 4)), np.zeros((3, 2)), NO_OBS)


def test_cost_vector_single_branch_average():
    # N=2, m=1: the branch average has one term
    missions = uav_missions([[10, 10, 0, 0], [2, 6, 0, 0]])
    model = DoubleIntegrator()
    rng = np.random.default_rng(2)
    plan = MultiHorizonInput(2, 1, rng.standard_normal((dims(2, 1)[0], 2)))
    traj = expand(model, rng.standard_normal(4), plan)
    vec = cost_vector(traj, plan, missions, NO_OBS)
    direct = mission_cost(
        missions[1], traj.branch_states(1, 0), plan.branch_view(1, 0), NO_OBS
    )
    assert vec[1] == pytest.approx(direct, rel=1e-12)


def test_cost_vector_symmetry_same_targets():
    missions = uav_missions([[3, 4, 0, 0], [3, 4, 0, 0]])
    model = DoubleIntegrator()
    horizon = 4
    primary = np.random.default_rng(4).standard_normal((horizon, 2))
    # identical inputs on every branch: copy the primary suffix into tails
    tails = [[primary[p + 1 :].copy() for p in range(horizon - 1)]]
    plan = from_parts(primary, tails)
    traj = expand(model, np.zeros(4), plan)
    vec = cost_vector(traj, plan, missions, NO_OBS)
    assert vec[1] == pytest.approx(vec[0], rel=1e-12)


def test_cost_vector_branch_average_oracle():
    missions = uav_missions([[10, 10, 0, 0], [2, 6, 0, 0]])
    model = DoubleIntegrator()
    rng = np.random.default_rng(8)
    plan = MultiHorizonInput(3, 1, rng.standard_normal((dims(3, 1)[0], 2)))
    traj = expand(model, rng.standard_normal(4), plan)
    vec = cost_vector(traj, plan, missions, NO_OBS)
    per_branch = [
        mission_cost(missions[1], traj.branch_states(1, p), plan.branch_view(1, p), NO_OBS)
        for p in (0, 1)
    ]
    assert vec[1] == pytest.approx(sum(per_branch) / 2, rel=1e-12)


def test_cost_vector_m0_reduces_to_primary():
    missions = uav_missions([[1, 1, 0, 0]])
    model = DoubleIntegrator()
    plan = MultiHorizonInput.zeros(3, 0, 2)
    traj = expand(model, np.zeros(4), plan)
    vec = cost_vector(traj, plan, missions, NO_OBS)
    assert vec.shape == (1,)
    assert vec[0] == pytest.approx(
        mission_cost(missions[0], traj.primary_states, plan.primary, NO_OBS)
    )


def test_tail_cost_zero_on_target():
    missions = uav_missions([[0, 0, 0, 0], [0, 0, 0, 0]])
    model = DoubleIntegrator()
    plan = MultiHorizonInput.zeros(3, 1, 2)
    traj = expand(model, np.zeros(4), plan)
    assert np.array_equal(tail_cost_vector(traj, plan, missions, NO_OBS), [0.0, 0.0])


def test_tail_cost_truncation_identity():
    # cost - tail equals the cost of the same trajectories with the last
    # stage term removed, verified term by term
    missions = uav_missions([[10, 10, 0, 0], [2, 6, 0, 0], [8, 6, 0, 0]])
    model = DoubleIntegrator()
    rng = np.random.default_rng(12)
    horizon, m = 5, 2
    plan = MultiHorizonInput(horizon, m, rng.standard_normal((dims(horizon, m)[0], 2)))
    traj = expand(model, rng.standard_normal(4), plan)
    full = cost_vector(traj, plan, missions, NO_OBS)
    tail = tail_cost_vector(traj, plan, missions, NO_OBS)

    def truncated(mission, states, inputs):
        total = 0.0
        for k in range(1, states.shape[0] - 1):  # stages 1..N-1 only
            dz = states[k] - mission.target
            total += dz @ mission.state_weight @ dz
            total += inputs[k - 1] @ mission.input_weight @ inputs[k - 1]
        return total

    expect = np.empty(m + 1)
    expect[0] = truncated(missions[0], traj.primary_states, plan.primary)
    for i in (1, 2):
        expect[i] = np.mean(
            [
                truncated(missions[i], traj.branch_states(i, p), plan.branch_view(i, p))
                for p in range(horizon - 1)
            ]
        )
    assert np.allclose(full - tail, expect, rtol=1e-9)


def test_tail_cost_m0_single_component():
    missions = uav_missions([[1, 0, 0, 0]])
    model = DoubleIntegrator()
    rng = np.random.default_rng(21)
    plan = MultiHorizonInput(3, 0, rng.standard_normal((3, 2)))
    traj = expand(model, np.zeros(4), plan)
    tail = tail_cost_vector(traj, plan, missions, NO_OBS)
    x_last = traj.primary_states[-1]
    dz = x_last - missions[0].target
    expected = dz @ dz + plan.primary[-1] @ plan.primary[-1] + dz @ dz
    assert tail.shape == (1,)
    assert tail[0] == pytest.approx(expected, rel=1e-12)


def test_cost_vector_nonnegative_and_scaling():
    model = DoubleIntegrator()
    rng = np.random.default_rng(30)
    horizon, m = 4, 2
    plan = MultiHorizonInput(horizon, m, rng.standard_normal((dims(horizon, m)[0], 2)))
    traj = expand(model, rng.standard_normal(4), plan)
    for c in (1.0, 3.5):
        missions = MissionSet(
            tuple(
                Mission.build(t, state_weight=c, input_weight=c)
                for t in ([10, 10, 0, 0], [2, 6, 0, 0], [8, 6, 0, 0])
            )
        )
        vec = cost_vector(traj, plan, missions, NO_OBS)
        tail = tail_cost_vector(traj, plan, missions, NO_OBS)
        assert np.all(vec >= 0)
        assert np.all(vec - tail >= -1e-12)
        if c == 1.0:
            base = vec
        else:
            assert np.allclose(vec, c * base, rtol=1e-12)


def test_distance_metrics():
    assert distance([0, 0, 9, 9], [3, 4, 0, 0]) == pytest.approx(5.0)
    assert distance([0, 0, 0, 0], [3, 4, 0, 0], "full") == pytest.approx(5.0)
    assert distance([0, 0, 1, 0], [3, 4, 0, 0], "full") == pytest.approx(np.sqrt(26))
    with pytest.raises(ConfigError):
        distance([0, 0], [0, 0], "chebyshev")


def test_obstacle_validation():
    with pytest.raises(ConfigError):
        ObstacleSet.from_boxes([([1, 1], [0, 0])])
    with pytest.raises(ConfigError):
        ObstacleSet.from_boxes([([0, 0], [1, 1])], penalty=-1.0)
    obstacles = ObstacleSet.from_boxes([([0, 0], [1, 1]), ([5, 5], [6, 6])])
    inside = obstacles.inside(np.array([[0.5, 0.5], [2.0, 2.0], [5.5, 6.0]]).T)
    assert inside.tolist() == [True, False, True]


def test_weight_matrix_validation():
    with pytest.raises(ConfigError):
        Mission.build([0, 0, 0, 0], state_weight=np.diag([1.0, 1.0, 1.0, -1.0]))
    with pytest.raises(ConfigError):
        Mission.build([0, 0, 0, 0], input_weight=np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_mission_validated_on_every_construction():
    with pytest.raises(ConfigError, match="positive semidefinite"):
        Mission(np.zeros(4), -np.eye(4), np.eye(2), mode=-3)
    with pytest.raises(ConfigError, match="mode must be >= 0"):
        Mission(np.zeros(4), np.eye(4), np.eye(2), mode=-3)
    mission = Mission.build([1, 2, 0, 0])
    for change in (
        dict(mode=-1),  # as the abort handover's replace would write it
        dict(mode=0.9),
        dict(target=[1.0, np.nan, 0.0, 0.0]),
        dict(state_weight=np.eye(3)),
        dict(input_weight=np.ones((2, 3))),
    ):
        with pytest.raises(ConfigError):
            replace(mission, **change)


def test_mission_holds_private_read_only_copies():
    target, q, r = np.array([1.0, 2.0, 0.0, 0.0]), np.eye(4), 2.0 * np.eye(2)
    mission = Mission.build(target, state_weight=q, input_weight=r)
    # the caller's arrays stay the caller's
    assert target.flags.writeable and q.flags.writeable and r.flags.writeable
    target[0], q[0, 0], r[0, 0] = 9.0, 9.0, 9.0
    assert mission.target[0] == 1.0
    assert mission.state_weight[0, 0] == 1.0 and mission.input_weight[0, 0] == 2.0
    for arr in (mission.target, mission.state_weight, mission.input_weight):
        assert not arr.flags.writeable
