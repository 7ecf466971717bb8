import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mhmppi.dynamics import DoubleIntegrator
from mhmppi.errors import ConfigError
from mhmppi.multi_horizon import MultiHorizonInput, branch_rows, dims
from oracle import expand, from_parts, tail_length


def random_plan(horizon, m, n_u=2, seed=0):
    rng = np.random.default_rng(seed)
    n, _ = dims(horizon, m)
    return MultiHorizonInput(horizon, m, rng.standard_normal((n, n_u)))


def test_dims_examples():
    assert dims(3, 1) == (6, 7)
    assert dims(10, 0) == (10, 11)
    assert dims(10, 2) == (100, 101)


def test_dims_rejects_short_horizon():
    with pytest.raises(ConfigError):
        dims(1, 1)
    with pytest.raises(ConfigError):
        dims(0, 0)
    with pytest.raises(ConfigError):
        dims(5, -1)


def test_dims_matches_flattened_structure():
    for horizon in range(2, 13):
        for m in range(5):
            n_inputs, n_states = dims(horizon, m)
            # enumerate the storage: primary then every tail
            count = horizon + sum(
                tail_length(horizon, p) for _ in range(m) for p in range(horizon - 1)
            )
            assert count == n_inputs
            plan = MultiHorizonInput.zeros(horizon, m, 2)
            assert plan.flat.shape == (n_inputs, 2)
            # states: primary N+1 plus one per independent tail input
            assert n_states == (horizon + 1) + (n_inputs - horizon)


def test_branch_view_construction():
    a, b, c, d, e, f = ([v] for v in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    plan = from_parts([a, b, c], [[[d, e], [f]]])
    assert np.array_equal(plan.branch_view(1, 0).ravel(), [1, 4, 5])
    assert np.array_equal(plan.branch_view(1, 1).ravel(), [1, 2, 6])


def test_branch_view_boundary_and_prefix_sharing():
    rng = np.random.default_rng(5)
    for horizon, m in [(2, 1), (5, 2), (8, 3)]:
        plan = random_plan(horizon, m, seed=horizon)
        for i in range(1, m + 1):
            for p in range(horizon - 1):
                view = plan.branch_view(i, p)
                assert view.shape == (horizon, plan.n_u)
                assert np.array_equal(view[: p + 1], plan.primary[: p + 1])
        # boundary p = N-2: N-1 primary inputs plus a single tail input
        view = plan.branch_view(1, horizon - 2)
        assert np.array_equal(view[:-1], plan.primary[:-1])
        last_tail_row = horizon + horizon * (horizon - 1) // 2 - 1  # mission 1's
        assert np.array_equal(view[-1], plan.flat[last_tail_row])


def test_branch_view_is_read_only():
    plan = random_plan(4, 1)
    view = plan.branch_view(1, 1)
    with pytest.raises(ValueError):
        view[0] = 0.0
    with pytest.raises(ValueError):
        plan.primary[0] = 0.0


def test_branch_view_range_checks():
    plan = random_plan(4, 1)
    for i, p in [(0, 0), (2, 0), (1, 3), (1, -1)]:
        with pytest.raises(ValueError):
            plan.branch_view(i, p)


def test_shift_smallest_horizon():
    plan = from_parts([[1.0], [2.0]], [[[[3.0]]]])
    shifted = plan.shift()
    assert np.array_equal(shifted.primary.ravel(), [2, 0])
    assert np.array_equal(shifted.branch_view(1, 0)[1:].ravel(), [0])


def test_shift_zero_fixed_point_and_nilpotence():
    plan = MultiHorizonInput.zeros(5, 2, 2)
    assert np.array_equal(plan.shift().flat, plan.flat)
    plan = random_plan(5, 2, seed=9)
    for _ in range(5):
        plan = plan.shift()
    assert np.array_equal(plan.flat, np.zeros_like(plan.flat))


def test_shift_drops_first_branch_family():
    plan = from_parts(
        [[1.0], [2.0], [3.0]], [[[[4.0], [5.0]], [[6.0]]]]
    )
    shifted = plan.shift()
    assert np.array_equal(shifted.primary.ravel(), [2, 3, 0])
    assert np.array_equal(shifted.branch_view(1, 0).ravel(), [2, 6, 0])
    assert np.array_equal(shifted.branch_view(1, 1).ravel(), [2, 3, 0])
    assert not np.any(np.isin(shifted.flat.ravel(), [4.0, 5.0]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 9), st.integers(0, 3), st.integers(1, 3), st.integers(0, 1 << 30))
@example(2, 1, 2, 0)
@example(9, 3, 2, 0)
def test_shift_reproduces_plan_views(horizon, m, n_u, seed):
    # storage rule vs view rule: entry t of every shifted view (i, p) is
    # entry t+1 of the old view (i, p+1), and its last entry is zero
    plan = random_plan(horizon, m, n_u, seed)
    shifted = plan.shift()
    zero = np.zeros((1, n_u))
    assert np.array_equal(shifted.primary, np.vstack([plan.primary[1:], zero]))
    for i in range(1, m + 1):
        for p in range(horizon - 2):
            expected = np.vstack([plan.branch_view(i, p + 1)[1:], zero])
            assert np.array_equal(shifted.branch_view(i, p), expected)
        # the fresh branch at p = N-2 continues the shifted primary
        expected = np.vstack([plan.primary[1:], zero])
        assert np.array_equal(shifted.branch_view(i, horizon - 2), expected)


def test_branch_rows_address_plan_views():
    # the time-major row table vs the view rule: entry (t, p, i) is the row
    # of branch_view(i, p)[t], a tail row once t > p
    for horizon, m in [(2, 1), (3, 2), (5, 3), (8, 2)]:
        plan = random_plan(horizon, m, seed=horizon + m)
        rows = branch_rows(horizon, m)
        assert rows.shape == (horizon, horizon - 1, m)
        for i in range(1, m + 1):
            for p in range(horizon - 1):
                view = plan.branch_view(i, p)
                for t in range(horizon):
                    assert np.array_equal(plan.flat[rows[t, p, i - 1]], view[t])
                    assert (rows[t, p, i - 1] >= horizon) == (t > p)


def test_flat_layout_is_primary_then_mission_major_tails():
    plan = random_plan(4, 2, seed=3)
    flat = plan.flat
    assert np.array_equal(flat[:4], plan.primary)
    row = 4
    for i in (1, 2):
        for p in range(3):
            stop = row + tail_length(4, p)
            assert np.array_equal(flat[row:stop], plan.branch_view(i, p)[p + 1 :])
            row = stop
    assert row == flat.shape[0]


def hand_counted_rows(horizon, m):
    """The flat layout counted out row by row: primary rows 0..N-1, then the
    tails mission by mission, branch step by branch step, in time order."""
    rows = np.full((horizon, horizon - 1, m), -1)
    for i in range(m):
        for p in range(horizon - 1):
            rows[: p + 1, p, i] = np.arange(p + 1)
    row = horizon
    for i in range(m):
        for p in range(horizon - 1):
            for t in range(p + 1, horizon):
                rows[t, p, i] = row
                row += 1
    assert row == dims(horizon, m)[0]
    return rows


def test_branch_rows_match_hand_counted_layout():
    for horizon in (2, 3, 4, 5, 8):
        for m in (0, 1, 2, 3):
            expected = hand_counted_rows(horizon, m)
            rows = branch_rows(horizon, m)
            assert rows.shape == (horizon, horizon - 1, m)
            assert np.array_equal(rows, expected)
            # the plan views read the same rows of the flat storage
            plan = random_plan(horizon, m, seed=horizon + m)
            assert np.array_equal(plan.primary, plan.flat[:horizon])
            for i in range(1, m + 1):
                for p in range(horizon - 1):
                    view_rows = expected[:, p, i - 1]
                    assert np.array_equal(plan.branch_view(i, p), plan.flat[view_rows])
                    tail = plan.branch_view(i, p)[p + 1 :]
                    assert np.array_equal(tail, plan.flat[view_rows[p + 1 :]])


def test_expand_zero_everything():
    model = DoubleIntegrator()
    plan = MultiHorizonInput.zeros(3, 2, 2)
    traj = expand(model, np.zeros(4), plan)
    assert np.array_equal(traj.primary_states, np.zeros((4, 4)))
    for i in (1, 2):
        for p in (0, 1):
            assert np.array_equal(traj.branch_states(i, p), np.zeros((4, 4)))


def test_expand_branch_recursion_oracle():
    # hand matrix recursion: branch (1,0) applies u0=[1,0] then tail [-1,0]
    model = DoubleIntegrator()
    plan = from_parts([[1.0, 0.0], [1.0, 0.0]], [[[[-1.0, 0.0]]]])
    traj = expand(model, np.zeros(4), plan)
    expected = [[0, 0, 0, 0], [0, 0, 0.1, 0], [0.01, 0, 0, 0]]
    assert np.allclose(traj.branch_states(1, 0), expected)


def test_expand_prefix_equality_exact():
    model = DoubleIntegrator()
    rng = np.random.default_rng(13)
    plan = MultiHorizonInput(6, 2, rng.standard_normal((dims(6, 2)[0], 2)))
    traj = expand(model, rng.standard_normal(4), plan)
    for i in (1, 2):
        for p in range(5):
            branch = traj.branch_states(i, p)
            assert np.array_equal(branch[: p + 2], traj.primary_states[: p + 2])
            assert branch.shape == (7, 4)


def test_expand_uses_mission_modes():
    model = DoubleIntegrator([np.ones(2), np.zeros(2)])
    rng = np.random.default_rng(17)
    plan = MultiHorizonInput(3, 1, rng.standard_normal((6, 2)))
    traj = expand(model, np.zeros(4), plan, mission_modes=(0, 1))
    # mission 1 rolls with zeroed inputs: its tails only drift from the prefix
    for p in (0, 1):
        branch = traj.branch_states(1, p)
        free = [branch[p + 1]]
        for _ in range(branch.shape[0] - p - 2):
            free.append(model.update(free[-1], np.zeros(2)))
        assert np.allclose(branch[p + 1 :], free)
