import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mhmppi.config import scenario_from_dict
from mhmppi.cost import Mission, MissionSet
from mhmppi.errors import ConfigError, InfeasibleConstraintError
from mhmppi.scenarios import get_scenario_dict
from mhmppi.weights import (
    WeightLawParams,
    desired_weights,
    project_simplex,
    project_simplex_halfspace,
    update_weights,
)


def missions_at(targets):
    return MissionSet(tuple(Mission.build(t) for t in targets))


def missions_with_distances(dists):
    """Primary at the origin-facing point; targets placed on the x axis so
    the position distance from x=0 equals each requested value."""
    return missions_at([[d, 0, 0, 0] for d in dists]), np.zeros(4)


# ---------------------------------------------------------------- desired


def test_desired_weights_gamma_zero_is_primary_only():
    missions, x = missions_with_distances([3.0, 1.0, 0.1])
    params = WeightLawParams(gamma=0.0)
    assert np.array_equal(desired_weights(x, missions, params), [1.0, 0.0, 0.0])


def test_desired_weights_equal_distance_symmetry():
    missions, x = missions_with_distances([2.0, 2.0])
    params = WeightLawParams(gamma=0.5)
    alpha = desired_weights(x, missions, params)
    assert np.allclose(alpha, [0.75, 0.25])


def test_desired_weights_gibbs_oracle():
    # distances (1, 2, 3), temperature 1, gamma 0.66; frozen from a direct
    # evaluation of the exponential weighting
    missions, x = missions_with_distances([1.0, 2.0, 3.0])
    params = WeightLawParams(gamma=0.66, temperature=1.0)
    alpha = desired_weights(x, missions, params)
    assert np.allclose(alpha, [0.77905903, 0.16152079, 0.05942018], atol=1e-8)


def test_desired_weights_simplex_and_floor():
    rng = np.random.default_rng(0)
    params = WeightLawParams(gamma=0.66)
    missions = missions_at(rng.uniform(-10, 10, size=(4, 4)))
    for _ in range(50):
        x = rng.uniform(-15, 15, size=4)
        alpha = desired_weights(x, missions, params)
        assert abs(alpha.sum() - 1.0) < 1e-12
        assert np.all(alpha >= 0)
        assert np.all(alpha <= 1)
        assert alpha[0] >= 1 - params.gamma - 1e-12


def test_desired_weights_monotone_in_primary_distance():
    params = WeightLawParams(gamma=0.66)
    prev = -1.0
    for d0 in [8.0, 6.0, 4.0, 2.0, 1.0, 0.5]:
        missions, x = missions_with_distances([d0, 5.0])
        alpha = desired_weights(x, missions, params)
        assert alpha[0] > prev
        prev = alpha[0]


def test_desired_weights_finite_when_every_distance_overflows():
    # at 1e200 the squared offsets overflow, so every distance is inf and
    # no mission is nearer than another: the Gibbs part is uniform
    scenario = scenario_from_dict(get_scenario_dict("uav-free-1"))
    params = scenario.weight_law
    alpha = desired_weights(np.array([1e200, 0.0, 0.0, 0.0]), scenario.missions, params)
    gamma = params.gamma
    assert np.array_equal(alpha, [1.0 - gamma + gamma / 3, gamma / 3, gamma / 3])
    assert abs(alpha.sum() - 1.0) < 1e-12


def test_desired_weights_ignore_infinitely_far_missions():
    # an infinite distance gets weight 0; the finite ones keep theirs
    x = np.zeros(4)
    far = missions_at([[1.0, 0, 0, 0], [2.0, 0, 0, 0], [1e300, 1e300, 0, 0]])
    params = WeightLawParams(gamma=0.66)
    near = desired_weights(x, missions_at([[1.0, 0, 0, 0], [2.0, 0, 0, 0]]), params)
    alpha = desired_weights(x, far, params)
    assert alpha[2] == 0.0
    assert np.array_equal(alpha[:2], near)


def test_weight_law_validation():
    with pytest.raises(ConfigError):
        WeightLawParams(gamma=1.0)
    with pytest.raises(ConfigError):
        WeightLawParams(gamma=-0.1)
    with pytest.raises(ConfigError):
        WeightLawParams(temperature=0.0)
    with pytest.raises(ConfigError):
        WeightLawParams(metric="manhattan")


# ------------------------------------------------------------- projection


def grid_project(v, c, b, coarse=1e-3, fine=1e-5):
    """Brute-force projection onto the constrained simplex by grid search
    (3-dim only), refined locally around the best coarse point."""
    v = np.asarray(v, float)

    def best_on(grid01):
        a0, a1 = grid01
        a2 = 1.0 - a0 - a1
        ok = (a2 >= -1e-12) & (a0 * c[0] + a1 * c[1] + a2 * c[2] <= b + 1e-12)
        if not np.any(ok):
            return None
        pts = np.stack([a0[ok], a1[ok], np.maximum(a2[ok], 0.0)], axis=1)
        d2 = ((pts - v) ** 2).sum(axis=1)
        return pts[np.argmin(d2)]

    ticks = np.arange(0.0, 1.0 + coarse / 2, coarse)
    a0, a1 = np.meshgrid(ticks, ticks, indexing="ij")
    best = best_on((a0.ravel(), a1.ravel()))
    assert best is not None
    lo0, lo1 = max(best[0] - 2 * coarse, 0.0), max(best[1] - 2 * coarse, 0.0)
    t0 = np.arange(lo0, min(best[0] + 2 * coarse, 1.0) + fine / 2, fine)
    t1 = np.arange(lo1, min(best[1] + 2 * coarse, 1.0) + fine / 2, fine)
    a0, a1 = np.meshgrid(t0, t1, indexing="ij")
    refined = best_on((a0.ravel(), a1.ravel()))
    return refined if refined is not None else best


def test_project_simplex_known_points():
    assert np.allclose(project_simplex(np.array([2.0, 0.0])), [1.0, 0.0])
    assert np.array_equal(project_simplex(np.array([1.0, 0.0, 0.0])), [1, 0, 0])
    v = np.array([0.2, 0.3, 0.5])
    assert np.allclose(project_simplex(v), v)


def test_halfspace_projection_fixed_points():
    v = np.array([0.2, 0.8])
    out = project_simplex_halfspace(v, np.array([1.0, 2.0]), b=2.0)
    assert np.allclose(out, v)
    out = project_simplex_halfspace(np.array([2.0, 0.0]), np.zeros(2), b=0.0)
    assert np.allclose(out, [1.0, 0.0])


def test_halfspace_projection_infeasible():
    with pytest.raises(InfeasibleConstraintError):
        project_simplex_halfspace(np.array([0.5, 0.5]), np.array([1.0, 2.0]), b=0.5)


def test_halfspace_projection_matches_grid_oracle():
    rng = np.random.default_rng(123)
    for _ in range(25):
        v = rng.dirichlet(np.ones(3))
        c = rng.normal(0, 2, size=3)
        alpha_prev = rng.dirichlet(np.ones(3))
        b = float(c @ alpha_prev)
        ours = project_simplex_halfspace(v, c, b)
        oracle = grid_project(v, c, b)
        assert np.max(np.abs(ours - oracle)) < 1e-3
        assert c @ ours <= b + 1e-9


def test_halfspace_projection_variational_certificate():
    # projection characterization: (v - x*) . (y - x*) <= 0 for feasible y
    rng = np.random.default_rng(7)
    for _ in range(20):
        v = rng.normal(0, 1, size=4)
        c = rng.normal(0, 1, size=4)
        alpha_prev = rng.dirichlet(np.ones(4))
        b = float(c @ alpha_prev)
        x = project_simplex_halfspace(v, c, b)
        assert abs(x.sum() - 1) < 1e-9 and np.all(x >= -1e-12)
        assert c @ x <= b + 1e-9
        ys = rng.dirichlet(np.ones(4), size=4000)
        feasible = ys[ys @ c <= b]
        if feasible.size:
            gaps = (feasible - x) @ (v - x)
            assert gaps.max() <= 1e-8


@st.composite
def feasible_halfspaces(draw):
    """(v, c, b, y0): a projection target v, and a halfspace c.alpha <= b
    that the simplex point y0 satisfies.  The entries of c lie on a 1/8
    grid, so two unequal entries differ by at least 1/8."""
    n = draw(st.integers(2, 6))

    def vec(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    v = vec(st.floats(-5.0, 5.0))
    c = vec(st.integers(-64, 64)) / 8.0
    w = vec(st.floats(0.0, 1.0))
    assume(w.sum() > 0.0)
    y0 = w / w.sum()
    b = float(c @ y0) + draw(st.floats(0.0, 5.0))
    return v, c, b, y0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(feasible_halfspaces())
def test_halfspace_projection_properties(instance):
    v, c, b, y0 = instance
    alpha = project_simplex_halfspace(v, c, b)
    assert np.all(alpha >= 0.0)
    assert abs(alpha.sum() - 1.0) <= 1e-12
    assert c @ alpha <= b
    # variational inequality of the projection at every feasible vertex and
    # at y0.  Bisection stops within 1e-10 * max|c| <= 8e-10 of the
    # boundary, which leaves a residual of up to mu * 8e-10.  With v in
    # [-5, 5] and unequal entries of c at least 1/8 apart, the multiplier mu
    # stays near (10 + 1) * 8 at most, so the residual stays below 1e-7.
    feasible = [y for y in np.eye(len(v)) if c @ y <= b] + [y0]
    for y in feasible:
        assert (v - alpha) @ (y - alpha) <= 1e-7


@settings(max_examples=300, deadline=None, derandomize=True)
@given(feasible_halfspaces(), st.floats(-6.0, 6.0))
def test_halfspace_projection_does_not_depend_on_constraint_scale(instance, log_scale):
    v, c, b, _ = instance
    # y0's sum may round below 1, which can leave b an ulp under min(c)
    assume(b >= c.min())
    scale = 10.0**log_scale
    alpha = project_simplex_halfspace(v, c, b)
    scaled = project_simplex_halfspace(v, scale * c, scale * b)
    assert np.max(np.abs(scaled - alpha)) <= 1e-9


def test_halfspace_projection_small_constraint_vector():
    # a residual of 1e-10 on c.alpha would leave this about 1e-4 off
    v, c = np.array([0.0, 1.0]), np.array([0.0, 1e-6])
    alpha = project_simplex_halfspace(v, c, b=5e-7)
    assert np.max(np.abs(alpha - [0.5, 0.5])) <= 1e-9


# ------------------------------------------------------------------ update


def test_update_weights_returns_desired_when_feasible():
    alpha_prev = np.array([0.5, 0.5])
    alpha_d = np.array([0.6, 0.4])
    # c = J - F favors the first mission, and alpha_d moves toward it
    out = update_weights(alpha_prev, alpha_d, np.array([1.0, 3.0]), np.array([0.5, 0.5]))
    assert np.allclose(out, alpha_d)


def test_update_weights_zero_constraint_vector():
    alpha_prev = np.array([1 / 3] * 3)
    alpha_d = np.array([0.1, 0.2, 0.7])
    out = update_weights(alpha_prev, alpha_d, np.ones(3), np.ones(3))
    assert np.allclose(out, alpha_d)


def test_update_weights_infeasible_desired_matches_oracle():
    alpha_prev = np.array([1 / 3] * 3)
    c = np.array([0.0, 1.0, 2.0])
    alpha_d = np.array([0.1, 0.2, 0.7])
    out = update_weights(alpha_prev, alpha_d, c, np.zeros(3))
    oracle = grid_project(alpha_d, c, float(c @ alpha_prev))
    assert np.max(np.abs(out - oracle)) < 1e-3
    assert c @ out <= c @ alpha_prev + 1e-9


def test_update_weights_gamma_zero_recursively_feasible():
    rng = np.random.default_rng(5)
    alpha = np.zeros(4)
    alpha[0] = 1.0
    for _ in range(50):
        costs = rng.uniform(0, 100, size=4)
        tails = rng.uniform(0, 1, size=4)
        alpha = update_weights(alpha, np.array([1.0, 0, 0, 0]), costs, tails)
        assert np.array_equal(alpha, [1.0, 0.0, 0.0, 0.0])


def test_update_weights_rejects_nonfinite():
    with pytest.raises(ValueError):
        update_weights(np.array([1.0, 0]), np.array([1.0, 0]), np.array([np.inf, 0]), np.zeros(2))
