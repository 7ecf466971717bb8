import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mhmppi import weights
from mhmppi.config import scenario_from_dict
from mhmppi.cost import Mission
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
    return tuple(Mission.build(t) for t in targets)


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
    # y0's sum may round below 1, which can put c.y0 an ulp under min(c),
    # the least c.alpha over the exact simplex
    b = max(float(c @ y0), float(c.min())) + draw(st.floats(0.0, 5.0))
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
    # at y0.  The multiplier comes from an exact solve, so only rounding
    # (and the last ulp-sized raises of the multiplier) leave a residual:
    # with v in [-5, 5] and c on a 1/8 grid it stayed below 4e-14 over
    # 40000 random instances, well inside 1e-7.
    feasible = [y for y in np.eye(len(v)) if c @ y <= b] + [y0]
    for y in feasible:
        assert (v - alpha) @ (y - alpha) <= 1e-7


@settings(max_examples=300, deadline=None, derandomize=True)
@given(feasible_halfspaces(), st.floats(-6.0, 6.0))
def test_halfspace_projection_does_not_depend_on_constraint_scale(instance, log_scale):
    v, c, b, _ = instance
    scale = 10.0**log_scale
    alpha = project_simplex_halfspace(v, c, b)
    scaled = project_simplex_halfspace(v, scale * c, scale * b)
    assert np.max(np.abs(scaled - alpha)) <= 1e-9


# c spans 144 decades; the entry at 2.7e178 must take no weight
_WIDE_C, _WIDE_B = [9.6e40, 2.7e178, 1.5e34], 5.3e40
_WIDE_T = (_WIDE_B - _WIDE_C[2]) / (_WIDE_C[0] - _WIDE_C[2])
_PREV = [0.0, 0.7751158203375134, 0.22488417966248664]
_CONST_V = [0.14174482133181565, 0.8582551786681845]
_ON_B_V = [-1.0, -0.5, -0.25, 0.25, 0.0]
_TIE_V = [0.05288575775808571, 0.446615042947557, 0.5004991992943572]
_TIE_X = (1.0 + _TIE_V[1] - _TIE_V[2]) / 2.0


@pytest.mark.parametrize(
    "alpha_prev, v, c, b, expected",
    [
        pytest.param(
            None, [0.9, 0.05, 0.05], _WIDE_C, _WIDE_B, [_WIDE_T, 0.0, 1.0 - _WIDE_T],
            id="c-over-144-decades",
        ),
        # through update_weights, whose bound b is then c.alpha_prev; c
        # spans 357 decades and alpha_prev has an exact zero
        pytest.param(
            _PREV,
            [0.0486830396743221, 0.06499720221450227, 0.8863197581111756],
            [3.539286131046636e175, 1.037262985545511e-182, 9.106573886699614e-137],
            None,
            _PREV,
            id="update-with-a-zero-weight",
        ),
        # c.project_simplex(v) is an ulp above b, though every simplex point
        # satisfies c.alpha = b exactly
        pytest.param(None, _CONST_V, [4.875, 4.875], 4.875, _CONST_V, id="constant-c"),
        # c is constant on the support of project_simplex(v), which lies on
        # c.alpha = b but rounds an ulp above it; moving along the path
        # would bring in an entry of lesser c, far from the answer
        pytest.param(
            None, _ON_B_V, [-0.002, -0.002, -0.001, -0.001, -0.001], -0.001,
            [0.0, 0.0, 1 / 12, 7 / 12, 1 / 3], id="constant-c-on-the-support",
        ),
        # b is min(c), shared by two entries: the answer lies where c is
        # least, and only the rounding of its sum can be left to fix
        pytest.param(
            None, [0.81, 0.19, 0.33], [0.452, 0.452, 1.952], 0.452, [0.81, 0.19, 0.0],
            id="b-at-a-tied-least-c",
        ),
        # the same with c over 195 decades; the walk's last breakpoint, where
        # entry 0 leaves, already lies on c.alpha = b
        pytest.param(
            None, _TIE_V, [5.029165558508606e148, 8.127485682152954e-47, 8.127485682152954e-47],
            8.127485682152954e-47, [0.0, _TIE_X, 1.0 - _TIE_X], id="b-at-a-tied-least-c-wide",
        ),
        # divided by the spread of all three, c_2 - c_0 underflows to 0:
        # past the breakpoint where entry 1 leaves, c.alpha must be judged
        # in the units of entries 0 and 2
        pytest.param(
            None,
            [0.3896297989576036, 0.5743649785730788, 0.03600522246931779],
            [5.676925910963019e-167, 9.218925841286628e184, 9.769763230132181e-160],
            5.676925910963019e-167,
            [1.0, 0.0, 0.0],
            id="c-below-the-support-scale",
        ),
        # the same where c.alpha is below b past that breakpoint: judged in
        # the units of all three, the walk would stop before it
        pytest.param(
            None,
            [0.7956282891459369, 0.13335723985365544, 0.07101447100040778],
            [3.668242282722421e-159, 4.483313117211519e-157, 9.089267506149344e178],
            2.4918238824277765e-157,
            [0.8311355246461407, 0.1688644753538593, 0.0],
            id="c-below-the-support-scale-slack",
        ),
    ],
)
def test_halfspace_projection_hard_instances(alpha_prev, v, c, b, expected, monkeypatch):
    # project_simplex(v), the point at the walk's multiplier, and at most
    # two raises of it that remove rounding
    calls = []
    counted = lambda u: calls.append(u) or project_simplex(u)
    monkeypatch.setattr(weights, "project_simplex", counted)
    c = np.array(c)
    if alpha_prev is None:
        alpha = project_simplex_halfspace(v, c, b)
    else:
        alpha = update_weights(alpha_prev, v, c, np.zeros(c.size))
        b = max(c @ np.array(alpha_prev), c.min())
    assert c @ alpha <= b
    assert np.max(np.abs(alpha - expected)) <= 1e-12
    assert len(calls) <= 4


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


def test_update_weights_accepts_weights_summing_an_ulp_under_one():
    # these weights sum to 1 - 1.1e-16, so c.alpha_prev is an ulp under
    # min(c) = 2; alpha_prev is still a feasible simplex point
    alpha = np.array([0.2, 0.7, 0.1])
    assert alpha.sum() < 1.0 and np.full(3, 2.0) @ alpha < 2.0
    out = update_weights(alpha, alpha, np.full(3, 2.0), np.zeros(3))
    assert np.array_equal(out, project_simplex(alpha))


@st.composite
def extreme_updates(draw):
    """(alpha_prev, alpha_desired, c): two simplex points, which may hold
    exact zeros, and costs sign * mantissa * 10^k with k in [-200, 200]."""
    n = draw(st.integers(2, 6))

    def vec(elements):
        return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

    def simplex_point():
        w = vec(st.floats(0.0, 1.0))
        assume(w.sum() > 0.0)
        return w / w.sum()

    signs = vec(st.sampled_from([-1.0, 1.0]))
    mantissas = vec(st.floats(1.0, 10.0, exclude_max=True))
    c = signs * mantissas * 10.0 ** vec(st.integers(-200, 200))
    return simplex_point(), simplex_point(), c


def feasible_vertices(c, b):
    """The vertices of {y on the simplex : c.y <= b}: the simplex vertices
    with c_i <= b, and the points of c.y = b on edges with c_i < b < c_j."""
    n = len(c)
    out = [np.eye(n)[i] for i in range(n) if c[i] <= b]
    for i in range(n):
        for j in range(n):
            if c[i] < b < c[j]:
                t = (c[j] - b) / (c[j] - c[i])
                out.append(t * np.eye(n)[i] + (1.0 - t) * np.eye(n)[j])
    return np.array(out)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(extreme_updates())
def test_update_weights_never_fails_at_extreme_scales(instance):
    alpha_prev, alpha_desired, c = instance
    alpha = update_weights(alpha_prev, alpha_desired, c, np.zeros(c.size))
    assert np.all(alpha >= 0.0)
    assert abs(alpha.sum() - 1.0) <= 1e-12
    b = max(c @ alpha_prev, c.min())
    assert c @ alpha <= b
    # the projection: the variational inequality holds at every vertex of
    # the feasible set, so at all of it.  alpha_desired is on the simplex,
    # so each gap is at most 2 and the bound is some 2000 ulps of that.
    gaps = (feasible_vertices(c, b) - alpha) @ (alpha_desired - alpha)
    assert gaps.max() <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_halfspace_projection_many_missions(seed):
    # the walk's passes grow with the number of entries, not its subsets;
    # v favours the entries of large c, so the halfspace binds
    rng = np.random.default_rng(seed)
    c, y0 = rng.normal(size=60), rng.dirichlet(np.ones(60))
    v = 2.0 * c + rng.normal(size=60)
    alpha = project_simplex_halfspace(v, c, c @ y0)
    assert c @ project_simplex(v) > c @ y0  # the halfspace binds
    assert np.all(alpha >= 0.0) and abs(alpha.sum() - 1.0) <= 1e-12
    assert c @ alpha <= c @ y0
    assert ((feasible_vertices(c, c @ y0) - alpha) @ (v - alpha)).max() <= 1e-12


def test_update_weights_rejects_nonfinite():
    with pytest.raises(ValueError):
        update_weights(np.array([1.0, 0]), np.array([1.0, 0]), np.array([np.inf, 0]), np.zeros(2))
