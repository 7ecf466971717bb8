import numpy as np
import pytest

from mhmppi.dynamics import DoubleIntegrator, SimpleCar, step
from mhmppi.errors import ConfigError
from oracle import rollout


def test_double_integrator_zero_fixed_point():
    model = DoubleIntegrator()
    out = step(model, [0, 0, 0, 0], [0, 0])
    assert np.array_equal(out, np.zeros(4))


def test_double_integrator_single_input():
    # acceleration enters velocity through the 0.1 entries of B
    model = DoubleIntegrator()
    out = step(model, [0, 0, 0, 0], [1, 0])
    assert np.allclose(out, [0, 0, 0.1, 0])


def test_double_integrator_rollout_recursion():
    model = DoubleIntegrator()
    states = rollout(model, [0, 0, 0, 0], [[1, 0], [1, 0]])
    expected = [[0, 0, 0, 0], [0, 0, 0.1, 0], [0.01, 0, 0.2, 0]]
    assert np.allclose(states, expected)


def test_simple_car_straight_line():
    model = SimpleCar()
    out = step(model, [0, 0, 0], [1, 0])
    assert np.allclose(out, [0.1, 0, 0])
    states = rollout(model, [0, 0, 0], [[1, 0]] * 3)
    assert np.allclose(states[:, 0], [0, 0.1, 0.2, 0.3])
    assert np.allclose(states[:, 1:], 0)


def test_simple_car_cannot_turn_in_place():
    model = SimpleCar()
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(3)
        phi = rng.uniform(-1.2, 1.2)
        assert np.array_equal(step(model, x, [0.0, phi]), x)


def test_rollout_empty_inputs_returns_x0():
    model = DoubleIntegrator()
    x0 = np.array([1.0, 2.0, 3.0, 4.0])
    states = rollout(model, x0, np.zeros((0, 2)))
    assert states.shape == (1, 4)
    assert np.array_equal(states[0], x0)


def test_rollout_starts_at_x0_and_composes():
    model = SimpleCar()
    rng = np.random.default_rng(7)
    for _ in range(10):
        x0 = rng.standard_normal(3)
        inputs = rng.standard_normal((8, 2))
        full = rollout(model, x0, inputs)
        assert np.array_equal(full[0], x0)
        first = rollout(model, x0, inputs[:3])
        second = rollout(model, first[-1], inputs[3:])
        assert np.allclose(full, np.vstack([first, second[1:]]))


def test_double_integrator_superposition():
    model = DoubleIntegrator()
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal(4)
    u = rng.standard_normal((6, 2))
    v = rng.standard_normal((6, 2))
    free = rollout(model, x0, np.zeros_like(u))
    lhs = rollout(model, x0, u + v) - rollout(model, x0, u)
    rhs = rollout(model, np.zeros(4), v) - rollout(model, np.zeros(4), np.zeros_like(v))
    assert np.allclose(lhs, rhs)
    assert np.allclose(free[0], x0)


def test_mode_scaling_degrades_input():
    model = DoubleIntegrator([np.ones(2), np.array([0.5, 0.0])])
    full = step(model, [0, 0, 0, 0], [1, 1], mode=0)
    cut = step(model, [0, 0, 0, 0], [1, 1], mode=1)
    assert np.allclose(full, [0, 0, 0.1, 0.1])
    assert np.allclose(cut, [0, 0, 0.05, 0.0])


def test_dimension_and_mode_errors():
    model = DoubleIntegrator()
    with pytest.raises(ValueError):
        step(model, [0, 0, 0], [0, 0])
    with pytest.raises(ValueError):
        step(model, [0, 0, 0, 0], [0, 0, 0])
    with pytest.raises(ConfigError):
        step(model, [0, 0, 0, 0], [0, 0], mode=3)
    with pytest.raises(ConfigError):
        DoubleIntegrator([[1.0, -0.1]])


def test_step_is_pure():
    model = DoubleIntegrator()
    x = np.array([1.0, 1.0, 1.0, 1.0])
    u = np.array([2.0, 2.0])
    step(model, x, u)
    assert np.array_equal(x, [1, 1, 1, 1])
    assert np.array_equal(u, [2, 2])


def _plain_update(model, x, u, s=1.0):
    """The transition under input scale s as plain expressions, one
    component at a time: the double integrator folds s into its time step,
    the car scales its inputs first."""
    dt = model.time_step
    if isinstance(model, DoubleIntegrator):
        return np.concatenate([x[:2] + dt * x[2:], x[2:] + (dt * s) * u])
    theta, (v, phi) = x[2], s * u
    return np.stack(
        [
            x[0] + v * np.cos(theta) * dt,
            x[1] + v * np.sin(theta) * dt,
            theta + (v / model.wheelbase) * np.tan(phi) * dt,
        ]
    )


MODES = [[1, 1], [0.6, 0.7]]


@pytest.mark.parametrize(
    "model, mode",
    [
        pytest.param(model, mode, id=f"model{i}" + ("" if mode is None else "-mode_scale(1)"))
        for mode in (None, 1)
        for i, model in enumerate([DoubleIntegrator(MODES), SimpleCar(modes=MODES)])
    ],
)
@pytest.mark.parametrize("batch", [(), (3, 5)])
def test_update_in_place_is_bit_identical(model, mode, batch):
    rng = np.random.default_rng(len(batch))
    x = rng.standard_normal((model.n_x, *batch))
    u = rng.standard_normal((model.n_u, *batch))
    scale = 1.0
    if mode is not None:
        scale = model.mode_scale(mode).reshape((-1,) + (1,) * len(batch))
    expected = _plain_update(model, x, u, scale)
    assert model.update(x, u, scale=scale).tobytes() == expected.tobytes()
    into = np.empty_like(x)
    assert model.update(x, u, out=into, scale=scale) is into
    assert into.tobytes() == expected.tobytes()
    assert model.update(x, u, out=x, scale=scale) is x
    assert x.tobytes() == expected.tobytes()


@pytest.mark.parametrize("model", [DoubleIntegrator(), SimpleCar()])
def test_update_rejects_wrong_component_counts(model):
    # a car state with a 4th entry once came back with uninitialised memory
    # there, and a 3rd input entry was silently ignored
    x, u = np.zeros(model.n_x), np.zeros(model.n_u)
    for bad_x, bad_u in (
        (np.zeros(model.n_x + 1), u),
        (np.zeros(model.n_x - 1), u),
        (x, np.zeros(model.n_u + 1)),
        (x, np.zeros(1)),
        (np.zeros((model.n_x + 1, 5)), np.zeros((model.n_u, 5))),
    ):
        with pytest.raises(ValueError, match="update takes"):
            model.update(bad_x, bad_u)
    assert model.update(x, u).shape == (model.n_x,)
