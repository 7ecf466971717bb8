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
    model = SimpleCar(wheelbase=0.2, time_step=0.1)
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
        SimpleCar(wheelbase=0.0)
    with pytest.raises(ConfigError):
        SimpleCar(time_step=-0.1)
    with pytest.raises(ConfigError):
        DoubleIntegrator([[1.0, -0.1]])


def test_step_is_pure():
    model = DoubleIntegrator()
    x = np.array([1.0, 1.0, 1.0, 1.0])
    u = np.array([2.0, 2.0])
    step(model, x, u)
    assert np.array_equal(x, [1, 1, 1, 1])
    assert np.array_equal(u, [2, 2])
