import dataclasses
import inspect
import json
import re

import numpy as np
import pytest

from mhmppi import config as config_mod
from mhmppi.config import (
    config_hash,
    experiment_from_dict,
    parse_config,
    resolve_run_scenario,
    scenario_from_dict,
    set_by_path,
)
from mhmppi.controller import ControllerParams
from mhmppi.cost import Mission, ObstacleSet
from mhmppi.dynamics import DoubleIntegrator, SimpleCar
from mhmppi.errors import ConfigError
from mhmppi.scenarios import builtin_scenarios, get_scenario_dict
from mhmppi.sim import AbortSpec, Scenario
from mhmppi.weights import WeightLawParams


def write_config(tmp_path, payload):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_minimal_config_fully_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"scenario": "uav-free-1"}))
    assert cfg.scenario_name == "uav-free-1"
    assert cfg.seeds is None
    assert cfg.out_dir == "results"
    _, scenario = resolve_run_scenario(cfg, {})
    assert isinstance(scenario.model, DoubleIntegrator)
    assert scenario.controller.n_samples == 1000
    assert scenario.controller.horizon == 10
    assert scenario.weight_law.gamma == 0.66
    assert scenario.completion_tol == 0.5


def test_benchmark_reference_settings():
    # the first obstacle-free benchmark fixes N=10, K=1000, gamma=0.66
    scenario = scenario_from_dict(get_scenario_dict("uav-free-1"), "uav-free-1")
    assert scenario.controller.horizon == 10
    assert scenario.controller.n_samples == 1000
    assert scenario.controller.temperature == 0.5
    assert scenario.weight_law.gamma == 0.66
    assert np.array_equal(scenario.missions[0].target, [10, 10, 0, 0])
    assert np.array_equal(scenario.missions[1].target, [2, 6, 0, 0])
    assert np.array_equal(scenario.missions[2].target, [8, 6, 0, 0])
    assert np.array_equal(scenario.controller.noise_cov, np.eye(2))


def test_all_builtin_scenarios_build():
    for name in builtin_scenarios():
        scenario = scenario_from_dict(get_scenario_dict(name), name)
        assert scenario.max_steps >= 1
    ugv = scenario_from_dict(get_scenario_dict("ugv-obstacles"), "ugv")
    assert isinstance(ugv.model, SimpleCar)
    assert ugv.missions[1].target.shape == (3,)
    assert np.array_equal(ugv.missions[1].target, [2, 6, 0])


def test_unknown_keys_rejected_with_path():
    # the last is the sample-cost flag that was removed: the cost has one form
    for key in ("bogus", "workers", "control_cost"):
        with pytest.raises(ConfigError, match=f"controller: unknown key '{key}'"):
            scenario_from_dict(
                {**get_scenario_dict("uav-free-1"), "controller": {"samples": 10, key: 1}}
            )
    with pytest.raises(ConfigError, match="unknown key"):
        experiment_from_dict({"scenario": "uav-free-1", "extra": 1})
    # the weight law's distance is always the position-plane distance
    with pytest.raises(ConfigError, match="weights: unknown key 'metric'"):
        scenario_from_dict({**get_scenario_dict("uav-free-1"), "weights": {"metric": "full"}})


def build_with(scenario: str, dotted: str, value):
    """Build the built-in ``scenario`` with ``value`` set at ``dotted``, or
    an experiment of it with the top-level key ``dotted``."""
    if dotted.startswith("experiment."):
        return experiment_from_dict({"scenario": scenario, dotted.split(".", 1)[1]: value})
    cfg = get_scenario_dict(scenario)
    cfg["abort"] = {"step": 5}
    set_by_path(cfg, dotted, value)
    return scenario_from_dict(cfg)


@pytest.mark.parametrize(
    "scenario, section, cls, given",
    [
        ("uav-free-1", "experiment", config_mod.ExperimentConfig, {"scenario_name"}),
        ("uav-free-1", "scenario", Scenario, {"name"}),
        ("uav-free-1", "model", DoubleIntegrator, set()),
        ("ugv-obstacles", "model", SimpleCar, set()),
        ("uav-free-1", "missions[1]", Mission, set()),
        ("uav-free-1", "obstacles", ObstacleSet, set()),
        ("uav-free-1", "controller", ControllerParams, set()),
        ("uav-free-1", "weights", WeightLawParams, set()),
        ("uav-free-1", "abort", AbortSpec, set()),
    ],
)
def test_section_keys_are_the_constructor_parameters(scenario, section, cls, given):
    # JSON spells n_samples "samples" and weight_law "weights"; a parameter
    # the parser passes itself is not a key, and a model's kind names its class
    spelled = {"n_samples": "samples", "weight_law": "weights"}
    expected = {spelled.get(p, p) for p in inspect.signature(cls).parameters} - given
    if section == "model":
        expected.add("kind")
    dotted = "bogus" if section == "scenario" else f"{section}.bogus"
    with pytest.raises(ConfigError, match=f"^{re.escape(section)}: unknown key 'bogus'") as err:
        build_with(scenario, dotted, 1)
    allowed = re.search(r"\(allowed: (.*)\)$", str(err.value)).group(1)
    assert allowed.split(", ") == sorted(expected)


@pytest.mark.parametrize(
    "dotted",
    [
        "controller.n_samples",
        "controller.noise_chol",
        "controller.noise_scale",
        "weight_law",
        "name",
        "experiment.scenario_name",
        "model.wheelbase",  # the car's constants, no parameters of either model
        "model.time_step",
        "weights.temperature",  # the distance softmax runs at temperature 1
        "obstacles.penalty",  # one constant penalty for every box
    ],
)
def test_python_only_and_other_models_keys_rejected(dotted):
    section, _, key = dotted.rpartition(".")
    for scenario in ("uav-free-1", "ugv-obstacles"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'") as err:
            build_with(scenario, dotted, 1)
        assert err.value.path == (section or "scenario")


def test_validation_errors_name_constraint():
    cfg = get_scenario_dict("uav-free-1")
    cfg["controller"]["samples"] = 0
    with pytest.raises(ConfigError, match="n_samples must be >= 1"):
        scenario_from_dict(cfg)


@pytest.mark.parametrize(
    "dotted, value, message",
    [
        ("controller.noise_cov", [[1.0, 0.2], [0.2, 1.0]], "noise_cov must be diagonal"),
        ("controller.noise_cov", [[1.0, 0.0], [0.0, 0.0]], "positive definite"),
        ("controller.noise_cov", 0.0, "positive definite"),
        ("missions[1].state_weight", np.diag([1.0, 0, 0, 0]) + np.eye(4, k=1), "diagonal"),
        ("missions[1].state_weight", np.diag([1.0, 0.0, -0.5, 1.0]), "positive semidefinite"),
        ("missions[2].input_weight", [[0.5, 0.0], [-0.1, 0.5]], "input_weight must be diagonal"),
        ("missions[2].input_weight", -1.0, "positive semidefinite"),
    ],
)
def test_weights_and_covariance_must_be_diagonal(dotted, value, message):
    # Q, R and the noise covariance are diagonal, weights >= 0 and
    # variances > 0; each error names the section that holds the matrix
    value = value.tolist() if isinstance(value, np.ndarray) else value
    with pytest.raises(ConfigError, match=message) as err:
        build_with("uav-free-1", dotted, value)
    assert err.value.path == dotted.rsplit(".", 1)[0]


def test_missing_and_invalid_files(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(str(tmp_path / "nope.json"))
    path = tmp_path / "bad.json"
    path.write_text('{"scenario": ')
    with pytest.raises(ConfigError, match="line"):
        parse_config(str(path))


def test_unknown_scenario_name():
    with pytest.raises(ConfigError, match="unknown scenario"):
        experiment_from_dict({"scenario": "uav-free-99"})


def test_override_paths():
    cfg = get_scenario_dict("uav-free-1")
    set_by_path(cfg, "weights.gamma", 0.0)
    set_by_path(cfg, "controller.samples", 5)
    set_by_path(cfg, "missions[1].target", [4, 4, 0, 0])
    scenario = scenario_from_dict(cfg)
    assert scenario.weight_law.gamma == 0.0
    assert scenario.controller.n_samples == 5
    assert np.array_equal(scenario.missions[1].target, [4, 4, 0, 0])
    with pytest.raises(ConfigError):
        set_by_path(cfg, "missions[9].target", [0, 0, 0, 0])


def test_overrides_type_checked_at_parse_time(tmp_path):
    for value, match in ((-3, "n_samples"), ("abc", "^controller: ")):
        payload = {"scenario": "uav-free-1", "overrides": {"controller.samples": value}}
        with pytest.raises(ConfigError, match=match):
            parse_config(write_config(tmp_path, payload))


def test_sweep_validation(tmp_path):
    payload = {"scenario": "uav-free-1", "sweeps": [{"path": "controller.samples"}]}
    with pytest.raises(ConfigError, match="values"):
        parse_config(write_config(tmp_path, payload))
    payload = {
        "scenario": "uav-free-1",
        "sweeps": [{"path": "weights.gamma", "values": [0.5, 1.5]}],
    }
    with pytest.raises(ConfigError, match=r"^sweeps: at sweep point weights.gamma=1.5: weights: "):
        parse_config(write_config(tmp_path, payload))
    payload = {"scenario": "uav-free-1", "seeds": [0, "x"]}
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(write_config(tmp_path, payload))


def test_negative_controller_seed_rejected():
    cfg = get_scenario_dict("uav-free-1")
    cfg["controller"]["seed"] = -1
    with pytest.raises(ConfigError, match=r"^controller: seed must be >= 0") as err:
        scenario_from_dict(cfg)
    assert err.value.path == "controller"


def test_negative_run_seed_rejected():
    with pytest.raises(ConfigError, match=r"^seeds: seeds must be >= 0") as err:
        experiment_from_dict({"scenario": "uav-free-1", "seeds": [-1, 0]})
    assert err.value.path == "seeds"


def test_inline_scenario(tmp_path):
    inline = get_scenario_dict("uav-free-1")
    inline["max_steps"] = 17
    cfg = parse_config(write_config(tmp_path, {"scenario": inline}))
    _, scenario = resolve_run_scenario(cfg, {})
    assert cfg.scenario_name == "custom"
    assert scenario.max_steps == 17


def test_config_hash_stability():
    base = get_scenario_dict("uav-free-1")
    base["controller"]["seed"] = 0
    h1 = config_hash(base)
    again = get_scenario_dict("uav-free-1")
    again["controller"]["seed"] = 0
    assert config_hash(again) == h1 and len(h1) == 16
    again["controller"]["seed"] = 1
    assert config_hash(again) != h1
    changed = get_scenario_dict("uav-free-1")
    changed["controller"]["seed"] = 0
    changed["weights"]["gamma"] = 0.0
    assert config_hash(changed) != h1


def test_modes_config():
    cfg = get_scenario_dict("uav-free-1")
    cfg["model"]["modes"] = [[1.0, 1.0], [0.5, 1.0]]
    cfg["missions"][1]["mode"] = 1
    scenario = scenario_from_dict(cfg)
    assert len(scenario.model.modes) == 2
    assert scenario.missions[1].mode == 1
    cfg["missions"][1]["mode"] = 7
    with pytest.raises(ConfigError):
        scenario_from_dict(cfg)
    cfg["missions"][1]["mode"] = 0
    for bad in (
        [[1.0, 1.0], [0.5]],  # ragged rows
        [[1.0, 1.0], [0.5, -0.1]],  # negative scale
        [[1.0, 1.0, 1.0]],  # wrong row length
        [1.0, 1.0],  # flat list
    ):
        cfg["model"]["modes"] = bad
        with pytest.raises(ConfigError) as err:
            scenario_from_dict(cfg)
        assert err.value.path.startswith("model")


def test_four_vector_car_targets_rejected():
    # a car target has the car's three state entries; a fourth, even a
    # zero, is an error
    for target in ([2, 6, 0, 0.0], [2, 6, 0, 5.0]):
        cfg = get_scenario_dict("ugv-obstacles")
        cfg["missions"][1]["target"] = target
        with pytest.raises(ConfigError, match=r"missions\[1\] must have a target of dim 3"):
            scenario_from_dict(cfg)


@pytest.mark.parametrize(
    "payload, path",
    [
        ({"overrides": {"controller.samples": 100.7}}, "controller"),
        ({"overrides": {"controller.samples": True}}, "controller"),
        ({"overrides": {"controller.seed": 1.9}}, "controller"),
        ({"overrides": {"controller.horizon": "12"}}, "controller"),
        ({"overrides": {"controller.noise_cov": "1.0"}}, "controller"),
        ({"overrides": {"max_steps": 10.5}}, "scenario"),
        ({"overrides": {"abort": {"step": 20.5}}}, "abort"),
        ({"overrides": {"missions[0].mode": 0.9}}, "missions[0]"),
        ({"overrides": {"obstacles.boxes": [[[0, 0]]]}}, "obstacles"),
        ({"seeds": [True]}, "seeds"),
        ({"out_dir": ""}, "out_dir"),
        ({"out_dir": 5}, "out_dir"),
        ({"overrides": []}, "overrides"),
        ({"overrides": 0}, "overrides"),
        ({"overrides": False}, "overrides"),
        ({"sweeps": {}}, "sweeps"),
        ({"sweeps": 0}, "sweeps"),
    ],
)
def test_values_are_checked_not_coerced(payload, path):
    # each of these once ran as a different experiment: K=100, seed 1, an
    # abort at step 20
    with pytest.raises(ConfigError) as err:
        experiment_from_dict({"scenario": "uav-free-1", **payload})
    assert err.value.path == path


def test_null_experiment_keys_take_the_defaults():
    cfg = experiment_from_dict(
        {"scenario": "uav-free-1", "out_dir": None, "seeds": None, "overrides": None}
    )
    assert cfg.out_dir == "results"
    assert cfg.seeds is None
    assert cfg.overrides == {} and cfg.sweeps == []


def test_every_experiment_construction_is_checked():
    cfg = experiment_from_dict(
        {"scenario": "uav-free-1", "sweeps": [{"path": "weights.gamma", "values": [0.0, 0.5]}]}
    )
    assert [point for point, _ in cfg.runs] == [{"weights.gamma": 0.0}, {"weights.gamma": 0.5}]
    assert [scenario["weights"]["gamma"] for _, scenario in cfg.runs] == [0.0, 0.5]
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.out_dir = "elsewhere"
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(cfg, out_dir="")
    assert err.value.path == "out_dir"
    with pytest.raises(ConfigError) as err:
        dataclasses.replace(cfg, overrides={"controller.samples": 0})
    assert err.value.path == "controller"
    with pytest.raises(ConfigError) as err:
        config_mod.ExperimentConfig("custom", get_scenario_dict("uav-free-1"), seeds=[-1])
    assert err.value.path == "seeds"
    moved = dataclasses.replace(cfg, overrides={"max_steps": 7})
    assert all(scenario["max_steps"] == 7 for _, scenario in moved.runs)


def test_experiment_keeps_its_own_copies():
    overrides, sweeps = {"max_steps": 9}, [{"path": "weights.gamma", "values": [0.0]}]
    cfg = experiment_from_dict({"scenario": "uav-free-1", "overrides": overrides, "sweeps": sweeps})
    overrides["max_steps"] = 3
    sweeps[0]["values"].append(0.5)
    assert cfg.overrides == {"max_steps": 9} and cfg.runs[0][1]["max_steps"] == 9
    assert [point for point, _ in cfg.runs] == [{"weights.gamma": 0.0}]
    assert cfg.sweeps == [{"path": "weights.gamma", "values": [0.0]}]


@pytest.mark.parametrize(
    "override, path",
    [
        ({"completion_tol": float("nan")}, "scenario"),
        ({"x0": [0.0, float("nan"), 0.0, 0.0]}, "scenario"),
        ({"weights.gamma": float("nan")}, "weights"),
        ({"model.modes": [[1.0, float("nan")]]}, "model"),
        ({"model": {"kind": "simple_car", "modes": [[float("nan"), 1.0]]}}, "model"),
        ({"missions[1].target": [2.0, float("nan"), 0.0, 0.0]}, "missions[1]"),
        ({"obstacles.boxes": [[[float("nan"), 0], [1, 1]]]}, "obstacles"),
        ({"obstacles.boxes": [[[0, 0], [float("nan"), 1]]]}, "obstacles"),
    ],
)
def test_non_finite_values_rejected(tmp_path, override, path):
    config_file = write_config(tmp_path, {"scenario": "uav-free-1", "overrides": override})
    with open(config_file, encoding="utf-8") as fh:
        assert "NaN" in fh.read()  # json writes and reads a bare NaN token
    with pytest.raises(ConfigError) as err:
        parse_config(config_file)
    assert err.value.path == path
