import json

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
from mhmppi.dynamics import DoubleIntegrator, SimpleCar
from mhmppi.errors import ConfigError
from mhmppi.scenarios import builtin_scenarios, get_scenario_dict


def write_config(tmp_path, payload):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_minimal_config_fully_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"scenario": "uav-free-1"}))
    assert cfg.scenario_name == "uav-free-1"
    assert cfg.seeds == [0]
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
    assert scenario.weight_law.temperature == 1.0
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
    # 4-vector targets are truncated to the car's 3-dim state
    assert ugv.missions[1].target.shape == (3,)
    assert np.array_equal(ugv.missions[1].target, [2, 6, 0])


def test_unknown_keys_rejected_with_path():
    for key in ("bogus", "workers"):
        with pytest.raises(ConfigError, match=f"controller: unknown key '{key}'"):
            scenario_from_dict(
                {**get_scenario_dict("uav-free-1"), "controller": {"samples": 10, key: 1}}
            )
    with pytest.raises(ConfigError, match="unknown key"):
        experiment_from_dict({"scenario": "uav-free-1", "extra": 1})


def test_validation_errors_name_constraint():
    cfg = get_scenario_dict("uav-free-1")
    cfg["controller"]["samples"] = 0
    with pytest.raises(ConfigError, match="n_samples must be >= 1"):
        scenario_from_dict(cfg)


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
    h1 = config_hash(base, 0)
    h2 = config_hash(get_scenario_dict("uav-free-1"), 0)
    assert h1 == h2 and len(h1) == 16
    assert config_hash(base, 1) != h1
    changed = get_scenario_dict("uav-free-1")
    changed["weights"]["gamma"] = 0.0
    assert config_hash(changed, 0) != h1


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


def test_nonzero_extra_target_entries_rejected():
    cfg = get_scenario_dict("ugv-obstacles")
    cfg["missions"][1]["target"] = [2, 6, 0, 5.0]
    with pytest.raises(ConfigError, match="must be zero"):
        scenario_from_dict(cfg)


@pytest.mark.parametrize(
    "payload, path",
    [
        ({"overrides": {"controller.samples": 100.7}}, "controller"),
        ({"overrides": {"controller.samples": True}}, "controller"),
        ({"overrides": {"controller.seed": 1.9}}, "controller"),
        ({"overrides": {"controller.horizon": "12"}}, "controller"),
        ({"overrides": {"controller.control_cost": "false"}}, "controller"),
        ({"overrides": {"max_steps": 10.5}}, "scenario"),
        ({"overrides": {"abort": {"step": 20.5}}}, "abort"),
        ({"overrides": {"missions[0].mode": 0.9}}, "missions[0]"),
        ({"overrides": {"obstacles.boxes": [[[0, 0]]]}}, "obstacles"),
        ({"seeds": [True]}, "seeds"),
    ],
)
def test_values_are_checked_not_coerced(payload, path):
    # each of these once ran as a different experiment: K=100, seed 1, an
    # abort at step 20, control cost on
    with pytest.raises(ConfigError) as err:
        experiment_from_dict({"scenario": "uav-free-1", **payload})
    assert err.value.path == path


@pytest.mark.parametrize(
    "override, path",
    [
        ({"completion_tol": float("nan")}, "scenario"),
        ({"x0": [0.0, float("nan"), 0.0, 0.0]}, "scenario"),
        ({"weights.temperature": float("nan")}, "weights"),
        ({"model.modes": [[1.0, float("nan")]]}, "model"),
        ({"model": {"kind": "simple_car", "wheelbase": float("nan")}}, "model"),
        ({"missions[1].target": [2.0, float("nan"), 0.0, 0.0]}, "missions[1]"),
        ({"obstacles.penalty": float("nan")}, "obstacles"),
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
