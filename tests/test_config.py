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
    payload = {"scenario": "uav-free-1", "overrides": {"controller.samples": -3}}
    with pytest.raises(ConfigError, match="n_samples"):
        parse_config(write_config(tmp_path, payload))


def test_sweep_validation(tmp_path):
    payload = {"scenario": "uav-free-1", "sweeps": [{"path": "controller.samples"}]}
    with pytest.raises(ConfigError, match="values"):
        parse_config(write_config(tmp_path, payload))
    payload = {"scenario": "uav-free-1", "seeds": [0, "x"]}
    with pytest.raises(ConfigError, match="seeds"):
        parse_config(write_config(tmp_path, payload))


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


def test_nonzero_extra_target_entries_rejected():
    cfg = get_scenario_dict("ugv-obstacles")
    cfg["missions"][1]["target"] = [2, 6, 0, 5.0]
    with pytest.raises(ConfigError, match="must be zero"):
        scenario_from_dict(cfg)
