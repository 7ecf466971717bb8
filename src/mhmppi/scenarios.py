"""Built-in benchmark scenarios, expressed as plain config dictionaries.

All scenarios drive a vehicle from the origin to the primary destination
[10, 10] with two backup destinations.  The aerial set uses the double
integrator; the ground set uses the kinematic car with the same targets.
Obstacle layouts are shared between the aerial and ground obstacle runs.

The dictionaries use the same schema as scenario config files, so CLI
overrides and sweeps apply uniformly; build concrete objects with
:func:`mhmppi.config.scenario_from_dict`.
"""

from __future__ import annotations

import copy

from .errors import ConfigError

_UAV_BASE = {
    "model": {"kind": "double_integrator"},
    "obstacles": {"boxes": []},
    "controller": {
        "samples": 1000,
        "horizon": 10,
        "temperature": 0.5,
        "noise_cov": 1.0,
        "seed": 0,
    },
    "weights": {"gamma": 0.66},
    "x0": [0.0, 0.0, 0.0, 0.0],
    "max_steps": 400,
}

# Two buildings astride the straight route to [10, 10]; the free corridor
# passes the backup rooftops, matching the aerial obstacle benchmark.
_OBSTACLE_BOXES = [
    [[2.5, 2.0], [5.5, 5.0]],
    [[6.5, 6.5], [9.0, 9.5]],
]


def _uav(alternatives, primary=(10.0, 10.0, 0.0, 0.0), **updates) -> dict:
    cfg = copy.deepcopy(_UAV_BASE)
    cfg["missions"] = [{"target": list(p)} for p in (primary, *alternatives)]
    for key, value in updates.items():
        if isinstance(value, dict):
            cfg[key] = {**cfg[key], **value}
        else:
            cfg[key] = value
    return cfg


def builtin_scenarios() -> dict:
    """name -> scenario config dict (fresh copies, safe to mutate)."""
    scenarios = {
        "uav-free-1": _uav([[2.0, 6.0, 0.0, 0.0], [8.0, 6.0, 0.0, 0.0]]),
        "uav-free-2": _uav([[2.0, 8.0, 0.0, 0.0], [6.0, 12.0, 0.0, 0.0]]),
        "uav-opposite": _uav([[-4.0, -4.0, 0.0, 0.0], [-4.0, 8.0, 0.0, 0.0]]),
        "uav-obstacles": _uav(
            [[2.0, 6.0, 0.0, 0.0], [6.0, 12.0, 0.0, 0.0]],
            obstacles={"boxes": copy.deepcopy(_OBSTACLE_BOXES)},
            controller={"horizon": 20},
            max_steps=600,
        ),
        "ugv-obstacles": _uav(
            [[2.0, 6.0, 0.0], [6.0, 12.0, 0.0]],
            primary=(10.0, 10.0, 0.0),
            model={"kind": "simple_car"},
            obstacles={"boxes": copy.deepcopy(_OBSTACLE_BOXES)},
            controller={"samples": 2000},
            x0=[0.0, 0.0, 0.0],
            max_steps=600,
        ),
    }
    return scenarios


SCENARIO_NOTES = {
    "uav-free-1": "aerial, no obstacles, backups at [2,6] and [8,6]",
    "uav-free-2": "aerial, no obstacles, backups at [2,8] and [6,12]",
    "uav-opposite": "aerial, backups behind the start, opposite the goal",
    "uav-obstacles": "aerial, two building boxes, horizon 20",
    "ugv-obstacles": "ground car, same boxes and targets, 2000 samples",
}


def get_scenario_dict(name: str) -> dict:
    scenarios = builtin_scenarios()
    if name not in scenarios:
        known = ", ".join(sorted(scenarios))
        raise ConfigError(f"unknown scenario {name!r}; available: {known}", path="scenario")
    return scenarios[name]
