"""Strict experiment/scenario configuration parsing.

Configs are JSON files.  Every key is validated; unknown keys are errors
carrying the offending path, as are out-of-range values.  A fully
resolved per-run config dictionary is hashed (SHA-256 of its canonical
JSON form) into every output file for provenance.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .controller import ControllerParams
from .cost import Mission, MissionSet, ObstacleSet
from .dynamics import DoubleIntegrator, ModeParams, SimpleCar
from .errors import ConfigError
from .scenarios import get_scenario_dict
from .sim import AbortSpec, Scenario
from .weights import WeightLawParams


def _check_keys(section: dict, allowed: dict, path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"expected an object, got {type(section).__name__}", path=path)
    for key in section:
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} (allowed: {', '.join(sorted(allowed))})", path=path
            )


def _get(section: dict, key: str, default, path: str):
    value = section.get(key, default)
    if value is None and default is not None:
        raise ConfigError("value must not be null", path=f"{path}.{key}")
    return value


def _wrap(path: str):
    """Re-raise ConfigErrors from object constructors with file context."""
    class _Ctx:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            if exc_type is ConfigError and exc.path is None:
                raise ConfigError(str(exc), path=path) from None
            return False

    return _Ctx()


_MODEL_KEYS = {"kind": None, "wheelbase": None, "time_step": None, "modes": None}
_MISSION_KEYS = {"target": None, "state_weight": None, "input_weight": None, "mode": None}
_OBSTACLE_KEYS = {"boxes": None, "penalty": None}
_CONTROLLER_KEYS = {
    "samples": None,
    "horizon": None,
    "temperature": None,
    "noise_cov": None,
    "seed": None,
    "control_cost": None,
}
_WEIGHT_KEYS = {"gamma": None, "temperature": None, "metric": None}
_ABORT_KEYS = {"step": None, "new_mode": None, "policy": None}
_SCENARIO_KEYS = {
    "model": None,
    "missions": None,
    "obstacles": None,
    "controller": None,
    "weights": None,
    "x0": None,
    "max_steps": None,
    "completion_tol": None,
    "completion_metric": None,
    "abort": None,
}
_EXPERIMENT_KEYS = {
    "scenario": None,
    "overrides": None,
    "sweeps": None,
    "seeds": None,
    "out_dir": None,
}


def _build_model(section: dict, path: str):
    _check_keys(section, _MODEL_KEYS, path)
    kind = _get(section, "kind", None, path)
    if kind is None:
        raise ConfigError("model kind is required", path=f"{path}.kind")
    modes = section.get("modes")
    mode_params = None
    if modes is not None:
        with _wrap(f"{path}.modes"):
            mode_params = tuple(
                ModeParams(j, np.asarray(scale, dtype=float)) for j, scale in enumerate(modes)
            )
    if kind == "double_integrator":
        for key in ("wheelbase", "time_step"):
            if key in section:
                raise ConfigError(
                    f"{key} does not apply to the double integrator", path=f"{path}.{key}"
                )
        with _wrap(path):
            return DoubleIntegrator(mode_params)
    if kind == "simple_car":
        with _wrap(path):
            return SimpleCar(
                wheelbase=float(section.get("wheelbase", 0.2)),
                time_step=float(section.get("time_step", 0.1)),
                modes=mode_params,
            )
    raise ConfigError(
        f"unknown model kind {kind!r} (use double_integrator or simple_car)",
        path=f"{path}.kind",
    )


def _fit_state(vec, n_x: int, path: str) -> np.ndarray:
    """Accept an n_x vector, or a longer one whose extra entries are zero
    (car targets are conventionally written as 4-vectors)."""
    arr = np.asarray(vec, dtype=float)
    if arr.ndim != 1 or arr.shape[0] < n_x:
        raise ConfigError(f"expected a state vector of dim >= {n_x}", path=path)
    if arr.shape[0] > n_x and np.any(arr[n_x:] != 0.0):
        raise ConfigError(
            f"entries beyond dim {n_x} must be zero for this model", path=path
        )
    return arr[:n_x]


def scenario_from_dict(cfg: dict, name: str = "custom") -> Scenario:
    """Validate and build a Scenario from its config dictionary."""
    _check_keys(cfg, _SCENARIO_KEYS, "scenario")
    model = _build_model(_get(cfg, "model", None, "scenario") or {}, "model")

    missions_cfg = _get(cfg, "missions", None, "scenario")
    if not isinstance(missions_cfg, list) or not missions_cfg:
        raise ConfigError("at least the primary mission is required", path="missions")
    missions = []
    for idx, entry in enumerate(missions_cfg):
        mpath = f"missions[{idx}]"
        _check_keys(entry, _MISSION_KEYS, mpath)
        if "target" not in entry:
            raise ConfigError("target is required", path=f"{mpath}.target")
        with _wrap(mpath):
            missions.append(
                Mission.build(
                    _fit_state(entry["target"], model.n_x, f"{mpath}.target"),
                    state_weight=entry.get("state_weight", 1.0),
                    input_weight=entry.get("input_weight", 1.0),
                    mode=int(entry.get("mode", 0)),
                    n_u=model.n_u,
                )
            )
    mission_set = MissionSet(tuple(missions))

    obs_cfg = cfg.get("obstacles") or {}
    _check_keys(obs_cfg, _OBSTACLE_KEYS, "obstacles")
    with _wrap("obstacles"):
        obstacles = ObstacleSet.from_boxes(
            obs_cfg.get("boxes", []), penalty=float(obs_cfg.get("penalty", 1.0e4))
        )

    ctrl_cfg = _get(cfg, "controller", None, "scenario") or {}
    _check_keys(ctrl_cfg, _CONTROLLER_KEYS, "controller")
    with _wrap("controller"):
        controller = ControllerParams.build(
            n_samples=int(_get(ctrl_cfg, "samples", 1000, "controller")),
            horizon=int(_get(ctrl_cfg, "horizon", 10, "controller")),
            n_alternatives=mission_set.n_alternatives,
            n_u=model.n_u,
            noise_cov=ctrl_cfg.get("noise_cov", 1.0),
            temperature=float(ctrl_cfg.get("temperature", 0.5)),
            seed=int(ctrl_cfg.get("seed", 0)),
            control_cost=bool(ctrl_cfg.get("control_cost", False)),
        )

    weights_cfg = cfg.get("weights") or {}
    _check_keys(weights_cfg, _WEIGHT_KEYS, "weights")
    with _wrap("weights"):
        weight_law = WeightLawParams(
            gamma=float(weights_cfg.get("gamma", 0.66)),
            temperature=float(weights_cfg.get("temperature", 1.0)),
            metric=weights_cfg.get("metric", "position"),
        )

    abort_cfg = cfg.get("abort")
    abort = None
    if abort_cfg is not None:
        _check_keys(abort_cfg, _ABORT_KEYS, "abort")
        if "step" not in abort_cfg:
            raise ConfigError("abort step is required", path="abort.step")
        with _wrap("abort"):
            abort = AbortSpec(
                step=int(abort_cfg["step"]),
                new_mode=int(abort_cfg.get("new_mode", 0)),
                policy=abort_cfg.get("policy", "min_cost"),
            )

    with _wrap("scenario"):
        return Scenario(
            name=name,
            model=model,
            missions=mission_set,
            obstacles=obstacles,
            controller=controller,
            weight_law=weight_law,
            x0=_fit_state(_get(cfg, "x0", None, "scenario"), model.n_x, "x0"),
            max_steps=int(cfg.get("max_steps", 400)),
            completion_tol=float(cfg.get("completion_tol", 0.5)),
            completion_metric=cfg.get("completion_metric", "position"),
            abort=abort,
        )


@dataclass
class ExperimentConfig:
    scenario_name: str
    scenario: dict  # resolved scenario config (before overrides/sweeps)
    overrides: dict = field(default_factory=dict)
    sweeps: list = field(default_factory=list)  # [{"path": ..., "values": [...]}]
    seeds: list = field(default_factory=lambda: [0])
    out_dir: str = "results"


def set_by_path(cfg: dict, dotted: str, value) -> None:
    """Assign into a nested config dict via a dotted path like
    ``controller.samples`` or ``missions[1].target``."""
    node = cfg
    parts = dotted.split(".")
    for depth, part in enumerate(parts):
        key, indices = _split_indices(part, dotted)
        last = depth == len(parts) - 1
        try:
            if indices:
                target = node[key]
                for idx in indices[:-1]:
                    target = target[idx]
                if last:
                    target[indices[-1]] = value
                else:
                    node = target[indices[-1]]
            elif last:
                node[key] = value
            else:
                if key not in node or not isinstance(node[key], (dict, list)):
                    node[key] = {}
                node = node[key]
        except (KeyError, IndexError, TypeError):
            raise ConfigError(f"cannot resolve override path {dotted!r}", path=dotted) from None


def _split_indices(part: str, dotted: str) -> tuple[str, list]:
    if "[" not in part:
        return part, []
    key, _, rest = part.partition("[")
    indices = []
    for chunk in rest.split("["):
        if not chunk.endswith("]"):
            raise ConfigError(f"malformed index in override path {dotted!r}", path=dotted)
        try:
            indices.append(int(chunk[:-1]))
        except ValueError:
            raise ConfigError(f"non-integer index in override path {dotted!r}", path=dotted) from None
    return key, indices


def parse_config(path: str) -> ExperimentConfig:
    """Load and strictly validate an experiment config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return experiment_from_dict(raw)


def experiment_from_dict(raw: dict) -> ExperimentConfig:
    _check_keys(raw, _EXPERIMENT_KEYS, "experiment")
    scenario_ref = _get(raw, "scenario", None, "experiment")
    if scenario_ref is None:
        raise ConfigError("scenario is required", path="scenario")
    if isinstance(scenario_ref, str):
        name, scenario = scenario_ref, get_scenario_dict(scenario_ref)
    elif isinstance(scenario_ref, dict):
        name, scenario = "custom", copy.deepcopy(scenario_ref)
    else:
        raise ConfigError("scenario must be a name or an object", path="scenario")

    overrides = raw.get("overrides") or {}
    if not isinstance(overrides, dict):
        raise ConfigError("overrides must be an object of path -> value", path="overrides")

    sweeps = raw.get("sweeps") or []
    if not isinstance(sweeps, list):
        raise ConfigError("sweeps must be a list", path="sweeps")
    for idx, axis in enumerate(sweeps):
        _check_keys(axis, {"path": None, "values": None}, f"sweeps[{idx}]")
        if not isinstance(axis.get("path"), str):
            raise ConfigError("sweep path must be a string", path=f"sweeps[{idx}].path")
        if not isinstance(axis.get("values"), list) or not axis["values"]:
            raise ConfigError(
                "sweep values must be a non-empty list", path=f"sweeps[{idx}].values"
            )

    seeds = raw.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) for s in seeds
    ):
        raise ConfigError("seeds must be a non-empty list of integers", path="seeds")

    cfg = ExperimentConfig(
        scenario_name=name,
        scenario=scenario,
        overrides=overrides,
        sweeps=sweeps,
        seeds=list(seeds),
        out_dir=str(raw.get("out_dir", "results")),
    )
    resolve_run_scenario(cfg, {}, validate_only=True)  # overrides must type-check
    return cfg


def resolve_run_scenario(
    cfg: ExperimentConfig, sweep_point: dict, validate_only: bool = False
):
    """Scenario dict for one run: base config + overrides + sweep point."""
    scenario = copy.deepcopy(cfg.scenario)
    for dotted, value in {**cfg.overrides, **sweep_point}.items():
        set_by_path(scenario, dotted, value)
    built = scenario_from_dict(scenario, name=cfg.scenario_name)
    if validate_only:
        return None
    return scenario, built


def config_hash(resolved_scenario: dict, seed: int) -> str:
    payload = json.dumps(
        {"scenario": resolved_scenario, "seed": seed}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
