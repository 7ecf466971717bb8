"""Strict experiment/scenario configuration parsing.

Configs are JSON files.  Each scenario section holds the keyword arguments
of the object it builds: ``model`` of its ``kind``'s class, a mission of
:meth:`Mission.build`, ``obstacles`` of :meth:`ObstacleSet.from_boxes`,
``controller`` of :meth:`ControllerParams.build` (``samples`` is
``n_samples``), ``weights`` of :class:`WeightLawParams`, ``abort`` of
:class:`AbortSpec` and the top-level keys of :class:`Scenario`.  A key left
out takes the constructor's default; no default is restated here.  Types
are strict: the constructors check every value and convert none, so an
integer rejects 20.5, ``true`` and ``"20"``, a flag rejects ``"false"``,
and a real value rejects NaN.  Unknown keys are errors, and every error
carries the path of its section.  A fully resolved per-run config
dictionary is hashed (SHA-256 of its canonical JSON form) into every
output file for provenance.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import itertools
import json
from dataclasses import dataclass, field

from .controller import ControllerParams
from .cost import Mission, MissionSet, ObstacleSet
from .dynamics import DoubleIntegrator, SimpleCar
from .errors import ConfigError, check_int
from .scenarios import get_scenario_dict
from .sim import AbortSpec, Scenario
from .weights import WeightLawParams


def _check_keys(section: dict, allowed: tuple, path: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"expected an object, got {type(section).__name__}", path=path)
    for key in section:
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} (allowed: {', '.join(sorted(allowed))})", path=path
            )


@contextlib.contextmanager
def _wrap(path: str):
    """Locate errors from building the object at ``path``: a ConfigError
    without a path, or the TypeError/ValueError of a mistyped value."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError) and exc.path is not None:
            raise
        raise ConfigError(str(exc), path=path) from None


def _build(make, cfg: dict, key: str, keys: tuple, **given):
    """``make(**given, **section)`` for the section ``cfg[key]``: its keys
    checked against ``keys``, ``samples`` passed as ``n_samples``, and an
    error located at ``key``.  An absent or null section is empty."""
    section = {} if cfg.get(key) is None else cfg[key]
    _check_keys(section, keys, key)
    with _wrap(key):
        return make(**given, **{_PARAMETERS.get(k, k): v for k, v in section.items()})


def _model(kind=None, **params):
    """The model class ``kind`` built from the rest of its section."""
    if not isinstance(kind, str) or kind not in _MODELS:
        raise ConfigError(
            f"unknown model kind {kind!r} (use {' or '.join(_MODELS)})", path="model.kind"
        )
    return _MODELS[kind](**params)


_MODELS = {"double_integrator": DoubleIntegrator, "simple_car": SimpleCar}
_PARAMETERS = {"samples": "n_samples"}  # JSON key -> parameter, where they differ
_MODEL_KEYS = ("kind", "wheelbase", "time_step", "modes")
_MISSION_KEYS = ("target", "state_weight", "input_weight", "mode")
_OBSTACLE_KEYS = ("boxes", "penalty")
_CONTROLLER_KEYS = ("samples", "horizon", "temperature", "noise_cov", "seed", "control_cost")
_WEIGHT_KEYS = ("gamma", "temperature", "metric")
_ABORT_KEYS = ("step", "new_mode", "policy")
_SCENARIO_SCALARS = ("x0", "max_steps", "completion_tol", "completion_metric")
_SCENARIO_KEYS = (
    "model", "missions", "obstacles", "controller", "weights", "abort", *_SCENARIO_SCALARS
)
_EXPERIMENT_KEYS = ("scenario", "overrides", "sweeps", "seeds", "out_dir")


def _fit_state(section: dict, key: str, n_x: int, path: str) -> dict:
    """``section`` with the list ``section[key]`` cut to n_x entries when its
    extra entries are zero (car targets are conventionally written as
    4-vectors)."""
    vec = section.get(key)
    if not isinstance(vec, list) or len(vec) <= n_x:
        return section
    if any(v != 0 for v in vec[n_x:]):
        raise ConfigError(f"entries beyond dim {n_x} must be zero for this model", path=path)
    return {**section, key: vec[:n_x]}


def scenario_from_dict(cfg: dict, name: str = "custom") -> Scenario:
    """Validate and build a Scenario from its config dictionary.  Each
    section's entries are the keyword arguments of the object it builds."""
    _check_keys(cfg, _SCENARIO_KEYS, "scenario")
    model = _build(_model, cfg, "model", _MODEL_KEYS)

    missions_cfg = cfg.get("missions")
    if not isinstance(missions_cfg, list) or not missions_cfg:
        raise ConfigError("at least the primary mission is required", path="missions")
    missions = []
    for idx, entry in enumerate(missions_cfg):
        mpath = f"missions[{idx}]"
        _check_keys(entry, _MISSION_KEYS, mpath)
        entry = _fit_state(entry, "target", model.n_x, f"{mpath}.target")
        with _wrap(mpath):
            missions.append(Mission.build(n_u=model.n_u, **entry))

    abort = None if cfg.get("abort") is None else _build(AbortSpec, cfg, "abort", _ABORT_KEYS)
    scalars = _fit_state(cfg, "x0", model.n_x, "x0")
    with _wrap("scenario"):
        return Scenario(
            name=name,
            model=model,
            missions=MissionSet(tuple(missions)),
            obstacles=_build(ObstacleSet.from_boxes, cfg, "obstacles", _OBSTACLE_KEYS),
            controller=_build(
                ControllerParams.build, cfg, "controller", _CONTROLLER_KEYS, n_u=model.n_u
            ),
            weight_law=_build(WeightLawParams, cfg, "weights", _WEIGHT_KEYS),
            abort=abort,
            **{key: scalars[key] for key in _SCENARIO_SCALARS if key in scalars},
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
    scenario_ref = raw.get("scenario")
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
        _check_keys(axis, ("path", "values"), f"sweeps[{idx}]")
        if not isinstance(axis.get("path"), str):
            raise ConfigError("sweep path must be a string", path=f"sweeps[{idx}].path")
        if not isinstance(axis.get("values"), list) or not axis["values"]:
            raise ConfigError(
                "sweep values must be a non-empty list", path=f"sweeps[{idx}].values"
            )

    cfg = ExperimentConfig(
        scenario_name=name,
        scenario=scenario,
        overrides=overrides,
        sweeps=sweeps,
        seeds=check_seeds(raw.get("seeds", [0]), "seeds"),
        out_dir=str(raw.get("out_dir", "results")),
    )
    check_runs(cfg)
    return cfg


def check_seeds(seeds, path: str) -> list:
    """``seeds``, a non-empty list of integers >= 0, as a list."""
    if not (isinstance(seeds, list) and seeds):
        raise ConfigError("seeds must be a non-empty list of integers", path=path)
    with _wrap(path):
        for seed in seeds:
            check_int("seeds", seed, 0)
    return list(seeds)


def sweep_points(cfg: ExperimentConfig) -> list:
    """Every point of the sweep cross product, as ``{path: value}`` dicts;
    one empty point when there are no sweeps."""
    axes = [[(axis["path"], value) for value in axis["values"]] for axis in cfg.sweeps]
    return [dict(combo) for combo in itertools.product(*axes)]


def check_runs(cfg: ExperimentConfig) -> None:
    """Build the scenario of every sweep point once, so that a bad override
    or sweep value is reported before any run starts."""
    resolve_run_scenario(cfg, {})  # the overrides alone
    for point in sweep_points(cfg) if cfg.sweeps else ():
        try:
            resolve_run_scenario(cfg, point)
        except ConfigError as exc:
            at = ", ".join(f"{path}={value!r}" for path, value in point.items())
            raise ConfigError(f"at sweep point {at}: {exc}", path="sweeps") from None


def resolve_run_scenario(cfg: ExperimentConfig, sweep_point: dict):
    """Scenario dict and built scenario for one run: base config +
    overrides + sweep point."""
    scenario = copy.deepcopy(cfg.scenario)
    for dotted, value in {**cfg.overrides, **sweep_point}.items():
        set_by_path(scenario, dotted, value)
    return scenario, scenario_from_dict(scenario, name=cfg.scenario_name)


def config_hash(resolved_scenario: dict, seed: int) -> str:
    payload = json.dumps(
        {"scenario": resolved_scenario, "seed": seed}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
