"""Strict experiment/scenario configuration parsing.

Configs are JSON files.  Each scenario section holds the keyword arguments
of the object it builds: ``model`` of its ``kind``'s class, a mission of
:meth:`Mission.build`, ``obstacles`` of :class:`ObstacleSet`,
``controller`` of :meth:`ControllerParams.build` (``samples`` is
``n_samples``), ``weights`` of :class:`WeightLawParams`, ``abort`` of
:class:`AbortSpec` and the top-level keys of :class:`Scenario`.  A key left
out takes the constructor's default; no default is restated here.  Types
are strict: the constructors check every value and convert none, so an
integer rejects 20.5, ``true`` and ``"20"``, and a real value rejects
NaN.  Unknown keys are errors, and every error carries the path of its
section.

An experiment file's keys are the fields of :class:`ExperimentConfig`,
except ``scenario``, which is a built-in name or an inline scenario
object.  The same rules hold there: a key that is left out or ``null``
takes the field's default, and a value of the wrong type (``"out_dir":
5``, ``"overrides": []``) is an error at its key, not coerced.  A fully
resolved per-run config dictionary is hashed (SHA-256 of its canonical
JSON form) into every output file for provenance.
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
_CONTROLLER_KEYS = ("samples", "horizon", "temperature", "noise_cov", "seed")
_WEIGHT_KEYS = ("gamma", "temperature")
_ABORT_KEYS = ("step", "new_mode", "policy")
_SCENARIO_SCALARS = ("x0", "max_steps", "completion_tol", "completion_metric")
_SCENARIO_KEYS = (
    "model", "missions", "obstacles", "controller", "weights", "abort", *_SCENARIO_SCALARS
)
_EXPERIMENT_KEYS = ("scenario", "overrides", "sweeps", "seeds", "out_dir")


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
        with _wrap(mpath):
            missions.append(Mission.build(n_u=model.n_u, **entry))

    abort = None if cfg.get("abort") is None else _build(AbortSpec, cfg, "abort", _ABORT_KEYS)
    with _wrap("scenario"):
        return Scenario(
            name=name,
            model=model,
            missions=MissionSet(tuple(missions)),
            obstacles=_build(ObstacleSet, cfg, "obstacles", _OBSTACLE_KEYS),
            controller=_build(
                ControllerParams.build, cfg, "controller", _CONTROLLER_KEYS, n_u=model.n_u
            ),
            weight_law=_build(WeightLawParams, cfg, "weights", _WEIGHT_KEYS),
            abort=abort,
            **{key: cfg[key] for key in _SCENARIO_SCALARS if key in cfg},
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """A scenario run over the sweep cross product and the seed list.  Every
    construction (direct, :func:`experiment_from_dict` or
    :func:`dataclasses.replace`) is validated here and raises
    :class:`ConfigError`.  ``scenario``, ``overrides``, ``sweeps`` and
    ``seeds`` are private deep copies of the caller's, so they keep
    matching ``runs``, which holds one (sweep point, resolved scenario
    dict) pair per run, each built once, so a bad value is reported
    before any run starts.  A run's dict holds the seed it runs at
    ``controller.seed``: each of ``seeds``, or with None its own."""

    scenario_name: str
    scenario: dict  # resolved scenario config (before overrides/sweeps)
    overrides: dict = field(default_factory=dict)  # {dotted path: value}
    sweeps: list = field(default_factory=list)  # [{"path": ..., "values": [...]}]
    seeds: list | None = None
    out_dir: str = "results"
    runs: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("scenario", "overrides", "sweeps", "seeds"):
            object.__setattr__(self, name, copy.deepcopy(getattr(self, name)))
        if not isinstance(self.overrides, dict):
            raise ConfigError("overrides must be an object of path -> value", path="overrides")
        if not isinstance(self.sweeps, list):
            raise ConfigError("sweeps must be a list", path="sweeps")
        for idx, axis in enumerate(self.sweeps):
            _check_keys(axis, ("path", "values"), f"sweeps[{idx}]")
            if not isinstance(axis.get("path"), str):
                raise ConfigError("sweep path must be a string", path=f"sweeps[{idx}].path")
            if not isinstance(axis.get("values"), list) or not axis["values"]:
                raise ConfigError(
                    "sweep values must be a non-empty list", path=f"sweeps[{idx}].values"
                )
        if self.seeds is not None:
            check_seeds(self.seeds, "seeds")
        if not (isinstance(self.out_dir, str) and self.out_dir):
            raise ConfigError(f"must be a non-empty string, got {self.out_dir!r}", path="out_dir")

        axes = [[(axis["path"], value) for value in axis["values"]] for axis in self.sweeps]
        points = [dict(combo) for combo in itertools.product(*axes)]  # [{}] without sweeps
        seeds = [None] if self.seeds is None else self.seeds
        object.__setattr__(self, "runs", tuple(self._run(p, s) for p in points for s in seeds))

    def _run(self, point: dict, seed: int | None) -> tuple:
        fixed = {} if seed is None else {"controller.seed": seed}
        try:
            scenario, built = resolve_run_scenario(self, {**point, **fixed})
        except ConfigError as exc:
            resolve_run_scenario(self, fixed)  # raises if the sweep point is not at fault
            where = ", ".join(f"{path}={value!r}" for path, value in point.items())
            raise ConfigError(f"at sweep point {where}: {exc}", path="sweeps") from None
        set_by_path(scenario, "controller.seed", built.controller.seed)
        return point, scenario


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
    """Resolve ``scenario`` (a built-in name or an inline object) and pass
    every other key to :class:`ExperimentConfig`; a null key is left out."""
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
    given = {key: value for key, value in raw.items() if key != "scenario" and value is not None}
    return ExperimentConfig(scenario_name=name, scenario=scenario, **given)


def check_seeds(seeds, path: str) -> list:
    """``seeds``, a non-empty list of integers >= 0, as a list."""
    if not (isinstance(seeds, list) and seeds):
        raise ConfigError("seeds must be a non-empty list of integers", path=path)
    with _wrap(path):
        for seed in seeds:
            check_int("seeds", seed, 0)
    return list(seeds)


def resolve_run_scenario(cfg: ExperimentConfig, sweep_point: dict):
    """Scenario dict and built scenario for one run: base config +
    overrides + sweep point."""
    scenario = copy.deepcopy(cfg.scenario)
    for dotted, value in {**cfg.overrides, **sweep_point}.items():
        set_by_path(scenario, dotted, value)
    return scenario, scenario_from_dict(scenario, name=cfg.scenario_name)


def config_hash(resolved_scenario: dict) -> str:
    """SHA-256 prefix of a run's scenario dict, its seed included."""
    payload = json.dumps(resolved_scenario, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
