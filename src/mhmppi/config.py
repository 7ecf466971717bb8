"""Strict experiment/scenario configuration parsing.

Configs are JSON files, and the one rule is: a section's keys are the
constructor parameters of the class it builds, read from its signature,
spelled ``samples`` for ``n_samples`` and ``weights`` for ``weight_law``.
A scenario's top level builds :class:`Scenario`, ``model`` the class its
``kind`` names, each mission :class:`Mission`, ``obstacles``
:class:`ObstacleSet`, ``controller`` :class:`ControllerParams`,
``weights`` :class:`WeightLawParams` and ``abort`` :class:`AbortSpec`; an
experiment file builds :class:`ExperimentConfig`.  A parameter the parser
passes itself (``name``, ``scenario_name``) is not a key.  A key left out
takes the constructor's default.  Types are strict: the constructors
check every value and convert none, so an integer rejects 20.5, ``true``
and ``"20"``, and a real value rejects NaN.  Every error carries the path
of its section.

An experiment's ``scenario`` is a built-in name or an inline scenario,
and a ``null`` key there takes the field's default.  A fully resolved
per-run config dictionary is hashed (SHA-256 of its canonical JSON form)
into every output file for provenance.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import hashlib
import inspect
import itertools
import json
from dataclasses import dataclass, field
from types import MappingProxyType

from .controller import ControllerParams
from .cost import Mission, ObstacleSet
from .dynamics import DoubleIntegrator, DynamicsModel, SimpleCar
from .errors import ConfigError, check_int
from .scenarios import get_scenario_dict
from .sim import AbortSpec, Scenario
from .weights import WeightLawParams


def _check_keys(section: dict, allowed, path: str) -> None:
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


_JSON = {"n_samples": "samples", "weight_law": "weights"}  # parameter -> key, where they differ


@functools.cache
def section_keys(cls, *given: str) -> dict:
    """JSON key -> parameter, read-only, for each parameter of ``cls``'s
    constructor but the ``given`` ones, which the caller passes itself.  A
    model's section also holds the ``kind`` that names its class."""
    names = {_JSON.get(p, p): p for p in inspect.signature(cls).parameters if p not in given}
    return MappingProxyType({"kind": "kind", **names} if issubclass(cls, DynamicsModel) else names)


def _build(cls, section, path: str, make=None, **given):
    """Check the config ``section`` of class ``cls`` and build it as
    ``make(**given, **section)``, each key passed as the parameter of
    ``cls`` it spells (:func:`section_keys`).  ``make`` is ``cls`` unless
    given, such as a build method.  An absent or null section is empty,
    and every error is located at ``path``."""
    section = {} if section is None else section
    names = section_keys(cls, *given)
    _check_keys(section, names, path)
    with _wrap(path):
        return (make or cls)(**given, **{names[key]: value for key, value in section.items()})


_MODELS = {"double_integrator": DoubleIntegrator, "simple_car": SimpleCar}


def _scenario(
    name, model=None, missions=None, obstacles=None, controller=None, weight_law=None,
    abort=None, **scalars,
) -> Scenario:
    """A Scenario from its checked section, each subsection built by its
    class."""
    kind = model.get("kind") if isinstance(model, dict) else None
    if not isinstance(kind, str) or kind not in _MODELS:
        raise ConfigError(
            f"unknown model kind {kind!r} (use {' or '.join(_MODELS)})", path="model.kind"
        )
    model = _build(_MODELS[kind], model, "model", lambda kind, **params: _MODELS[kind](**params))
    if not isinstance(missions, list) or not missions:
        raise ConfigError("at least the primary mission is required", path="missions")
    return Scenario(
        name=name,
        model=model,
        missions=[
            _build(Mission, entry, f"missions[{idx}]", Mission.build, n_u=model.n_u)
            for idx, entry in enumerate(missions)
        ],
        obstacles=_build(ObstacleSet, obstacles, "obstacles"),
        controller=_build(
            ControllerParams, controller, "controller", ControllerParams.build, n_u=model.n_u
        ),
        weight_law=_build(WeightLawParams, weight_law, "weights"),
        abort=None if abort is None else _build(AbortSpec, abort, "abort"),
        **scalars,
    )


def scenario_from_dict(cfg: dict, name: str = "custom") -> Scenario:
    """Validate and build a Scenario from its config dictionary.  Each
    section's entries are the keyword arguments of the object it builds."""
    return _build(Scenario, cfg, "scenario", _scenario, name=name)


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


def _experiment(scenario_name, scenario=None, **fields) -> ExperimentConfig:
    """An ExperimentConfig from its checked section: ``scenario`` is a
    built-in name, which also names the runs, or an inline object."""
    if scenario is None:
        raise ConfigError("scenario is required", path="scenario")
    if isinstance(scenario, str):
        scenario_name, scenario = scenario, get_scenario_dict(scenario)
    elif not isinstance(scenario, dict):
        raise ConfigError("scenario must be a name or an object", path="scenario")
    fields = {key: value for key, value in fields.items() if value is not None}
    return ExperimentConfig(scenario_name=scenario_name, scenario=scenario, **fields)


def experiment_from_dict(raw: dict) -> ExperimentConfig:
    """Build an ExperimentConfig from its config dictionary; a null key is
    left out, and an inline scenario's runs are named ``custom``."""
    return _build(ExperimentConfig, raw, "experiment", _experiment, scenario_name="custom")


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
