"""Experiment command line.

Verbs:

* ``run <config.json>`` -- execute the configured scenario over the sweep
  cross-product and seed list, writing one trace file per run plus an
  aggregate ``stats.csv``; without a seed list a run keeps its scenario's
  ``controller.seed``.  Flags ``--seed`` (repeatable), ``--out-dir``
  and ``--override path=value`` (repeatable) are applied to the config with
  ``dataclasses.replace``, so they are checked like the file's values, and
  ``--workers`` must be >= 1, all before any run starts.  So is a run
  table in which two runs would write the same trace file.
* ``list-scenarios`` -- names and one-line notes of the built-in scenarios.
* ``print-defaults`` -- the config reference as JSON: an experiment
  skeleton plus every built-in scenario dict as written.  A key a
  scenario leaves out (``abort``, the mission weights and modes, ...)
  takes the default of the constructor its section feeds; see
  :mod:`mhmppi.config`.  The car's wheelbase, each model's time step,
  the weight law's distance temperature, the obstacle penalty and the
  completion rule (within 0.5 of the target on the position plane) are
  constants, not keys.

Runs are deterministic given their resolved config: trace payloads are
byte identical across repeats except for the wall-time column.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from . import config as config_mod
from . import sim, traceio
from .errors import ConfigError, check_int
from .scenarios import SCENARIO_NOTES, builtin_scenarios


def _sanitize(token: str) -> str:
    return re.sub(r"[^A-Za-z0-9._=-]+", "-", str(token))


def _run_label(sweep_point: dict) -> str:
    return ",".join(f"{p.split('.')[-1]}={v}" for p, v in sorted(sweep_point.items()))


def _trace_path(scenario_name: str, sweep_point: dict, scenario_dict: dict, out_dir: str) -> str:
    """A run's trace file, named by its sweep point and the seed its dict holds."""
    seed = f"seed{scenario_dict['controller']['seed']}"
    name = "_".join(bit for bit in (scenario_name, _run_label(sweep_point), seed) if bit)
    return f"{out_dir}/{_sanitize(name)}.csv"


def _describe(job: tuple) -> str:
    return f"sweep={job[1]} seed={job[2]['controller']['seed']}"


def _execute_run(args: tuple) -> sim.ClosedLoopTrace:
    """One run of the cross product; writes its trace file."""
    scenario_name, sweep_point, scenario_dict, _ = args
    scenario = config_mod.scenario_from_dict(scenario_dict, name=scenario_name)
    trace = sim.run_closed_loop(scenario)
    trace.meta["group"] = _run_label(sweep_point) or scenario_name
    trace.meta["config_hash"] = config_mod.config_hash(scenario_dict)
    trace.diagnostics = []  # not serialized; keep pool transfers small
    traceio.write_trace(trace, _trace_path(*args))
    return trace


def _run_isolated(job: tuple):
    """``_execute_run``'s trace, or the exception it raised after printing
    its traceback; module-level for process pools."""
    try:
        return _execute_run(job)
    except Exception as exc:  # noqa: BLE001 - per-run isolation
        traceback.print_exc()
        return exc


def run_experiment(cfg: config_mod.ExperimentConfig, workers: int = 1) -> int:
    """Execute the run table; returns a process exit status."""
    jobs = [(cfg.scenario_name, point, scenario, cfg.out_dir) for point, scenario in cfg.runs]
    paths = [_trace_path(*job) for job in jobs]
    for i, path in enumerate(paths):
        j = paths.index(path)
        if j < i:
            raise ConfigError(
                f"runs {j} ({_describe(jobs[j])}) and {i} ({_describe(jobs[i])}) both write {path}"
            )

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_run_isolated, job) for job in jobs]
            # a worker that dies fails its own run only
            results = [f.exception() or f.result() for f in futures]
    else:
        results = list(map(_run_isolated, jobs))
    traces = [r for r in results if not isinstance(r, Exception)]
    failures = [(job, r) for job, r in zip(jobs, results) if isinstance(r, Exception)]

    if traces:
        rows = sim.analyze(traces)
        traceio.write_stats(rows, f"{cfg.out_dir}/stats.csv")
    for job, exc in failures:
        print(f"FAILED: {_describe(job)}: {exc}", file=sys.stderr)
    print(
        f"{len(traces)} run(s) completed, {len(failures)} failed; "
        f"outputs in {cfg.out_dir}/"
    )
    return 1 if failures else 0


def _cmd_run(args) -> int:
    check_int("--workers", args.workers, 1)
    cfg = config_mod.parse_config(args.config)
    overrides = dict(cfg.overrides)
    for item in args.override or []:
        path, sep, raw = item.partition("=")
        if not sep or not path:
            raise ConfigError(f"--override takes path=value, got {item!r}")
        try:
            overrides[path] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[path] = raw
    flags = {"overrides": overrides}
    if args.seed:
        flags["seeds"] = config_mod.check_seeds(args.seed, "--seed")
    if args.out_dir is not None:
        flags["out_dir"] = args.out_dir
    return run_experiment(replace(cfg, **flags), workers=args.workers)


def _cmd_list(_args) -> int:
    for name in sorted(builtin_scenarios()):
        print(f"{name:16s} {SCENARIO_NOTES.get(name, '')}")
    return 0


def _cmd_defaults(_args) -> int:
    sweeps = [{"path": "controller.samples", "values": [100, 1000]}]
    example = config_mod.experiment_from_dict({"scenario": "uav-free-1", "sweeps": sweeps})
    keys = config_mod.section_keys(config_mod.ExperimentConfig, "scenario_name")
    experiment = {key: getattr(example, param) for key, param in keys.items()}
    reference = {
        # all but sweeps at their defaults
        "experiment": {**experiment, "scenario": "uav-free-1"},
        "scenarios": builtin_scenarios(),
    }
    print(json.dumps(reference, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mhmppi", description="Backup-plan sampling MPC experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment config")
    run_p.add_argument("config", help="path to a JSON experiment config")
    run_p.add_argument("--seed", type=int, action="append", help="replace the seed list")
    run_p.add_argument("--out-dir", help="output directory")
    run_p.add_argument("--workers", type=int, default=1, help="parallel runs")
    run_p.add_argument(
        "--override",
        action="append",
        metavar="PATH=VALUE",
        help="scenario override, e.g. weights.gamma=0 (repeatable)",
    )
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list-scenarios", help="list built-in scenarios")
    list_p.set_defaults(func=_cmd_list)

    def_p = sub.add_parser("print-defaults", help="print the config reference")
    def_p.set_defaults(func=_cmd_defaults)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
