"""Experiment command line.

Verbs:

* ``run <config.json>`` -- execute the configured scenario over the sweep
  cross-product and seed list, writing one trace file per run plus an
  aggregate ``stats.csv``.  Flags ``--seed`` (repeatable), ``--out-dir``,
  ``--workers``, and ``--override path=value`` (repeatable) adjust the
  config without editing the file.
* ``list-scenarios`` -- names and one-line notes of the built-in scenarios.
* ``print-defaults`` -- the config reference as JSON: an experiment
  skeleton plus every built-in scenario dict as written.  A key a
  scenario leaves out (``control_cost``, ``completion_metric``, the
  mission weights and modes, ...) takes the default of the constructor
  its section feeds; see :mod:`mhmppi.config`.

Runs are deterministic given (config, seed): trace payloads are byte
identical across repeats except for the wall-time column.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor

from . import config as config_mod
from . import sim, traceio
from .errors import ConfigError
from .scenarios import SCENARIO_NOTES, builtin_scenarios


def _sanitize(token: str) -> str:
    return re.sub(r"[^A-Za-z0-9._=-]+", "-", str(token))


def _run_label(sweep_point: dict) -> str:
    if not sweep_point:
        return ""
    return ",".join(f"{p.split('.')[-1]}={v}" for p, v in sorted(sweep_point.items()))


def _execute_run(args: tuple) -> sim.ClosedLoopTrace:
    """One run of the cross product; writes its trace file."""
    cfg, sweep_point, seed, out_dir = args
    scenario_dict, scenario = config_mod.resolve_run_scenario(cfg, sweep_point)
    group = _run_label(sweep_point) or cfg.scenario_name
    trace = sim.run_closed_loop(scenario, seed=seed)
    trace.meta["group"] = group
    trace.meta["config_hash"] = config_mod.config_hash(scenario_dict, seed)
    trace.diagnostics = []  # not serialized; keep pool transfers small
    name_bits = [cfg.scenario_name]
    if sweep_point:
        name_bits.append(_run_label(sweep_point))
    name_bits.append(f"seed{seed}")
    filename = _sanitize("_".join(name_bits)) + ".csv"
    path = f"{out_dir}/{filename}"
    traceio.write_trace(trace, path)
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
    """Execute sweeps x seeds; returns a process exit status."""
    points = config_mod.sweep_points(cfg)
    jobs = [(cfg, point, seed, cfg.out_dir) for point in points for seed in cfg.seeds]

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
    for (_, point, seed, _), exc in failures:
        print(f"FAILED: sweep={point} seed={seed}: {exc}", file=sys.stderr)
    print(
        f"{len(traces)} run(s) completed, {len(failures)} failed; "
        f"outputs in {cfg.out_dir}/"
    )
    return 1 if failures else 0


def _cmd_run(args) -> int:
    cfg = config_mod.parse_config(args.config)
    if args.seed:
        cfg.seeds = config_mod.check_seeds(args.seed, "--seed")
    if args.out_dir:
        cfg.out_dir = args.out_dir
    for item in args.override or []:
        path, _, raw = item.partition("=")
        if not _ or not path:
            raise ConfigError(f"--override takes path=value, got {item!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        cfg.overrides[path] = value
    config_mod.check_runs(cfg)  # the overrides and every sweep point must build
    return run_experiment(cfg, workers=args.workers)


def _cmd_list(_args) -> int:
    for name in sorted(builtin_scenarios()):
        print(f"{name:16s} {SCENARIO_NOTES.get(name, '')}")
    return 0


def _cmd_defaults(_args) -> int:
    reference = {
        "experiment": {
            "scenario": "uav-free-1",
            "overrides": {},
            "sweeps": [{"path": "controller.samples", "values": [100, 1000]}],
            "seeds": [0],
            "out_dir": "results",
        },
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
