"""Closed-loop benchmark of mhmppi: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload branches-n20 --seed 0 --seconds 50 --trace 0

A run builds a pool of episode configs from the seed, checks that a
prefix of the first episode is bit-reproducible, then runs whole episodes
(``sim.run_closed_loop`` + ``traceio.write_trace``) until at least
``--seconds`` have passed and at least 200 control steps were timed
(100 untraced ones in a traced run).
Every episode goes through the output checks in ``checks.py``.

``--trace 0`` reports the end-to-end metrics, measured with no tracing.
``--trace 1`` runs every episode untraced and traced, alternating which
goes first, and reports the per-layer metrics of ``tracer.py`` and the
tracing overhead (traced minus untraced median step time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above it
print each metric with its unit and the full report.  Trace files, the
spans and the report are written to ``.perfbench_out/`` in the current
directory.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 9

# one BLAS thread, set before numpy loads and inherited by the set-up
# probes: on a machine with few cores a second BLAS thread waits on
# whatever else runs there, which shows as noise in every timing
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

END_TO_END = {
    "setup_s": "s",
    "step_ms_p50": "ms",
    "step_ms_p95": "ms",
    "control_hz": "1/s",
    "sim_steps_per_s": "1/s",
    "episode_s": "s",
    "goal_rate": "fraction",
    "steps_to_goal": "steps",
    "peak_rss_mb": "MB",
}

# the layer each workload exists to make the largest, checked by the traced run;
# car-wide's premise (largest noise share) needs all workloads: spread.py --trace 1
LARGEST_LAYER = {"branches-n20": "controller.eval_ms", "abort-handover": "mppi.step_ms"}


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "blas_env": {
            k: os.environ[k]
            for k in BLAS_THREAD_VARS
            if k in os.environ
        },
        "machine": platform.machine(),
    }


def _blas_threads(np):
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        handle = ctypes.CDLL(lib)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(handle, name):
                fn = getattr(handle, name)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


class SetupProbes:
    """Cold set-up times from fresh interpreters (see setup_probe.py).

    The probes are spread evenly over the run, one between two episodes
    when it is due, rather than all taken at its start, so that their
    median sees the same drift in machine speed as the timed episodes."""

    def __init__(self, src: str, workload: str, seed: int, seconds: float):
        self.cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), src, workload, str(seed)]
        self.interval = seconds / (SETUP_REPEATS - 1)
        self.samples: list = []

    def take(self) -> None:
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, check=True)
        self.samples.append(float(proc.stdout.strip().splitlines()[-1]))

    def due(self, elapsed: float) -> None:
        if len(self.samples) < SETUP_REPEATS and elapsed >= len(self.samples) * self.interval:
            self.take()

    def finish(self) -> list:
        while len(self.samples) < SETUP_REPEATS:
            self.take()
        return self.samples


class StepTimer:
    """Wall time of every control call, taken around the attributes the
    closed loop calls: ``controller.control_step`` and ``mppi.mppi_step``."""

    TARGETS = (("mhmppi.controller", "control_step"), ("mhmppi.mppi", "mppi_step"))

    def __init__(self):
        self.durations: list = []
        self._restore: list = []

    def install(self) -> None:
        import importlib

        for module_name, attr in self.TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                continue
            self._restore.append((module, attr, original))
            setattr(module, attr, self._timed(original))

    def _timed(self, fn):
        sink = self.durations

        def timed(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            sink.append(perf_counter() - t0)
            return out

        return timed

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()


def build_pool(workload, seed: int) -> list:
    from mhmppi import config, controller

    scenarios = []
    for cfg in workload.episodes(seed):
        scenario = config.scenario_from_dict(cfg, workload.name)
        controller.init_state(scenario.x0, scenario.controller, scenario.missions, scenario.weight_law)
        scenarios.append(scenario)
    return scenarios


def run_episode(scenario, path: str, timer: StepTimer, tracer=None) -> tuple:
    """One episode and its checks; (episode record, control-call durations)."""
    import checks
    from mhmppi import sim, traceio

    ep = {"controller_seed": int(scenario.controller.seed), "traced": tracer is not None}
    timer.durations.clear()
    if tracer is not None:
        tracer.install()
        tracer.on = True
    try:
        t0 = perf_counter()
        trace = sim.run_closed_loop(scenario)
        t1 = perf_counter()
        traceio.write_trace(trace, path)
        t2 = perf_counter()
    except Exception as exc:  # noqa: BLE001 - a raising episode is a failed operation
        ep.update(steps=len(timer.durations), problems=[f"raised {type(exc).__name__}: {exc}"])
        return ep, list(timer.durations)
    finally:
        if tracer is not None:
            tracer.on = False
            tracer.uninstall()
    try:
        problems = checks.episode_problems(scenario, trace, path)
    except Exception as exc:  # noqa: BLE001 - a check that cannot run fails
        problems = [f"check raised {type(exc).__name__}: {exc}"]
    ep.update(
        steps=len(trace.records),
        termination=trace.termination.label(),
        reached=checks.reached_goal(trace, problems),
        loop_s=t1 - t0,
        write_s=t2 - t1,
        step_s=sum(timer.durations),
        problems=problems,
    )
    return ep, list(timer.durations)


def run_pass(scenarios, min_seconds, min_steps, out_dir, tracer=None, between=None) -> dict:
    """Whole episodes until ``min_seconds`` have passed and ``min_steps``
    untraced control calls were timed.  With a tracer every episode runs
    untraced and traced, in alternating order, so that both see the same
    drift in machine speed.  ``between(elapsed)`` is called before each
    episode, outside the timed calls."""
    os.makedirs(out_dir, exist_ok=True)
    timer = StepTimer()
    timer.install()
    episodes, durations = [], {False: [], True: []}
    t_start = perf_counter()
    try:
        for i, scenario in enumerate(scenarios):
            if perf_counter() - t_start >= min_seconds and len(durations[False]) >= min_steps:
                break
            if between is not None:
                between(perf_counter() - t_start)
            order = (False,) if tracer is None else ((False, True) if i % 2 == 0 else (True, False))
            for traced in order:
                path = os.path.join(out_dir, f"episode{i:03d}{'-traced' if traced else ''}.csv")
                ep, d = run_episode(scenario, path, timer, tracer if traced else None)
                episodes.append({"index": i, **ep})
                durations[traced].extend(d)
    finally:
        timer.uninstall()
    return {"episodes": episodes, "durations": durations[False], "traced_durations": durations[True]}


def _p50_ms(durations) -> float:
    return statistics.median(durations) * 1e3 if durations else 0.0


def end_to_end(workload, result: dict, setup: list) -> dict:
    import numpy as np

    eps = result["episodes"]
    ran = [e for e in eps if "loop_s" in e]
    d = result["durations"]
    budget = workload.max_steps
    values = {
        "setup_s": statistics.median(setup),
        "step_ms_p50": _p50_ms(d),
        "step_ms_p95": float(np.percentile(d, 95)) * 1e3 if d else 0.0,
        # rates are medians over episodes, so that one slow spell of the
        # machine moves them no more than it moves the other medians
        "control_hz": _median([_ratio(e["steps"], e["loop_s"]) for e in ran]),
        "sim_steps_per_s": _median(
            [_ratio(workload.sim_steps(e["steps"]), e["step_s"]) for e in ran]
        ),
        "episode_s": statistics.median([e["loop_s"] + e["write_s"] for e in ran]) if ran else 0.0,
        "goal_rate": _ratio(sum(bool(e.get("reached")) for e in eps), len(eps)),
        # an episode that misses its goal counts as the whole step budget
        "steps_to_goal": statistics.median(
            [e["steps"] if e.get("reached") else budget for e in eps]
        ) if eps else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": float(v), "unit": END_TO_END[k]} for k, v in values.items()}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def trace_metrics(workload, tr, result: dict, out_dir: str) -> tuple:
    """Per-layer metrics and report fields from a traced pass."""
    import tracer as tracing

    tr.save(os.path.join(out_dir, "spans.npz"))
    untraced_p50, traced_p50 = _p50_ms(result["durations"]), _p50_ms(result["traced_durations"])
    values, missing = tracing.layer_metrics(tr, untraced_p50, traced_p50)
    metrics = {
        name: {"value": float(values[name]), "unit": unit}
        for name, (unit, _, _) in tracing.LAYER_METRICS.items()
    }
    top = {name: values[name] for name in tracing.TOP_LAYERS if name not in missing}
    largest = max(top, key=top.get) if top else None
    expected = LARGEST_LAYER.get(workload.name)
    report = {
        "untraced_step_ms_p50": untraced_p50,
        "traced_step_ms_p50": traced_p50,
        "overhead_ms": traced_p50 - untraced_p50,
        "spans": len(tr.start),
        "missing_hooks": tr.missing,
        "missing_layers": missing,
        "largest_layer": largest,
        "expected_largest_layer": expected,
        "premise_holds": None if expected is None else largest == expected,
    }
    return metrics, report


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "mhmppi", "__init__.py")):
        print(f"perfbench: no src/mhmppi under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import checks
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    out_dir = os.path.join(root, ".perfbench_out", f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    probes = None if args.trace else SetupProbes(src, workload.name, args.seed, args.seconds)
    tr = None
    if args.trace:
        import tracer as tracing

        tr = tracing.Tracer()
        tr.install()
        tr.on = True
    scenarios = build_pool(workload, args.seed)
    if tr is not None:
        tr.on = False
        tr.uninstall()
    try:
        determinism = checks.determinism_problems(scenarios[0], workload.prefix_steps)
    except Exception as exc:  # noqa: BLE001 - a check that cannot run fails
        determinism = [f"determinism check raised {type(exc).__name__}: {exc}"]

    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "shape": workload.shape(),
        "determinism_problems": determinism,
    }
    # a traced run splits its time between untraced and traced episodes
    min_steps = workloads.MIN_STEPS // 2 if args.trace else workloads.MIN_STEPS
    result = run_pass(scenarios, args.seconds, min_steps, os.path.join(out_dir, "traces"), tr,
                      between=probes.due if probes is not None else None)
    setup = probes.finish() if probes is not None else []
    report["setup_samples_s"] = setup
    episodes = result["episodes"]
    report["step_samples"] = len(result["durations"])
    if args.trace:
        metrics, trace_report = trace_metrics(workload, tr, result, out_dir)
        report.update(trace_report)
    else:
        metrics = end_to_end(workload, result, setup)

    report["episodes"] = episodes
    report["episode_seeds"] = list(dict.fromkeys(e["controller_seed"] for e in episodes))
    failed = sum(bool(e["problems"]) for e in episodes) + bool(determinism)
    attempted = len(episodes) + 1  # + the determinism check
    report["failed_checks"] = [p for e in episodes for p in e["problems"]] + determinism
    report["metrics"] = metrics
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    for name, m in metrics.items():
        print(f"{workload.name:15s} {name:32s} {m['value']:14.6g} {m['unit']}")
    for problem in report["failed_checks"]:
        print(f"FAILED CHECK: {problem}")
    summary = {k: v for k, v in report.items() if k not in ("episodes", "metrics")}
    print("report " + json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
