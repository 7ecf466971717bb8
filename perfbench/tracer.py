"""Span tracing of the program's layers from outside the program.

The tracer replaces module and class attributes that the program's
callers look up at call time (``controller.sample_noise``,
``DoubleIntegrator.update``, ``mppi.mppi_step`` ...) with wrappers that
record one span per call: name, start, end and the enclosing span.  Spans
stay in memory, in flat arrays, until the run writes them out.  Self
times, counts and the per-layer metrics are derived from the spans after
the traced pass.  A hook whose target no longer exists is reported as
missing; the metrics that need it read 0 and are listed as missing.
"""

from __future__ import annotations

import functools
import importlib
import os
from array import array
from time import perf_counter

import numpy as np

# (module, attribute path, span name).  Every target is looked up by the
# program at call time, so replacing it reroutes the program's own calls.
HOOKS = (
    ("mhmppi.config", "scenario_from_dict", "config.build"),
    ("mhmppi.sim", "run_closed_loop", "sim.loop"),
    ("mhmppi.sim", "_choose_backup", "sim.choose_backup"),
    ("mhmppi.sim", "step", "sim.plant_step"),
    ("mhmppi.controller", "control_step", "controller.step"),
    ("mhmppi.controller", "sample_noise", "controller.noise"),
    ("mhmppi.controller", "evaluate_plan_batch", "controller.eval"),
    ("mhmppi.controller", "rollout_primary_batch", "controller.rollout"),
    ("mhmppi.controller", "softmax_weights", "controller.softmax"),
    ("mhmppi.controller", "mppi_update", "controller.mppi_update"),
    ("mhmppi.controller", "desired_weights", "weights.desired"),
    ("mhmppi.controller", "update_weights", "weights.update"),
    ("mhmppi.weights", "project_simplex", "weights.project_simplex"),
    ("mhmppi.multi_horizon", "MultiHorizonInput.shift", "multi_horizon.shift"),
    ("mhmppi.dynamics", "DoubleIntegrator.update", "dynamics.update"),
    ("mhmppi.dynamics", "SimpleCar.update", "dynamics.update"),
    ("mhmppi.cost", "stage_cost_terms", "cost.stage"),
    ("mhmppi.cost", "terminal_cost_terms", "cost.terminal"),
    ("mhmppi.mppi", "mppi_step", "mppi.step"),
    # a subclass seen only by mppi, so the controller's noise is untouched
    ("mhmppi.mppi", "NoiseStream.rows", "mppi.noise_rows"),
    ("mhmppi.mppi", "rollout_primary_batch", "mppi.rollout"),
    ("mhmppi.mppi", "mission_cost", "mppi.cost"),
    ("mhmppi.mppi", "softmax_weights", "mppi.softmax"),
    ("mhmppi.traceio", "write_trace", "traceio.write"),
)

STEP_SPANS = ("controller.step", "mppi.step")


def _ess_ratio(args, kwargs, out):
    w = np.asarray(out)
    return 1.0 / float(w @ w) / w.size


# span name -> value recorded per call from (args, kwargs, result)
COUNTERS = {
    "controller.noise": lambda a, k, out: out.shape[0] * out.shape[1],
    "controller.softmax": _ess_ratio,
    "mppi.softmax": _ess_ratio,
    "dynamics.update": lambda a, k, out: out.size // out.shape[-1],
    "traceio.write": lambda a, k, out: os.path.getsize(a[1]),
}


class Tracer:
    """In-memory span recorder; records only while ``on`` is true."""

    def __init__(self):
        self.on = False
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counter_sum: dict = {}
        self.counter_n: dict = {}
        self._restore: list = []
        self.missing: list = []  # hook targets that do not exist
        self.present: set = set()  # span names with at least one hook

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                self._stack.pop()
            if count is not None:
                self.counter_sum[name] = self.counter_sum.get(name, 0.0) + count(args, kwargs, out)
                self.counter_n[name] = self.counter_n.get(name, 0) + 1
            return out

        return traced

    def install(self) -> None:
        """Replace every hook target that exists; note the ones that do not."""
        self.missing.clear()
        for module_name, path, span in HOOKS:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{path}")
                self._id(span)
                continue
            self.present.add(span)
            if span == "mppi.noise_rows":
                # rebind mppi.NoiseStream to a traced subclass
                module = importlib.import_module(module_name)
                base = getattr(module, parents[0])
                sub = type(base.__name__, (base,), {attr: self.wrap(span, original)})
                self._restore.append((module, parents[0], base))
                setattr(module, parents[0], sub)
                continue
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write the spans: names, parent indices, start and end times."""
        spans = self.arrays()
        t0 = spans["start"].min() if spans["start"].size else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=spans["name"],
            parent=spans["parent"],
            start_ns=np.round((spans["start"] - t0) * 1e9).astype(np.int64),
            end_ns=np.round((spans["end"] - t0) * 1e9).astype(np.int64),
        )


# per-layer metric -> (unit, better, spans it needs)
LAYER_METRICS = {
    "config.build_ms": ("ms/scenario", "lower", ("config.build",)),
    "controller.noise_ms": ("ms/step", "lower", ("controller.noise",)),
    "controller.noise_rows_per_s": ("1/s", "higher", ("controller.noise",)),
    "controller.noise_share": ("ratio", "lower", ("controller.noise", "controller.step")),
    "controller.eval_ms": ("ms/step", "lower", ("controller.eval",)),
    "controller.eval_self_ms": ("ms/step", "lower", ("controller.eval",)),
    "controller.rollout_ms": ("ms/step", "lower", ("controller.rollout",)),
    "controller.update_ms": ("ms/step", "lower", ("controller.softmax", "controller.mppi_update")),
    "controller.step_self_ms": ("ms/step", "lower", ("controller.step",)),
    "controller.ess_ratio": ("ratio", "higher", ("controller.softmax", "mppi.softmax")),
    "dynamics.update_ms": ("ms/step", "lower", ("dynamics.update",)),
    "dynamics.update_calls": ("count/step", "lower", ("dynamics.update",)),
    "dynamics.states_per_s": ("1/s", "higher", ("dynamics.update",)),
    "cost.stage_ms": ("ms/step", "lower", ("cost.stage",)),
    "cost.terminal_ms": ("ms/step", "lower", ("cost.terminal",)),
    "cost.calls": ("count/step", "lower", ("cost.stage", "cost.terminal")),
    "weights.desired_ms": ("ms/step", "lower", ("weights.desired",)),
    "weights.project_ms": ("ms/step", "lower", ("weights.update",)),
    "weights.project_calls_per_step": ("count/step", "lower", ("weights.update", "weights.project_simplex")),
    "weights.constraint_active_share": ("ratio", "lower", ("weights.update", "weights.project_simplex")),
    "multi_horizon.shift_ms": ("ms/step", "lower", ("multi_horizon.shift",)),
    "mppi.step_ms": ("ms/step", "lower", ("mppi.step",)),
    "mppi.noise_ms": ("ms/step", "lower", ("mppi.noise_rows",)),
    "mppi.rollout_ms": ("ms/step", "lower", ("mppi.rollout",)),
    "mppi.cost_ms": ("ms/step", "lower", ("mppi.cost",)),
    "sim.choose_backup_ms": ("ms/step", "lower", ("sim.choose_backup",)),
    "sim.plant_step_ms": ("ms/step", "lower", ("sim.plant_step",)),
    "sim.loop_self_ms": ("ms/step", "lower", ("sim.loop",)),
    "traceio.write_ms": ("ms/episode", "lower", ("traceio.write",)),
    "traceio.bytes": ("B/episode", "lower", ("traceio.write",)),
    "trace.overhead_ms": ("ms", "lower", ("controller.step",)),
}

# layers that do not nest inside one another; together they cover the loop
TOP_LAYERS = (
    "controller.noise_ms",
    "controller.eval_ms",
    "controller.update_ms",
    "controller.step_self_ms",
    "weights.desired_ms",
    "weights.project_ms",
    "multi_horizon.shift_ms",
    "mppi.step_ms",
    "sim.choose_backup_ms",
    "sim.plant_step_ms",
    "sim.loop_self_ms",
)


def layer_metrics(tracer: Tracer, untraced_p50_ms: float, traced_p50_ms: float) -> tuple:
    """(metrics, missing metric names) derived from the recorded spans."""
    s = tracer.arrays()
    n_names = len(tracer.names)
    dur = s["end"] - s["start"]
    has_parent = s["parent"] >= 0
    child = np.bincount(s["parent"][has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    total = np.bincount(s["name"], weights=dur, minlength=n_names)
    total_self = np.bincount(s["name"], weights=self_time, minlength=n_names)
    calls = np.bincount(s["name"], minlength=n_names)

    def sid(name):
        return tracer.names.index(name)

    def tot(*names):
        return float(sum(total[sid(n)] for n in names))

    def cnt(*names):
        return int(sum(calls[sid(n)] for n in names))

    def per(x, n):
        return x / n if n else 0.0

    def csum(name):
        return tracer.counter_sum.get(name, 0.0)

    steps = cnt(*STEP_SPANS)
    episodes = cnt("traceio.write")
    ms = 1e3

    # projections per update_weights call; binding when more than one
    upd, proj = sid("weights.update"), sid("weights.project_simplex")
    upd_idx = np.flatnonzero(s["name"] == upd)
    proj_parents = s["parent"][s["name"] == proj]
    per_update = np.bincount(proj_parents[proj_parents >= 0], minlength=dur.size)[upd_idx]

    ess_calls = tracer.counter_n.get("controller.softmax", 0) + tracer.counter_n.get("mppi.softmax", 0)
    values = {
        "config.build_ms": per(tot("config.build") * ms, cnt("config.build")),
        "controller.noise_ms": per(tot("controller.noise") * ms, steps),
        "controller.noise_rows_per_s": per(csum("controller.noise"), tot("controller.noise")),
        "controller.noise_share": per(tot("controller.noise"), tot(*STEP_SPANS)),
        "controller.eval_ms": per(tot("controller.eval") * ms, steps),
        "controller.eval_self_ms": per(total_self[sid("controller.eval")] * ms, steps),
        "controller.rollout_ms": per(tot("controller.rollout") * ms, steps),
        "controller.update_ms": per(tot("controller.softmax", "controller.mppi_update") * ms, steps),
        "controller.step_self_ms": per(total_self[sid("controller.step")] * ms, steps),
        "controller.ess_ratio": per(csum("controller.softmax") + csum("mppi.softmax"), ess_calls),
        "dynamics.update_ms": per(tot("dynamics.update") * ms, steps),
        "dynamics.update_calls": per(cnt("dynamics.update"), steps),
        "dynamics.states_per_s": per(csum("dynamics.update"), tot("dynamics.update")),
        "cost.stage_ms": per(tot("cost.stage") * ms, steps),
        "cost.terminal_ms": per(tot("cost.terminal") * ms, steps),
        "cost.calls": per(cnt("cost.stage", "cost.terminal"), steps),
        "weights.desired_ms": per(tot("weights.desired") * ms, steps),
        "weights.project_ms": per(tot("weights.update") * ms, steps),
        "weights.project_calls_per_step": per(float(per_update.sum()), upd_idx.size),
        "weights.constraint_active_share": per(float((per_update > 1).sum()), upd_idx.size),
        "multi_horizon.shift_ms": per(tot("multi_horizon.shift") * ms, steps),
        "mppi.step_ms": per(tot("mppi.step") * ms, steps),
        "mppi.noise_ms": per(tot("mppi.noise_rows") * ms, steps),
        "mppi.rollout_ms": per(tot("mppi.rollout") * ms, steps),
        "mppi.cost_ms": per(tot("mppi.cost") * ms, steps),
        "sim.choose_backup_ms": per(tot("sim.choose_backup") * ms, steps),
        "sim.plant_step_ms": per(tot("sim.plant_step") * ms, steps),
        "sim.loop_self_ms": per(total_self[sid("sim.loop")] * ms, steps),
        "traceio.write_ms": per(tot("traceio.write") * ms, episodes),
        "traceio.bytes": per(csum("traceio.write"), episodes),
        "trace.overhead_ms": traced_p50_ms - untraced_p50_ms,
    }
    missing = sorted(
        name for name, (_, _, needs) in LAYER_METRICS.items() if not tracer.present.issuperset(needs)
    )
    for name in missing:
        values[name] = 0.0
    return values, missing
