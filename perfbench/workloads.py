"""Benchmark workloads: seeded pools of closed-loop episode configs.

Each workload is one built-in scenario shape (model, missions, obstacles,
K, N, m) with a fixed start state and a step budget.  The workload seed
only picks the controller seed of every episode, so the same seed always
gives the same episodes and every episode of a pool does the same kind of
work.  Configs are plain dictionaries in the scenario schema; the
benchmark builds them with ``mhmppi.config.scenario_from_dict``.

Why these start states: from the built-in origin start, ``uav-obstacles``
hovers between its two backup targets for about 300 steps (over a minute
of wall time per episode) and ``ugv-obstacles`` takes about 270 steps, so
a run would hold at most one episode and could report no goal metrics.
The double integrator starts south-east of the second box and reaches the
primary goal in about 40 steps.  The car starts 2 m west of the goal,
heading east 0.3 m above the second box, and needs about 35 steps: it
keeps the target heading of 0, where a north-bound approach stalls within
a metre of the goal for over 100 steps, and starting level with the goal
instead lets it drift north and spreads the step count over 25 to 80.
In both, sampled plans still run into the boxes, and each run holds
several whole episodes.

``car-wide`` runs at controller temperature 5 instead of the built-in
0.5.  At 0.5 the weights sit on about one of the 2000 samples, the car's
speed is a random walk, and one episode takes anywhere from 10 to over
120 steps depending on the controller seed, so the median episode time of
a run measured the draw of seeds rather than the program.  At 5 the
episodes take 36 to 44 steps.  The per-step work (K, N, m, model, boxes)
is the same at either temperature.

``BENCHMARK.json`` lists ``branches-n20`` and ``abort-handover``;
``car-wide`` is run by hand (see README.md, "Workloads").
"""

from __future__ import annotations

import copy
import zlib
from dataclasses import dataclass

POOL_SIZE = 64  # episodes per pool; a run stops early if it uses them all
MIN_STEPS = 200  # control steps per measured pass: >= 10 samples beyond p95


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str  # built-in scenario the shape comes from
    x0: tuple
    max_steps: int  # step budget of one episode
    prefix_steps: int  # length of the determinism-check prefix
    extra: dict  # config keys merged over the built-in

    def base_config(self) -> dict:
        from mhmppi.scenarios import get_scenario_dict

        cfg = get_scenario_dict(self.scenario)
        for key, value in copy.deepcopy(self.extra).items():
            if isinstance(value, dict) and isinstance(cfg.get(key), dict):
                cfg[key] = {**cfg[key], **value}
            else:
                cfg[key] = value
        cfg["x0"] = list(self.x0)
        cfg["max_steps"] = self.max_steps
        return cfg

    def episodes(self, seed: int, count: int = POOL_SIZE) -> list:
        """``count`` episode configs; episode i gets its own controller seed."""
        base = self.base_config()
        salt = zlib.crc32(self.name.encode())
        out = []
        for i in range(count):
            cfg = copy.deepcopy(base)
            cfg["controller"]["seed"] = zlib.crc32(f"{salt}:{int(seed)}:{i}".encode())
            out.append(cfg)
        return out

    def shape(self) -> dict:
        """K, N, m and the flat input rows one sample carries."""
        cfg = self.base_config()
        k = int(cfg["controller"]["samples"])
        n = int(cfg["controller"]["horizon"])
        m = len(cfg["missions"]) - 1
        abort = cfg.get("abort")
        return {
            "K": k,
            "N": n,
            "m": m,
            "input_rows_per_sample": n + m * n * (n - 1) // 2,
            "branch_tail_rows_per_sample": m * n * (n - 1) // 2,
            "abort_step": None if abort is None else int(abort["step"]),
            "step_budget": self.max_steps,
            "x0": list(self.x0),
        }

    def sim_steps(self, n_steps: int) -> int:
        """Dynamics steps the sampling stage does over an episode of
        ``n_steps`` control steps: K*(N + m*N*(N-1)/2) per multi-horizon
        step, K*N per plain-MPPI step after the abort."""
        s = self.shape()
        k, n = s["K"], s["N"]
        multi = n_steps if s["abort_step"] is None else min(n_steps, s["abort_step"])
        return multi * k * s["input_rows_per_sample"] + (n_steps - multi) * k * n


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="branches-n20",
            why=(
                "uav-obstacles shape (N=20, K=1000, m=2): 380 branch-tail rows per "
                "sample against 20 primary rows, so tail evaluation dominates"
            ),
            scenario="uav-obstacles",
            x0=(9.5, 4.5, 0.0, 0.0),
            max_steps=150,
            prefix_steps=8,
            extra={},
        ),
        Workload(
            name="car-wide",
            why=(
                "ugv-obstacles shape (SimpleCar, K=2000, N=10, m=2): widest noise "
                "batch and trigonometric dynamics; a double-integrator kernel leaves it alone"
            ),
            scenario="ugv-obstacles",
            x0=(8.0, 9.8, 0.0),
            max_steps=200,
            prefix_steps=8,
            extra={"controller": {"temperature": 5.0}},
        ),
        Workload(
            name="abort-handover",
            why=(
                "uav-free-1 with a degraded mode and an abort at step 20: backup choice, "
                "mode switch and warm-started plain MPPI, the paper's headline behaviour"
            ),
            scenario="uav-free-1",
            x0=(0.0, 0.0, 0.0, 0.0),
            max_steps=300,
            prefix_steps=30,
            extra={
                "model": {"modes": [[1.0, 1.0], [0.6, 0.6]]},
                "abort": {"step": 20, "new_mode": 1, "policy": "min_cost"},
            },
        ),
    )
}
