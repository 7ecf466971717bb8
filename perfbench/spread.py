"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 0-9 [--workloads NAME ...] [--trace 0|1] [--out FILE]

For every workload it runs ``run.py`` once per seed, one run at a time,
and reports per metric the median and quartiles of the per-seed values
(``statistics.quantiles(values, n=4)``) and the spread, (Q3 - Q1) /
median.  With ``--trace 0`` each end-to-end spread is compared with the
bound in ``BENCHMARK.json`` (``setup_s`` excepted) and with a third of
it.  With ``--trace 1`` it also checks the premise that needs all
workloads: ``controller.noise_share`` is largest on ``car-wide``.  Run it
from the repository root; the summary goes to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(values: list) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else float("inf"),
        "values": values,
    }


def main(argv=None) -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary, ok = {}, True
    for workload in args.workloads:
        runs = [run_once(workload, s, args.seconds, args.trace) for s in seed_list(args.seeds)]
        failed = sum(r["failed"] for r in runs)
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in runs])
            for name in runs[0]["metrics"]
        }
        summary[workload] = {"failed": failed, "correct": all(r["correct"] for r in runs),
                             "metrics": metrics}
        ok &= failed == 0
        for name, s in metrics.items():
            flag = ""
            if not args.trace and name != "setup_s":
                if s["spread"] > bounds[name]:
                    flag, ok = "  OVER BOUND", False
                elif s["spread"] > bounds[name] / 3:
                    flag = "  over a third of the bound"
            print(f"{workload:15s} {name:32s} median {s['median']:12.6g}  "
                  f"q1 {s['q1']:12.6g}  q3 {s['q3']:12.6g}  spread {s['spread']:.4f}{flag}")
        print(f"{workload:15s} failed operations: {failed}")
    if args.trace and "car-wide" in summary:
        share = {w: s["metrics"]["controller.noise_share"]["median"] for w, s in summary.items()}
        holds = max(share, key=share.get) == "car-wide"
        summary["premise_car_wide_noise_share_largest"] = holds
        print(f"premise controller.noise_share largest on car-wide: {holds} {share}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
