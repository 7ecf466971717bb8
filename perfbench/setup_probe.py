"""Time one cold set-up of a workload and print it in seconds.

    python3 perfbench/setup_probe.py <src dir> <workload> <seed>

Set-up is what a fresh process pays before its first control step:
importing the package, building every episode scenario of the workload's
pool with ``config.scenario_from_dict`` and ``controller.init_state`` for
each.  ``run.py`` runs this script several times and reports the median.
"""

import sys
from time import perf_counter

t0 = perf_counter()


def main() -> None:
    src, name, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    from mhmppi import config, controller

    import workloads

    workload = workloads.WORKLOADS[name]
    for cfg in workload.episodes(seed):
        scenario = config.scenario_from_dict(cfg, name)
        controller.init_state(scenario.x0, scenario.controller, scenario.missions, scenario.weight_law)
    print(repr(perf_counter() - t0))


if __name__ == "__main__":
    main()
