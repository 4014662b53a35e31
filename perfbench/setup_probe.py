"""Time the simulator's set-up in a fresh interpreter.

Set-up is everything before the first simulated cycle: the first
``import repro``, workload and machine resolution, ``build_trace``,
``OutOfOrderCore.__init__`` and the resident-region ``preload``. The
benchmark runs this script several times per run and reports the
median, because one process pays the import exactly once.

Usage: python3 setup_probe.py <benchmark workload> <seed>
Prints one JSON object of phase seconds for the workload's first point.
"""

import json
import os
import sys
import time


def main(argv):
    t0 = time.perf_counter()
    name, seed = argv[1], int(argv[2])
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    t_import = time.perf_counter()
    from repro import OutOfOrderCore, get_policy
    t_resolve = time.perf_counter()
    from workloads import MACHINES, WORKLOADS
    wl = WORKLOADS[name]
    spec = wl.specs(seed)[0]
    machine = MACHINES[wl.machine]
    pol = get_policy(wl.policies[0])
    t_trace = time.perf_counter()
    trace = spec.build_trace()
    t_init = time.perf_counter()
    core = OutOfOrderCore(machine, trace, pol, seed=0)
    t_preload = time.perf_counter()
    for level, base, size in spec.resident_regions():
        core.mem.preload(base, size, level)
    t_end = time.perf_counter()
    print(json.dumps({
        "import_s": t_resolve - t_import,
        "resolve_s": t_trace - t_resolve,
        "build_trace_s": t_init - t_trace,
        "core_init_s": t_preload - t_init,
        "preload_s": t_end - t_preload,
        "total_s": t_end - t0,
    }))


if __name__ == "__main__":
    main(sys.argv)
