"""Simulator benchmark: run one workload, check it, print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload mem-runahead --seed 1 \\
        --seconds 25 --trace 0

``--trace 0`` repeats the workload untraced for ``--seconds`` and prints
the end-to-end metrics (medians over the repeats). ``--trace 1`` runs
an untraced baseline, one traced leg with the outside-in layer tracer
(``layers.py``) and one untraced leg after it, and prints the per-layer
metrics. Both check every point's output. Human-readable lines come
first; the last line is the JSON result. See ``perfbench/README.md``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import layers  # imports nothing from the simulator until it is entered

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Set-up probes after each leg, and fewest per run (each a fresh
#: interpreter; the host's speed drifts, so they are spread over the run).
PROBES_PER_LEG = 2
SETUP_PROBES = 5
#: Fewest untraced repeats behind an end-to-end median.
MIN_REPEATS = 3

END_TO_END_UNITS = {
    "kips": "kinst/s", "warmup_s": "s", "wall_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# ------------------------------------------------------------ host context

def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git (a
    git subprocess would search the parent directories)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_context() -> dict:
    return {
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "loadavg_1m": os.getloadavg()[0],
    }


# ------------------------------------------------------------------ set-up

class SetupProbes:
    """Set-up timings, one fresh interpreter per sample. Samples are
    taken between legs so that their median spans the whole run; the
    first probe is discarded, so that byte-code compilation is not
    measured."""

    def __init__(self, workload: str, seed: int) -> None:
        self.argv = [sys.executable, os.path.join(HERE, "setup_probe.py"),
                     workload, str(seed)]
        self.samples: list = []
        self._warm = False

    def take(self) -> None:
        out = subprocess.run(self.argv, cwd=ROOT, capture_output=True,
                             text=True, timeout=60, check=True)
        if self._warm:
            self.samples.append(
                json.loads(out.stdout.strip().splitlines()[-1]))
        self._warm = True

    def top_up(self) -> None:
        while len(self.samples) < SETUP_PROBES:
            self.take()

    def median(self, key: str) -> float:
        return _median([p[key] for p in self.samples])


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or any waited-for child
    (farm workers, set-up probes); Linux reports KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


# -------------------------------------------------------------------- legs

def _leg(bench, wl, seed, jobs, clock, tmp, ledger):
    if not wl.sweep:
        return bench.run_single(wl, seed, clock)
    path = os.path.join(tmp, "ledger.jsonl") if ledger else None
    return bench.run_sweep(wl, seed, jobs, clock, path)


def _repeat(bench, wl, seed, seconds, jobs, clock, tmp, ledger, least,
            probes):
    """Untraced repeats, each followed by set-up probes, until the next
    one would overrun ``seconds``."""
    legs = []
    start = time.perf_counter()
    while True:
        legs.append(_leg(bench, wl, seed, jobs, clock, tmp, ledger))
        for _ in range(PROBES_PER_LEG):
            probes.take()
        elapsed = time.perf_counter() - start
        if len(legs) >= least and \
                elapsed * (len(legs) + 1) / len(legs) > seconds:
            return legs


@dataclass
class Outcome:
    """What one run measured and checked."""

    metrics: dict
    failures: list
    attempted: int
    repeats: int
    farm_spawn_s: float
    tracer: object = None
    traced_wall_s: float = 0.0


def timed_run(bench, wl, seed, seconds, tmp, probes) -> Outcome:
    with bench.RunClock() as clock:
        legs = _repeat(bench, wl, seed, seconds, wl.jobs, clock, tmp,
                       ledger=True, least=MIN_REPEATS, probes=probes)
    failures = [f for leg in legs for f in leg.failures]
    for i, leg in enumerate(legs[1:], 1):
        failures += bench.compare_legs(legs[0], leg, f"repeat 0 vs {i}")
    attempted = len(legs) * len(wl.points)
    if not wl.sweep:
        failures += bench.check_checkpoint(wl, seed, legs[0].results)
        attempted += 1
    metrics = {
        "kips": _median([leg.kips for leg in legs]),
        "warmup_s": _median([leg.warmup_s for leg in legs]),
        "wall_s": _median([leg.wall_s for leg in legs]),
        "peak_rss_mb": peak_rss_mb(),
    }
    return Outcome(metrics, failures, attempted, len(legs),
                   _median([leg.farm_spawn_s for leg in legs]))


def traced_run(bench, wl, seed, seconds, tmp, probes) -> Outcome:
    # Baseline: the same legs as the traced one (serial for the sweep).
    base = _repeat(bench, wl, seed, seconds / 3, 1, None, tmp,
                   ledger=False, least=1, probes=probes)
    with layers.LayerTracer() as tracer:
        traced = _leg(bench, wl, seed, 1, None, tmp, ledger=False)
    calls = tracer.total_calls()
    # After the traced leg: untraced again, on the farm for the sweep so
    # that the ledger gives the farm's numbers.
    with bench.RunClock() as clock:
        post = _leg(bench, wl, seed, wl.jobs, clock, tmp, ledger=True)
    failures = [f for leg in base + [traced, post] for f in leg.failures]
    for i, leg in enumerate(base[1:], 1):
        failures += bench.compare_legs(base[0], leg, f"repeat 0 vs {i}")
    failures += bench.compare_legs(base[0], traced, "traced vs untraced")
    failures += bench.compare_legs(base[0], post, "untraced after traced")
    failures += layers.self_test(tracer, traced.wall_s)
    if tracer.total_calls() != calls:
        failures.append("tracer: wrappers ran after the traced leg")
    attempted = (len(base) + 2) * len(wl.points)
    if not wl.sweep:
        failures += bench.check_checkpoint(wl, seed, base[0].results)
        attempted += 1
    metrics = layers.layer_metrics(tracer, post.farm if wl.sweep else None)
    metrics["trace.overhead_frac"] = (
        traced.wall_s / _median([leg.wall_s for leg in base]) - 1.0)
    metrics["trace.covered_frac"] = tracer.root_s / traced.wall_s
    metrics.update(bench.sim_counts(base[0]))
    return Outcome(metrics, failures, attempted, len(base),
                   post.farm_spawn_s, tracer, traced.wall_s)


# ------------------------------------------------------------------ report

def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".kips"):
        return "kinst/s"
    return "count"


def kind_of(name: str) -> str:
    """``host`` for host-time and host-memory figures, ``sim`` for
    simulated statistics (exact), ``count`` for host-side call counts."""
    if name.startswith("sim.") or name in layers.SIMULATED_RATIOS:
        return "sim"
    if unit_of(name) in ("s", "kinst/s", "MB") or name.startswith("trace.") \
            or name == "analysis.farm.busy_frac":
        return "host"
    return "count"


def report_layers(tracer, wall_s: float) -> None:
    total = sum(tracer.self_s.values()) or 1.0
    print(f"  {'layer':<18}{'self_s':>10}{'share':>8}{'calls':>12}")
    for layer, s in sorted(tracer.self_s.items(), key=lambda kv: -kv[1]):
        if tracer.calls[layer]:
            print(f"  {layer:<18}{s:>10.4f}{s / total:>8.1%}"
                  f"{tracer.calls[layer]:>12}")
    print(f"  traced wall {wall_s:.4f} s, root spans {tracer.root_s:.4f} s")
    edges = sorted(tracer.edges.items(), key=lambda kv: -kv[1])[:8]
    print("  busiest caller -> callee edges: " + ", ".join(
        f"{a}->{b} {n}" for (a, b), n in edges))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    # Provenance probes inside the simulator run git; keep them from
    # searching the directories above the checkout.
    os.environ["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    sys.path.insert(0, SRC)
    import repro
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import bench
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one "
              f"of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    context = host_context()
    probes = SetupProbes(wl.name, args.seed)
    probes.take()
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        if args.trace:
            run = traced_run(bench, wl, args.seed, args.seconds, tmp, probes)
        else:
            run = timed_run(bench, wl, args.seed, args.seconds, tmp, probes)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    probes.top_up()
    metrics = run.metrics
    if args.trace:
        for k in ("import_s", "build_trace_s", "core_init_s", "preload_s"):
            metrics[f"setup.{k}"] = probes.median(k)
        metrics["setup.farm_spawn_s"] = run.farm_spawn_s
    else:
        metrics["setup_s"] = probes.median("total_s") + run.farm_spawn_s
    context.update(repeats=run.repeats, setup_probes=len(probes.samples))
    failed = min(len(run.failures), run.attempted)

    print(f"perfbench {wl.name} seed={args.seed} trace={args.trace} "
          f"points/leg={len(wl.points)} legs={run.repeats} "
          f"probes={len(probes.samples)}")
    if run.tracer is not None:
        report_layers(run.tracer, run.traced_wall_s)
    for k, v in metrics.items():
        shown = f"{v:>18.6f}" if isinstance(v, float) else f"{v:>11d}       "
        print(f"  {k:<34}{shown} {unit_of(k):<8}[{kind_of(k)}]")
    print(f"  {'points':<34}{run.attempted:>11d} attempted")
    print(f"  {'points_failed':<34}{failed:>11d}")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not run.failures, "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)}
                    for k, v in metrics.items()},
    }))
    return 0 if not run.failures else 1


if __name__ == "__main__":
    sys.exit(main())
