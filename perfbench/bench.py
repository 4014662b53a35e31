"""Workloads, timed legs and output checks of the simulator benchmark.

Every leg runs the simulator through its public run API (``simulate``,
``warm_checkpoint``/``simulate_from``, ``ExperimentRunner.run_matrix``)
with telemetry off, so ``SimEngine.run`` takes its inlined production
loop. The only instrumentation on an untraced leg is :class:`RunClock`,
which times whole ``OutOfOrderCore.run`` calls (two per point) and farm
worker spawns from the outside.
"""

import functools
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro import ExperimentRunner, OutOfOrderCore, simulate, \
    simulate_from, warm_checkpoint
from repro.analysis.farm import FarmScheduler
from repro.checkpoint import process_checkpoint_cache
from repro.obs.ledger import RunLedger, read_ledger
from workloads import MACHINES, Workload


@dataclass
class Leg:
    """One pass over every point of a workload."""

    wall_s: float
    results: Dict[Tuple[str, str], object]
    warmup_s: float = 0.0
    measured_s: float = 0.0
    kips: float = 0.0
    farm_spawn_s: float = 0.0
    farm: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


class RunClock:
    """Times ``OutOfOrderCore.run`` and ``FarmScheduler._spawn_worker``
    calls from the outside while installed (a context manager).

    Farm workers fork from this process, so they inherit it too: there
    it makes the ledger's ``point_done``/``warmup_shared`` events carry
    the unrounded wall time as ``wall_s_full`` (the ledger rounds
    ``wall_s`` to 0.1 ms)."""

    def __init__(self) -> None:
        #: seconds per call, in call order
        self.runs: List[float] = []
        self.spawns: List[float] = []
        self._saved = []

    def __enter__(self) -> "RunClock":
        for owner, attr, wrap in (
                (OutOfOrderCore, "run", _timed(self.runs)),
                (FarmScheduler, "_spawn_worker", _timed(self.spawns)),
                (RunLedger, "point_done", _full_wall),
                (RunLedger, "warmup_shared", _full_wall)):
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)

    def take(self) -> Tuple[List[float], List[float]]:
        runs, spawns = self.runs[:], self.spawns[:]
        self.runs.clear()
        self.spawns.clear()
        return runs, spawns


def _timed(sink: List[float]):
    perf = time.perf_counter

    def wrap(fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                sink.append(perf() - t0)

        return timed

    return wrap


def _full_wall(fn):
    @functools.wraps(fn)
    def emit(self, *, wall_s, **fields):
        return fn(self, wall_s=wall_s, wall_s_full=wall_s, **fields)

    return emit


def _label(point: Tuple[str, str]) -> str:
    return f"{point[0]}/{point[1]}"


# ----------------------------------------------------------- single process

def run_single(wl: Workload, seed: int, clock: Optional[RunClock]) -> Leg:
    """Every point through ``simulate``; warmup and measured-region host
    time come from the two ``OutOfOrderCore.run`` calls of each point."""
    machine = MACHINES[wl.machine]
    results: Dict[Tuple[str, str], object] = {}
    failures: List[str] = []
    leg = Leg(wall_s=0.0, results=results, failures=failures)
    t0 = time.perf_counter()
    for spec in wl.specs(seed):
        for policy in wl.policies:
            try:
                results[(spec.name, policy)] = simulate(
                    spec, machine, policy, instructions=wl.instructions,
                    warmup=wl.warmup)
            except Exception as exc:  # a point failure is a result
                failures.append(f"{_label((spec.name, policy))}: raised "
                                f"{exc!r}")
            if clock is not None:
                runs, _ = clock.take()
                if len(runs) == 2:  # [warmup, measured]
                    leg.warmup_s += runs[0]
                    leg.measured_s += runs[1]
                elif (spec.name, policy) in results:
                    failures.append(f"{_label((spec.name, policy))}: "
                                    f"{len(runs)} core run calls, expected "
                                    "warmup + measured")
    leg.wall_s = time.perf_counter() - t0
    if clock is not None:
        committed = sum(r.instructions for r in results.values())
        leg.kips = committed / leg.measured_s / 1e3 if leg.measured_s else 0.0
    return leg


def check_checkpoint(wl: Workload, seed: int, cold: Dict) -> List[str]:
    """Cold ``simulate`` must equal ``warm_checkpoint``+``simulate_from``
    for the first point (same policy for warmup and measurement)."""
    point = wl.points[0]
    spec = wl.specs(seed)[0]
    if point not in cold:
        return []  # already reported as raised
    try:
        checkpoint = warm_checkpoint(spec, MACHINES[wl.machine], point[1],
                                     warmup=wl.warmup)
        forked = simulate_from(checkpoint, instructions=wl.instructions)
    except Exception as exc:
        return [f"{_label(point)}: checkpoint leg raised {exc!r}"]
    if forked != cold[point]:
        return [f"{_label(point)}: cold simulate != "
                "warm_checkpoint+simulate_from"]
    return []


# -------------------------------------------------------------------- sweep

def run_sweep(wl: Workload, seed: int, jobs: int,
              clock: Optional[RunClock], ledger_path: Optional[str]) -> Leg:
    """The matrix through ``run_matrix`` on a fresh runner (no disk
    cache) after clearing the process checkpoint cache, whose key ignores
    the spec seed and which forked farm workers inherit."""
    machine = MACHINES[wl.machine]
    specs = wl.specs(seed)
    process_checkpoint_cache().clear()
    runner = ExperimentRunner(instructions=wl.instructions,
                              warmup=wl.warmup)
    t0 = time.perf_counter()
    matrix = runner.run_matrix(specs, machine, wl.policies, jobs=jobs,
                               share_warmup=True, warmup_mode="fast",
                               ledger=ledger_path)
    wall = time.perf_counter() - t0
    results = {(w, p): r for p, by_wl in matrix.items()
               for w, r in by_wl.items()}
    leg = Leg(wall_s=wall, results=results)
    leg.failures += [f"{f['workload']}/{f['policy']}: failed in sweep: "
                     f"{f['error']}" for f in matrix.failures]
    if not matrix.ok or len(results) != len(wl.points):
        leg.failures.append(f"sweep: ok={matrix.ok}, {len(results)} of "
                            f"{len(wl.points)} points")
    if clock is not None:
        _, spawns = clock.take()
        leg.farm_spawn_s = sum(spawns)
    if ledger_path is not None:
        _from_ledger(leg, read_ledger(ledger_path), jobs, len(specs))
        os.remove(ledger_path)
    return leg


def _from_ledger(leg: Leg, events: List[Dict], jobs: int,
                 groups: int) -> None:
    """Warmup time, per-point KIPS and the farm's busy share from the
    sweep's run ledger (worker processes are not reachable otherwise)."""
    warmups = [e for e in events if e["ev"] == "warmup_shared"]
    done = [e for e in events if e["ev"] == "point_done"]
    if len(warmups) != groups:
        leg.failures.append(f"sweep: {len(warmups)} warmup_shared events, "
                            f"expected one per group ({groups})")
    leg.warmup_s = sum(e["wall_s_full"] for e in warmups)
    leg.measured_s = sum(e["wall_s_full"] for e in done)
    committed = sum(r.instructions for r in leg.results.values())
    leg.kips = committed / leg.measured_s / 1e3 if leg.measured_s else 0.0
    busy = leg.warmup_s + leg.measured_s
    leg.farm = {
        "calls": len(done),
        "busy_frac": busy / (jobs * leg.wall_s),
        "self_s": leg.wall_s - busy / jobs,
        "requeued": sum(1 for e in events if e["ev"] == "point_requeued"),
    }


# ------------------------------------------------------------------- checks

def compare_legs(reference: Leg, other: Leg, what: str) -> List[str]:
    """Names of the points whose ``SimResult`` differs between two legs."""
    failures = []
    for point, result in reference.results.items():
        if point in other.results and other.results[point] != result:
            failures.append(f"{_label(point)}: SimResult differs ({what})")
    return failures


def sim_counts(leg: Leg) -> Dict[str, int]:
    """Simulated statistics summed over the leg's points (exact)."""
    rs = list(leg.results.values())
    return {
        "sim.committed": sum(r.instructions for r in rs),
        "sim.cycles": sum(r.cycles for r in rs),
        "sim.abc_total": sum(r.abc_total for r in rs),
        "sim.llc_misses": sum(r.demand_llc_misses for r in rs),
        "sim.runahead_triggers": sum(r.runahead_triggers for r in rs),
    }
