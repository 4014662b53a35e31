"""The benchmark's four workloads and the machines they run on.

Kept apart from the timed legs so the set-up probe can resolve a
workload exactly as the legs do without importing the harness.
"""

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro import BASELINE, get_workload
from repro.memory.dram import dram_preset

#: Same configurations as the CLI's machine registry of the same names.
MACHINES = {
    "baseline": BASELINE,
    "baseline-frfcfs": BASELINE.with_dram(
        dram_preset("ddr3-1600", scheduler="frfcfs"),
        name="baseline-frfcfs"),
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a set of simulation points and how to run
    them. ``sweep`` workloads go through ``run_matrix`` on the farm; the
    others call ``simulate`` once per point in this process."""

    name: str
    machine: str
    workloads: Tuple[str, ...]
    policies: Tuple[str, ...]
    instructions: int
    warmup: int
    sweep: bool = False
    jobs: int = 1

    @property
    def points(self) -> List[Tuple[str, str]]:
        return [(w, p) for w in self.workloads for p in self.policies]

    def specs(self, seed: int):
        """The workload specs with the benchmark seed applied, the same
        way for ``simulate`` and for ``run_matrix`` (which takes none)."""
        return [dataclasses.replace(get_workload(w), seed=seed)
                for w in self.workloads]


#: Each workload loads different layers (measured shares: README.md).
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # Misses behind a full window, dependent (mcf) and independent (lbm):
    # the runahead controller and the engine do the work.
    Workload("mem-runahead", "baseline", ("mcf", "lbm"), ("RAR",),
             instructions=10_000, warmup=5_000),
    # Cache-resident, no runahead triggers: the bypass workload for
    # runahead, memory and DRAM changes.
    Workload("compute-ooo", "baseline", ("namd", "x264"), ("OOO",),
             instructions=20_000, warmup=10_000),
    # Sixteen streams saturate the MSHRs; every miss goes through the
    # FR-FCFS scheduler.
    Workload("mem-bandwidth", "baseline-frfcfs", ("streambw",), ("OOO",),
             instructions=6_000, warmup=3_000),
    # The only workload reaching the farm, checkpoints and the functional
    # warmup: long shared warmup, short measured region, two workers.
    Workload("sweep-fork", "baseline", ("mcf", "lbm", "namd", "x264"),
             ("OOO", "FLUSH", "PRE", "RAR"),
             instructions=2_000, warmup=20_000, sweep=True, jobs=2),
)}


