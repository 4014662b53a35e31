"""Protocol-parameterised DRAM controller.

Front door of the ``repro.memory.dram`` subsystem: decodes addresses
through the configured :class:`~repro.memory.dram.mapping.AddressMapping`,
hands (channel, bank, row) requests to the configured scheduler, and
accumulates the observability counters exposed through the stats registry
(``mem.dram.*``).

The model is deliberately first-order: it reproduces the latency *spread*
(row hits vs. row conflicts), bank-level parallelism, refresh interference
and the per-channel bandwidth wall that shape memory-level parallelism,
which is what runahead exploits. With the default parameters (ddr3-1600,
one channel, refresh off, ``fcfs``, row-interleaved mapping) it is
bit-identical to the original single-protocol model; the golden gate pins
that contract.

State is plain dicts/lists/ints throughout so checkpoint capture can
pickle a controller mid-burst and the fork replays identically.
"""

from typing import List

from repro.common.params import DramParams
from repro.memory.dram.mapping import AddressMapping
from repro.memory.dram.scheduler import make_scheduler

__all__ = ["DramController", "Dram"]


class DramController:
    def __init__(self, params: DramParams):
        self.params = params
        self.mapping = AddressMapping(params)
        self.scheduler = make_scheduler(params)
        self.accesses = 0
        self.row_hits = 0
        self.row_conflicts = 0
        self.refresh_stall_cycles = 0
        # Traffic split by request kind (demand fills / LLC victim
        # writebacks / hardware prefetches).
        self.demand_requests = 0
        self.writeback_requests = 0
        self.prefetch_requests = 0
        #: data-ready cycles of requests issued but possibly not complete;
        #: pruned lazily — only read by the queue-depth sampler.
        self._inflight: List[int] = []

    def access(self, addr: int, arrive_cycle: int,
               kind: str = "demand") -> int:
        """Service one line read/write; returns data-ready cycle."""
        channel, bank, row = self.mapping.map(addr)
        data_cycle, hit, stall = self.scheduler.service(
            channel, bank, row, arrive_cycle)
        self.accesses += 1
        if hit:
            self.row_hits += 1
        else:
            self.row_conflicts += 1
        if stall:
            self.refresh_stall_cycles += stall
        if kind == "demand":
            self.demand_requests += 1
        elif kind == "writeback":
            self.writeback_requests += 1
        else:
            self.prefetch_requests += 1
        inflight = self._inflight
        inflight.append(data_cycle)
        if len(inflight) > 2048:
            self._inflight = [d for d in inflight if d > arrive_cycle]
        return data_cycle

    # -------------------------------------------------------- observability

    def queue_depth(self, cycle: int) -> int:
        """Requests issued whose data has not yet returned at ``cycle``."""
        alive = [d for d in self._inflight if d > cycle]
        self._inflight = alive
        return len(alive)

    def busy_banks(self, cycle: int) -> int:
        """Banks with booked service (occupancy snapshot for sampling)."""
        return self.scheduler.busy_banks(cycle)

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0


#: Historical name — the pre-refactor single-protocol model class.
Dram = DramController
