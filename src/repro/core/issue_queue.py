"""Issue queue with event-driven ready-list wakeup/select.

Dispatch inserts uops with a pending-producer count; completion events
decrement it (wakeup) and move zero-pending uops onto the ready lists,
from which select pulls oldest-first each cycle. Occupancy counts both
waiting and ready-but-unissued uops — an IQ entry is released at *issue*,
which is also the end of its ACE-vulnerable interval.

The ready set is kept as one FIFO deque *per FU class*, with a global
monotonically increasing wakeup stamp (``DynUop.ready_ord``) assigned as
each uop becomes ready. Selection takes the smallest stamp among the
class heads, which reproduces exactly the single-FIFO age order the
scan-based queue used — but lets the select loop skip a whole class in
O(1) once its functional units are exhausted for the cycle, instead of
popping and requeueing every ready uop of that class. The
``iq-ready-coherence`` invariant (``repro.validate``) recomputes
readiness from scratch under ``--validate`` to keep the incremental
lists honest.

A load the memory hierarchy rejects because every L1 MSHR is in flight
is *parked*: taken off its class FIFO until ``park_until``, the earliest
cycle an MSHR can free (docs/performance.md §4). Until then every retry
would be rejected too, so select skips the load instead of re-probing
the hierarchy every cycle. Parked loads stay counted as ready
(``_nready``), so occupancy, dispatch capacity and quiescence are
unchanged. From ``park_until`` on they return one at a time, oldest
first, to the front of their FIFO (:meth:`unpark_one`) — they are older
than everything woken since, so pick order is exact — and the back end
brings the next one only when the previous one issues. Once a retry is
rejected, the rest could only succeed on a line that went live since
they parked; ``_parked_lines`` counts parked loads per line and is the
hierarchy's ``watch``, whose ``watch_hit`` flag sends them all back at
once (:meth:`unpark`). The ``mshr-park`` invariant checks that every
skipped retry would indeed have been rejected.
"""

from collections import deque
from typing import Deque, Dict, List

from repro.common.enums import FU_CLASS
from repro.isa.uop import DynUop
from repro.memory.hierarchy import LINE_MASK

#: FU classes are a dense prefix of UopClass (INT_ADD..FP_DIV).
NUM_FU_CLASSES = max(FU_CLASS) + 1


class IssueQueue:
    def __init__(self, size: int):
        self.size = size
        self._waiting: set = set()
        #: per-FU-class FIFO of ready uops, each stamped with ``ready_ord``
        self._ready: List[Deque[DynUop]] = [deque()
                                            for _ in range(NUM_FU_CLASSES)]
        self._nready = 0
        #: bitmask of FU classes whose ready FIFO is non-empty — lets
        #: select iterate only the populated classes
        self._nonempty = 0
        #: next global wakeup-order stamp
        self._next_ord = 0
        #: MSHR-rejected loads (oldest first), off the ready FIFOs but
        #: counted in ``_nready``, and the cycle they may retry from
        self._parked: List[DynUop] = []
        self.park_until = 0
        #: line -> number of parked loads on it; shared with the memory
        #: hierarchy as ``MemoryHierarchy.watch``, so it is only ever
        #: mutated in place
        self._parked_lines: Dict[int, int] = {}
        #: extra entries claimed by runahead slice uops (lean runahead uses
        #: the *free* IQ entries, per PRE)
        self.runahead_used = 0

    def __len__(self) -> int:
        return len(self._waiting) + self._nready + self.runahead_used

    @property
    def full(self) -> bool:
        return len(self) >= self.size

    @property
    def free(self) -> int:
        return max(0, self.size - len(self))

    def _push_ready(self, uop: DynUop) -> None:
        uop.ready_ord = self._next_ord
        self._next_ord += 1
        fc = uop.static.fu_cls
        self._ready[fc].append(uop)
        self._nonempty |= 1 << fc
        self._nready += 1

    def insert(self, uop: DynUop) -> None:
        if len(self._waiting) + self._nready + self.runahead_used \
                >= self.size:
            raise OverflowError("IQ full")
        if uop.pending == 0:
            self._push_ready(uop)
        else:
            self._waiting.add(uop)

    def wakeup(self, uop: DynUop) -> None:
        """Producer completed: move a waiting uop with no more pending
        producers onto its class's ready list."""
        if uop.pending == 0 and uop in self._waiting:
            self._waiting.discard(uop)
            self._push_ready(uop)

    def pop_ready(self) -> DynUop:
        """Remove and return the oldest-woken ready uop (smallest
        ``ready_ord`` among the per-class FIFO heads)."""
        best: DynUop = None  # type: ignore[assignment]
        best_cls = -1
        for cls, dq in enumerate(self._ready):
            if dq:
                head = dq[0]
                if best is None or head.ready_ord < best.ready_ord:
                    best = head
                    best_cls = cls
        if best is None:
            raise IndexError("pop from an empty ready list")
        dq = self._ready[best_cls]
        dq.popleft()
        if not dq:
            self._nonempty &= ~(1 << best_cls)
        self._nready -= 1
        return best

    def requeue(self, uop: DynUop) -> None:
        """Put a selected uop back (structural hazard: FU/MSHR busy).

        The uop keeps its original ``ready_ord``, so it stays at the front
        of its class FIFO and ahead of anything woken later."""
        fc = uop.static.fu_cls
        self._ready[fc].appendleft(uop)
        self._nonempty |= 1 << fc
        self._nready += 1

    def park(self, uop: DynUop, until: int) -> None:
        """Set aside a selected load the MSHRs rejected; it retries from
        cycle ``until`` on (the earliest MSHR completion).

        The list stays in age order: a load coming back from
        :meth:`unpark_one` is older than every parked load, any other is
        younger (parked loads are older than their whole class FIFO)."""
        parked = self._parked
        if parked and uop.ready_ord < parked[0].ready_ord:
            parked.insert(0, uop)
        else:
            parked.append(uop)
        lines = self._parked_lines
        line = uop.static.addr & LINE_MASK
        lines[line] = lines.get(line, 0) + 1
        self._nready += 1
        self.park_until = until

    def unpark_one(self) -> None:
        """Return the oldest parked load to the front of its class FIFO."""
        u = self._parked.pop(0)
        fc = u.static.fu_cls
        self._ready[fc].appendleft(u)
        self._nonempty |= 1 << fc
        self._unwatch(u)

    def _unwatch(self, uop: DynUop) -> None:
        """Drop a load leaving the parked list from its line's count."""
        lines = self._parked_lines
        line = uop.static.addr & LINE_MASK
        n = lines[line] - 1
        if n:
            lines[line] = n
        else:
            del lines[line]

    def unpark(self) -> None:
        """Return every parked load, in age order, to the front of its
        class FIFO (the back end's fallback once a parked line went
        live)."""
        ready = self._ready
        for u in reversed(self._parked):
            fc = u.static.fu_cls
            ready[fc].appendleft(u)
            self._nonempty |= 1 << fc
        self._parked = []
        self._parked_lines.clear()

    @property
    def ready_count(self) -> int:
        return self._nready

    def squash(self, pred) -> int:
        """Drop all queued uops matching ``pred``; returns count dropped."""
        dropped = [u for u in self._waiting if pred(u)]
        for u in dropped:
            self._waiting.discard(u)
        n = len(dropped)
        for cls, dq in enumerate(self._ready):
            kept = [u for u in dq if not pred(u)]
            removed = len(dq) - len(kept)
            if removed:
                n += removed
                self._nready -= removed
                self._ready[cls] = deque(kept)
                if not kept:
                    self._nonempty &= ~(1 << cls)
        parked = self._parked
        if parked:
            gone = [u for u in parked if pred(u)]
            if gone:
                for u in gone:
                    self._unwatch(u)
                n += len(gone)
                self._nready -= len(gone)
                self._parked = [u for u in parked if not pred(u)]
        return n

    def clear(self) -> None:
        self._waiting.clear()
        for dq in self._ready:
            dq.clear()
        self._parked = []
        self._parked_lines.clear()
        self._nready = 0
        self._nonempty = 0
        self.runahead_used = 0
