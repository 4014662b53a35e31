"""Request scheduling policies for the DRAM controller.

Two schedulers share one interface — ``service(channel, bank, row,
arrive) -> (data_cycle, row_hit, refresh_stall)`` — and one timing
vocabulary (all in core cycles, from :class:`repro.common.params.DramParams`):
a row hit costs ``row_hit_latency`` and occupies its bank for ``tCCD``
(= ``bus_cycles_per_access``); a miss costs ``row_miss_latency`` and holds
the bank through precharge + activate; each channel has one data bus on
which bursts serialise at ``bus_cycles_per_access``.

``FcfsScheduler``
    Arrival order. With refresh disabled this is a line-for-line port of
    the original single-protocol model's arithmetic, which the 25-point
    golden gate pins bit-for-bit.

``FrfcfsScheduler``
    FR-FCFS (Rixner et al., ISCA 2000) adapted to this simulator's
    synchronous ``access()`` API. Requests already serviced have already
    returned their timing, so a later row hit cannot retroactively delay
    them; instead the scheduler keeps each bank's *schedule* (busy
    segments) and lets a row hit fill an idle gap where its row is open,
    provided a bus slot is free and no bypassed request is older than
    ``frfcfs_cap`` cycles (the age-based starvation cap). A hit that finds
    no gap, and every row miss, falls back to FCFS tail arithmetic. The
    model is mildly conservative (bypasses never push scheduled work) but
    preserves FR-FCFS's signature: higher row-hit rate and bandwidth under
    bank-conflict-heavy load, bounded queueing delay for old requests.

Refresh (``t_refi > 0``): every ``t_refi`` cycles each bank is blocked for
``t_rfc`` and its row buffer closes. Windows are phase-staggered across
banks as real controllers do, so refresh never blocks all banks at once.
"""

from bisect import bisect_left, bisect_right, insort
from typing import Dict, List, Tuple

from repro.common.params import DramParams

__all__ = ["FcfsScheduler", "FrfcfsScheduler", "SCHEDULERS", "make_scheduler"]


class FcfsScheduler:
    """Arrival-order scheduling (the legacy model's implicit policy)."""

    kind = "fcfs"

    def __init__(self, params: DramParams):
        self.params = params
        #: per-bank (open_row, next_free_cycle), keyed by global bank id
        self._banks: Dict[int, Tuple[int, int]] = {}
        self._bus_free: List[int] = [0] * params.channels

    def service(self, channel: int, bank: int, row: int,
                arrive: int) -> Tuple[int, bool, int]:
        p = self.params
        gbank = channel * p.num_banks + bank
        open_row, next_free = self._banks.get(gbank, (-1, 0))
        start = arrive if arrive > next_free else next_free
        closed = False
        stall = 0
        if p.t_refi:
            start, closed, stall = self._refresh_adjust(gbank, start,
                                                        next_free)
        if row == open_row and not closed:
            latency = p.row_hit_latency
            busy = p.bus_cycles_per_access  # back-to-back column reads (tCCD)
            hit = True
        else:
            latency = p.row_miss_latency
            busy = p.t_rp + p.t_rcd + p.bus_cycles_per_access
            hit = False
        data_cycle = start + latency
        # Shared data bus: consecutive bursts cannot overlap. When the bus
        # pushes the burst back, the bank stays occupied for the same span
        # — its column access cannot complete before the burst issues.
        bus_free = self._bus_free[channel]
        bus_push = 0
        if data_cycle < bus_free:
            bus_push = bus_free - data_cycle
            data_cycle = bus_free
        self._bus_free[channel] = data_cycle + p.bus_cycles_per_access
        # The bank frees once the row is open and the burst has issued —
        # NOT when the data reaches the core; row hits pipeline at tCCD.
        self._banks[gbank] = (row, start + busy + bus_push)
        return data_cycle, hit, stall

    def _refresh_adjust(self, gbank: int, start: int,
                        prev_free: int) -> Tuple[int, bool, int]:
        """Apply the refresh window covering ``start``, if any.

        Returns (adjusted start, row-buffer closed, stall cycles). A
        request landing inside a window waits it out; a window that
        completed while the bank sat idle since its previous service
        closed the row buffer. Windows that overlapped the bank's own
        busy time are treated as deferred (absorbed), first-order.
        """
        p = self.params
        phase = (gbank * p.t_refi) // (p.num_banks * p.channels)
        if start < phase:
            return start, False, 0
        w_start = start - ((start - phase) % p.t_refi)
        w_end = w_start + p.t_rfc
        if start < w_end:
            return w_end, True, w_end - start
        return start, w_start >= prev_free, 0

    def busy_banks(self, cycle: int) -> int:
        return sum(1 for _, nf in self._banks.values() if nf > cycle)


class FrfcfsScheduler:
    """Row-hit-first gap-fill scheduling with an age-based starvation cap."""

    kind = "frfcfs"

    #: Sentinel row for refresh segments: never matches a real row, so the
    #: buffer reads as closed after a refresh.
    _REFRESH_ROW = -1

    def __init__(self, params: DramParams):
        self.params = params
        #: per-bank busy segments [start, end, row, arrive], sorted by
        #: start; refresh windows carry row=-1 / arrive=-1.
        self._ops: Dict[int, List[List[int]]] = {}
        #: per-channel booked bus bursts [start, end], sorted, disjoint.
        self._bus: Dict[int, List[List[int]]] = {}
        #: per-channel sorted end cycles of the bursts with room for
        #: another burst right behind them (the last burst always has) —
        #: the only places a burst that cannot start when ready can land
        self._bus_open: Dict[int, List[int]] = {}
        self._width = params.bus_cycles_per_access
        #: per-bank next refresh window not yet materialised into _ops.
        self._next_ref: Dict[int, int] = {}
        self.bypasses = 0
        self.bypass_denied_age = 0

    # ------------------------------------------------------------- service

    def service(self, channel: int, bank: int, row: int,
                arrive: int) -> Tuple[int, bool, int]:
        p = self.params
        gbank = channel * p.num_banks + bank
        ops = self._ops.get(gbank)
        if ops is None:
            ops = self._ops[gbank] = []
        if p.t_refi:
            # Materialise only the windows that could affect this request
            # (up to the candidate's worst-case end). Later windows are
            # placed by later calls, deferring around work booked first —
            # a controller postponing refresh under load. Materialising
            # further ahead would make every request queue behind a
            # window that is still minutes of bank-idle time away.
            worst = p.t_rp + p.t_rcd + p.bus_cycles_per_access + p.t_rfc
            while True:
                prev_end = ops[-1][1] if ops else 0
                cand = (arrive if arrive > prev_end else prev_end) + worst
                if self._next_ref_start(gbank) > cand:
                    break
                self._materialize_one(gbank, ops)
        data = self._try_bypass(channel, ops, row, arrive)
        if data is not None:
            self._prune(gbank, channel, arrive)
            return data, True, 0
        # Backfill the idle gaps before trailing refresh windows: a window
        # was merely *booked* at its nominal time; a request that fits
        # entirely before it need not wait behind it (no real request is
        # bypassed — the trailing segments are all refresh).
        j = len(ops)
        while j > 0 and ops[j - 1][2] == self._REFRESH_ROW:
            j -= 1
        if j < len(ops):
            placed = self._try_backfill(channel, ops, j, row, arrive)
            if placed is not None:
                self._prune(gbank, channel, arrive)
                return placed
        # FCFS tail: same arithmetic as the legacy model, with the bank's
        # schedule tail standing in for (open_row, next_free).
        if ops:
            last = ops[-1]
            open_row, prev_end = last[2], last[1]
        else:
            last = None
            open_row, prev_end = -1, 0
        start = arrive if arrive > prev_end else prev_end
        stall = 0
        if last is not None and last[2] == self._REFRESH_ROW \
                and arrive < prev_end:
            stall = prev_end - (arrive if arrive > last[0] else last[0])
        if row == open_row:
            latency = p.row_hit_latency
            busy = p.bus_cycles_per_access
            hit = True
        else:
            latency = p.row_miss_latency
            busy = p.t_rp + p.t_rcd + p.bus_cycles_per_access
            hit = False
        data = start + latency
        # Bus: take the earliest free slot at/after the column access —
        # a burst delayed by refresh leaves the intervening bus idle for
        # other banks instead of head-of-line blocking them.
        slot = self._bus_slot(channel, data)
        push = slot - data
        data = slot
        self._bus_insert(channel, slot)
        ops.append([start, start + busy + push, row, arrive])
        self._prune(gbank, channel, arrive)
        return data, hit, stall

    # ------------------------------------------------------------- bypass

    def _try_bypass(self, channel: int, ops: List[List[int]], row: int,
                    arrive: int):
        """Schedule a row hit into an idle bank gap, if legal.

        A gap after segment ``i`` is usable when segment ``i`` left ``row``
        open, the gap fits a tCCD burst at or after ``arrive``, a bus slot
        lines up with the burst, and no bypassed request exceeds the
        starvation cap. Returns the data cycle, or None.
        """
        p = self.params
        width = p.bus_cycles_per_access
        hit_lat = p.row_hit_latency
        # Segments are sorted and disjoint: every gap closed by a segment
        # starting before ``arrive + width`` is too short for the burst,
        # so start at the last segment whose successor starts at or after.
        first = bisect_left(ops, [arrive + width]) - 1
        for i in range(first if first > 0 else 0, len(ops) - 1):
            cur = ops[i]
            if cur[2] != row:
                continue
            g0 = cur[1] if cur[1] > arrive else arrive
            g1 = ops[i + 1][0]
            if g1 - g0 < width:
                continue
            oldest = min((op[3] for op in ops[i + 1:] if op[3] >= 0),
                         default=-1)
            if oldest >= 0 and arrive - oldest > p.frfcfs_cap:
                self.bypass_denied_age += 1
                return None
            slot = self._bus_slot(channel, g0 + hit_lat)
            s = slot - hit_lat
            if s > g1 - width:
                continue  # bus congestion pushed past the bank gap
            ops.insert(i + 1, [s, s + width, row, arrive])
            self._bus_insert(channel, slot)
            self.bypasses += 1
            return slot
        return None

    def _try_backfill(self, channel: int, ops: List[List[int]], j: int,
                      row: int, arrive: int):
        """Place a request in a gap among the trailing refresh windows.

        ``ops[j:]`` are all refresh segments. Tries each gap earliest
        first; the request (hit or miss) must fit completely — bank busy
        and bus burst — before the window starts. Returns
        (data_cycle, hit, 0) or None.
        """
        p = self.params
        width = p.bus_cycles_per_access
        for k in range(j, len(ops)):
            gap_lo = ops[k - 1][1] if k > 0 else 0
            open_row = ops[k - 1][2] if k > 0 else -1
            start = arrive if arrive > gap_lo else gap_lo
            hit = row == open_row
            if hit:
                latency, busy = p.row_hit_latency, width
            else:
                latency = p.row_miss_latency
                busy = p.t_rp + p.t_rcd + width
            data = start + latency
            slot = self._bus_slot(channel, data)
            end = start + busy + (slot - data)
            if end <= ops[k][0]:
                ops.insert(k, [start, end, row, arrive])
                self._bus_insert(channel, slot)
                return slot, hit, 0
        return None

    def _bus_slot(self, channel: int, t: int) -> int:
        """Earliest cycle >= t where the channel bus is free for a burst.

        Equivalent to scanning the bursts from ``t`` and hopping over
        each one that overlaps the candidate slot, but both hops are
        bisections: to the first burst ending after ``t``, and — when
        that burst is in the way — to the first burst end after ``t``
        with room behind it.
        """
        bus = self._bus.get(channel)
        if not bus:
            return t
        i = _first_ending_after(bus, t)
        if i == len(bus) or bus[i][0] >= t + self._width:
            return t
        opens = self._bus_open[channel]
        return opens[bisect_right(opens, t)]

    def _bus_insert(self, channel: int, start: int) -> None:
        """Book a burst at ``start`` (a slot :meth:`_bus_slot` returned)."""
        width = self._width
        end = start + width
        bus = self._bus.setdefault(channel, [])
        opens = self._bus_open.setdefault(channel, [])
        i = bisect_left(bus, [start])
        if i and start - bus[i - 1][1] < width:
            # The burst before had room behind it; now it has not.
            del opens[bisect_left(opens, bus[i - 1][1])]
        if i == len(bus) or bus[i][0] - end >= width:
            insort(opens, end)
        bus.insert(i, [start, end])

    # ------------------------------------------------------------- refresh

    def _next_ref_start(self, gbank: int) -> int:
        """Nominal start of the bank's next unmaterialised refresh window."""
        nxt = self._next_ref.get(gbank)
        if nxt is None:
            p = self.params
            nxt = (gbank * p.t_refi) // (p.num_banks * p.channels)
            self._next_ref[gbank] = nxt
        return nxt

    def _materialize_one(self, gbank: int, ops: List[List[int]]) -> None:
        """Book the bank's next refresh window as a schedule segment.

        A window overlapping already-booked work is deferred past it,
        keeping segments disjoint.
        """
        p = self.params
        nxt = self._next_ref_start(gbank)
        ws = nxt
        idx = len(ops)
        while idx > 0 and ops[idx - 1][0] >= ws:
            idx -= 1
        if idx > 0 and ops[idx - 1][1] > ws:
            ws = ops[idx - 1][1]
        while idx < len(ops) and ops[idx][0] < ws + p.t_rfc:
            if ops[idx][1] > ws:
                ws = ops[idx][1]
            idx += 1
        ops.insert(idx, [ws, ws + p.t_rfc, self._REFRESH_ROW, -1])
        self._next_ref[gbank] = nxt + p.t_refi

    # ------------------------------------------------------------- pruning

    def _prune(self, gbank: int, channel: int, now: int) -> None:
        """Drop segments far in the past (arrivals are near-monotone)."""
        margin = now - 8192
        ops = self._ops[gbank]
        if len(ops) > 64:
            # Keep the segments ending at or after the margin (at least
            # one); disjoint sorted segments have sorted ends.
            del ops[:min(_first_ending_after(ops, margin - 1),
                         len(ops) - 1)]
        bus = self._bus.get(channel)
        if bus and len(bus) > 512:
            # Keep the bursts ending at or after the margin (at least one).
            del bus[:min(_first_ending_after(bus, margin - 1),
                         len(bus) - 1)]
            opens = self._bus_open[channel]
            del opens[:bisect_left(opens, bus[0][1])]

    def busy_banks(self, cycle: int) -> int:
        return sum(
            1 for ops in self._ops.values()
            if any(op[0] <= cycle < op[1] for op in ops))


def _first_ending_after(spans: List[List[int]], t: int) -> int:
    """Index of the first ``[start, end, ...]`` span with ``end > t``.

    Spans (bus bursts, bank segments) are sorted and disjoint, so their
    end cycles are sorted too: bisect on the starts, then step back over
    the one span that can straddle ``t``.
    """
    i = bisect_left(spans, [t])  # first span starting at or after t
    if i and spans[i - 1][1] > t:
        i -= 1
    return i


SCHEDULERS = ("fcfs", "frfcfs")


def make_scheduler(params: DramParams):
    if params.scheduler == "fcfs":
        return FcfsScheduler(params)
    if params.scheduler == "frfcfs":
        return FrfcfsScheduler(params)
    raise ValueError(f"unknown scheduler {params.scheduler!r}; "
                     f"expected one of {SCHEDULERS}")
