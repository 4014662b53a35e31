"""Frozen results for the saturated-MSHR regime.

Loads that the memory hierarchy rejects because every L1 MSHR is in
flight are retried by the back end until one frees. How the retry is
scheduled is a host-speed concern only: it must never change a result.
These points spend most of their cycles with the MSHRs full — streambw's
sixteen streams on FR-FCFS DRAM, and lbm behind only two MSHRs — and
pin each point's full ``SimResult`` (as a canonical fingerprint, plus
the cycle count for a readable diff) and its commit-oracle digest.

Each point is measured the way the golden grid measures its points: a
checkpoint warmed under the measured policy, forked with the commit
oracle attached. That also carries any loads waiting on an MSHR at the
end of warmup through the checkpoint.
"""

from dataclasses import replace

import pytest

from repro.checkpoint import warm_checkpoint
from repro.cli import MACHINES
from repro.common.enums import UopClass
from repro.common.params import BASELINE
from repro.core.issue_queue import IssueQueue
from repro.isa.uop import DynUop, StaticUop
from repro.sim import _delta_result, _snapshot
from repro.validate.golden import canonical_fingerprint

INSTRUCTIONS = 4000
WARMUP = 2000

MACHINE = {
    "baseline-frfcfs": MACHINES["baseline-frfcfs"],
    "baseline-mshr2": replace(BASELINE, name="baseline-mshr2",
                              l1d=replace(BASELINE.l1d, mshrs=2)),
}

#: (workload, machine, policy) -> (SimResult fingerprint, commit digest,
#: cycles)
PINS = {
    ("streambw", "baseline-frfcfs", "OOO"): (
        "4829e41afdaa0f66199fa274ef049b089e36432b372d7cce6056d49e860a8379",
        "d2efe204b7ac6912af9348ee0a734b58709a9334ae79771664f91232e84d5e43",
        135012),
    ("streambw", "baseline-frfcfs", "FLUSH"): (
        "5170e656511343354862884775a73c224abfd8fdef0a6b9bf15b0c05da4b75b8",
        "3de236a5f7ec14f92b3a50af2cfd6e439134f2b3fb9afdc8b6e3759677436b2e",
        135345),
    ("streambw", "baseline-frfcfs", "PRE"): (
        "81064ad6908aad1c0a968e0c9972d741ff0dd0b32a9e4cde3bdf846bcce45bb5",
        "d2efe204b7ac6912af9348ee0a734b58709a9334ae79771664f91232e84d5e43",
        135012),
    ("streambw", "baseline-frfcfs", "RAR"): (
        "6e3dac99c8acb30fc29a101df5adc15a57986cf9d166d76b7d15940c59a9661a",
        "d2efe204b7ac6912af9348ee0a734b58709a9334ae79771664f91232e84d5e43",
        97597),
    ("lbm", "baseline-mshr2", "OOO"): (
        "ba81b0d6f8b62e6448b9b0fd89577b3a2104edd31bed2dc34e27c2df8ba6dddb",
        "9f6bdf041c79fcfa5fa10dfb08cf4c31a8e7997ba9ffc8989181baee56e5e489",
        14515),
    ("lbm", "baseline-mshr2", "RAR"): (
        "fc5ce65e6633b283405406af865139c882ff8994c03e5fa817259c63e1fdc350",
        "9f6bdf041c79fcfa5fa10dfb08cf4c31a8e7997ba9ffc8989181baee56e5e489",
        15282),
}
POINTS = list(PINS)


def measure(workload, machine, policy):
    """Warm, fork with the oracle, measure; returns (core, result)."""
    cp = warm_checkpoint(workload, MACHINE[machine], policy, warmup=WARMUP)
    core = cp.fork(oracle=True)
    start = _snapshot(core)
    core.run(INSTRUCTIONS)
    result = _delta_result(core, start, cp.workload)
    core.oracle.final_check(expect_drained=core.engine.exhausted)
    return core, result


@pytest.mark.parametrize("point", POINTS, ids="-".join)
def test_saturated_mshr_point_pinned(point):
    core, result = measure(*point)
    # The point really exercises the MSHR-full retry path.
    assert core.mem.rejected_mshr_full > 0
    fingerprint, digest, cycles = PINS[point]
    assert result.cycles == cycles
    assert core.oracle.digest() == digest
    assert canonical_fingerprint(result.to_dict()) == fingerprint


def uop(seq, cls=UopClass.LOAD):
    return DynUop(StaticUop(idx=seq, pc=0, cls=int(cls)), seq=seq)


def parked_queue():
    """Loads 1 and 2 selected, rejected and parked until cycle 50; ALU
    op 3 (woken after them) and ALU op 4 (woken later still) ready."""
    iq = IssueQueue(size=8)
    for u in (uop(1), uop(2), uop(3, UopClass.INT_ADD)):
        iq.insert(u)
    iq.park(iq.pop_ready(), 50)
    iq.park(iq.pop_ready(), 50)
    iq.insert(uop(4, UopClass.INT_ADD))
    return iq


class TestIssueQueueParking:
    def test_park_and_unpark_restore_pick_order(self):
        iq = parked_queue()
        assert iq.park_until == 50
        # Only the ALU ops are selectable while the loads are parked.
        assert [u.seq for u in iq._ready[iq._parked[0].static.fu_cls]] \
            == [3, 4]
        iq.unpark()
        assert iq._parked == []
        assert [iq.pop_ready().seq for _ in range(4)] == [1, 2, 3, 4]
        assert iq.ready_count == 0

    def test_len_counts_parked_loads(self):
        iq = parked_queue()
        assert len(iq) == 4
        assert iq.ready_count == 4
        assert iq.free == 4

    def test_squash_drops_parked_loads(self):
        iq = parked_queue()
        iq._parked[1].squashed = True
        assert iq.squash(lambda u: u.squashed) == 1
        assert len(iq) == 3
        iq.unpark()
        assert [iq.pop_ready().seq for _ in range(3)] == [1, 3, 4]

    def test_clear_drops_parked_loads(self):
        iq = parked_queue()
        iq.clear()
        assert len(iq) == 0
        assert iq._parked == []
        iq.unpark()
        assert iq.ready_count == 0
