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

Loads waiting on an MSHR return to the issue queue one at a time, and
all at once when one of their lines goes live; the pins on prefetcher
machines cover prefetch installs while loads wait. Sanitized runs cover
MSHRs held only by store write-allocates, which used to deadlock the
engine, and prefetches that install the waiting loads' own lines.
"""

from dataclasses import replace

import pytest

from repro.checkpoint import warm_checkpoint
from repro.cli import MACHINES
from repro.common.enums import UopClass
from repro.common.params import BASELINE, PrefetcherParams
from repro.core.issue_queue import IssueQueue
from repro.isa.uop import DynUop, StaticUop
from repro.sim import _delta_result, _snapshot, simulate
from repro.validate.golden import canonical_fingerprint

INSTRUCTIONS = 4000
WARMUP = 2000


def two_mshrs(machine, name):
    return replace(machine, name=name, l1d=replace(machine.l1d, mshrs=2))


def near_prefetcher(levels, name):
    """Prefetch one stride ahead of the stream head instead of eight:
    the prefetched lines are those of loads waiting on an MSHR."""
    return BASELINE.with_prefetcher(
        PrefetcherParams(levels=levels, distance=1), name=name)


MACHINE = {
    "baseline-frfcfs": MACHINES["baseline-frfcfs"],
    "baseline-mshr2": two_mshrs(BASELINE, "baseline-mshr2"),
    "baseline+allpf": MACHINES["baseline+allpf"],
    "baseline+l3pf": MACHINES["baseline+l3pf"],
    "baseline+allpf-mshr2": two_mshrs(MACHINES["baseline+allpf"],
                                      "baseline+allpf-mshr2"),
    "baseline+allpf-near": near_prefetcher(("l1", "l2", "l3"),
                                           "baseline+allpf-near"),
    "baseline+l3pf-near": near_prefetcher(("l3",), "baseline+l3pf-near"),
    "baseline+l3pf-mshr2": two_mshrs(MACHINES["baseline+l3pf"],
                                     "baseline+l3pf-mshr2"),
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
    # Prefetchers install lines while loads wait on an MSHR. The default
    # distance runs eight lines ahead of the parked loads; the near
    # prefetchers install the parked loads' own lines, so a parked
    # load's line goes live before its retry.
    ("streambw", "baseline+allpf", "OOO"): (
        "2a1f7aaa9507d63aed9449abf66f5ac6324e9946b2645d3553fc7529e57fd0d8",
        "b96077f8a7aa1cbcc3728298004fd8a5e1d22b1104dfab2c2c2a99b405477065",
        82904),
    ("streambw", "baseline+allpf", "FLUSH"): (
        "41c074fee33cf7fa1c56f5cd65651c414bfb0c8617e8c36fe19630bab6fc29b3",
        "3de236a5f7ec14f92b3a50af2cfd6e439134f2b3fb9afdc8b6e3759677436b2e",
        84685),
    ("streambw", "baseline+l3pf", "OOO"): (
        "3c56145f03954e5ea19b3c92752aa3690df3d41af18bdaaa0ea0e177a7e11ec2",
        "d2efe204b7ac6912af9348ee0a734b58709a9334ae79771664f91232e84d5e43",
        92428),
    ("streambw", "baseline+l3pf", "FLUSH"): (
        "76cdf63fa5807e38cc1de9dec0b96a91ba3fea3724c31b80162bc407a3d57963",
        "d2efe204b7ac6912af9348ee0a734b58709a9334ae79771664f91232e84d5e43",
        82576),
    ("lbm", "baseline+allpf-mshr2", "OOO"): (
        "c9c31eb62c7627515fcc74c6ee966c5e696dacbcfd26ee7199b1dc96fce84113",
        "ea5b4574c26a4f1eeab467e22a4bfdd5486bb4eae2662f7e87ad399fa4219155",
        13516),
    ("lbm", "baseline+allpf-mshr2", "RAR"): (
        "eb46d57504bc5529e3b72a8aea6c08c83f28a68fae212e851e55193e58187809",
        "9f6bdf041c79fcfa5fa10dfb08cf4c31a8e7997ba9ffc8989181baee56e5e489",
        14102),
    ("libquantum", "baseline+allpf-mshr2", "PRE"): (
        "993dcbfc8f4b4dc17f2ed1e62747e1c96944aee36a645d59ff4a2a13ad81d1e2",
        "8864f20feb25f77bcb8251a727c13800de851f36b522d191d61869ce406c7680",
        14666),
    ("streambw", "baseline+allpf-near", "OOO"): (
        "96a916373296d644d39438d229392e28a18c1906297a008b6b6389a2eb0c85c4",
        "b96077f8a7aa1cbcc3728298004fd8a5e1d22b1104dfab2c2c2a99b405477065",
        82392),
    ("streambw", "baseline+l3pf-near", "OOO"): (
        "d358c2ad970c2a2c91a7d54ce2b4f7699d81504da18c88f20ff49e2b6a473ec6",
        "d2efe204b7ac6912af9348ee0a734b58709a9334ae79771664f91232e84d5e43",
        82448),
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


#: Points where, with two MSHRs, both are held by commit-time store
#: write-allocates (which schedule no completion event) while loads wait
#: on them: the engine must wake at ``park_until``, not report a deadlock.
STORE_HELD_MSHR_POINTS = [
    ("libquantum", "baseline-mshr2", "FLUSH"),
    ("libquantum", "baseline-mshr2", "PRE"),
    ("libquantum", "baseline-mshr2", "RAR"),
    ("mcf", "baseline-mshr2", "FLUSH"),
    ("lbm", "baseline-mshr2", "RAR"),
    ("lbm", "baseline+l3pf-mshr2", "RAR"),
]


@pytest.mark.parametrize("point", STORE_HELD_MSHR_POINTS, ids="-".join)
def test_loads_parked_behind_store_held_mshrs_complete(point):
    workload, machine, policy = point
    result = simulate(workload, MACHINE[machine], policy,
                      instructions=INSTRUCTIONS, warmup=WARMUP, seed=1,
                      validate=True, oracle=True)
    assert result.instructions >= INSTRUCTIONS


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


@pytest.mark.parametrize("machine", ["baseline+allpf-near",
                                     "baseline+l3pf-near"])
def test_parked_line_prefetch_installs_sanitized(machine):
    """The sanitizer's ``mshr-park`` check on points where prefetches
    install the lines of parked loads."""
    result = simulate("streambw", MACHINE[machine], "OOO",
                      instructions=INSTRUCTIONS, warmup=WARMUP,
                      validate=True, oracle=True)
    assert result.instructions >= INSTRUCTIONS
