"""Checkpoint capture/fork and the bit-identity determinism contract."""

import dataclasses
import enum
import gc
import sys
import types
from dataclasses import replace

import pytest

from repro.analysis.experiments import ExperimentRunner
from repro.checkpoint import (
    CORE_STRUCTURES, Checkpoint, CheckpointCache, process_checkpoint_cache,
    simulate_from, warm_checkpoint,
)
from repro.cli import MACHINES
from repro.common.params import BASELINE, CORE1
from repro.core.core import OutOfOrderCore
from repro.isa.trace import Trace
from repro.isa.uop import DynUop, StaticUop
from repro.sim import SimResult, simulate
from repro.workloads.catalog import get_workload

#: The paper's five main policies — the acceptance criterion demands
#: bit-identity for every one of them.
POLICIES = ("OOO", "FLUSH", "TR", "PRE", "RAR")

N, W = 1000, 500


class TestBitIdentity:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_fork_matches_cold_run(self, policy):
        """simulate_from(warm_checkpoint(P), P) == cold simulate(P)."""
        cold = simulate("mcf", BASELINE, policy, instructions=N, warmup=W,
                        seed=7)
        ck = warm_checkpoint("mcf", BASELINE, policy, warmup=W, seed=7)
        forked = simulate_from(ck, instructions=N)
        assert forked == cold  # every field, bit for bit

    def test_serial_forked_and_multiprocess_agree(self, tmp_path):
        """The three execution paths produce identical SimResults."""
        workloads = ("mcf", "x264")
        cold = {(w, p): simulate(w, BASELINE, p, instructions=N, warmup=W)
                for w in workloads for p in POLICIES}

        forked = {}
        for w in workloads:
            for p in POLICIES:
                ck = warm_checkpoint(w, BASELINE, p, warmup=W)
                forked[(w, p)] = simulate_from(ck, instructions=N)

        runner = ExperimentRunner(instructions=N, warmup=W,
                                  cache_path=str(tmp_path / "cache.json"))
        matrix = runner.run_matrix(workloads, BASELINE, POLICIES, jobs=2)

        for w in workloads:
            for p in POLICIES:
                assert forked[(w, p)] == cold[(w, p)], (w, p, "forked")
                assert matrix[p][w] == cold[(w, p)], (w, p, "multiprocess")

    def test_double_fork_no_cross_contamination(self):
        """Two forks of one checkpoint are independent and identical."""
        ck = warm_checkpoint("mcf", BASELINE, "RAR", warmup=W, seed=3)
        first = simulate_from(ck, instructions=N)
        second = simulate_from(ck, instructions=N)
        assert first == second


class TestCheckpointApi:
    def test_cross_policy_fork_runs(self):
        """Shared-warmup approximation: fork under a different policy."""
        ck = warm_checkpoint("mcf", BASELINE, "OOO", warmup=W)
        r = simulate_from(ck, "RAR", instructions=N)
        assert r.policy == "RAR"
        # commit can overshoot by at most the commit width in the last cycle
        assert N <= r.instructions < N + BASELINE.core.width

    def test_capture_records_coordinates(self):
        ck = warm_checkpoint("x264", CORE1, "FLUSH", warmup=300, seed=5)
        assert ck.workload == "x264"
        assert ck.machine is CORE1
        assert ck.policy.name == "FLUSH"
        assert ck.warmup == 300 and ck.seed == 5

    def test_zero_warmup_checkpoint(self):
        ck = warm_checkpoint("x264", BASELINE, "OOO", warmup=0)
        r = simulate_from(ck, instructions=400)
        assert r == simulate("x264", BASELINE, "OOO", instructions=400,
                             warmup=0)

    def test_rejects_nonpositive_instructions(self):
        ck = warm_checkpoint("x264", BASELINE, "OOO", warmup=100)
        with pytest.raises(ValueError):
            simulate_from(ck, instructions=0)

    def test_fork_is_checkpoint_method(self):
        ck = warm_checkpoint("x264", BASELINE, "OOO", warmup=100)
        assert isinstance(ck, Checkpoint)
        core = ck.fork("RAR")
        assert core.policy.name == "RAR"
        assert core.stats.committed >= 100  # warmed state restored

    def test_telemetry_attaches_to_fork(self):
        from repro.obs import Telemetry
        ck = warm_checkpoint("mcf", BASELINE, "RAR", warmup=W)
        tel = Telemetry(interval=100)
        r = simulate_from(ck, instructions=N, telemetry=tel)
        assert len(tel.sampler.rows) >= 5
        payload = tel.stats_dict(r)
        assert payload["result"]["instructions"] == r.instructions


class TestSimResultRoundTrip:
    def test_to_dict_from_dict_identity(self):
        r = simulate("mcf", BASELINE, "RAR", instructions=600, warmup=200)
        assert SimResult.from_dict(r.to_dict()) == r

    def test_round_trip_survives_json(self):
        import json
        r = simulate("x264", BASELINE, "OOO", instructions=400, warmup=100)
        payload = json.loads(json.dumps(r.to_dict()))
        assert SimResult.from_dict(payload) == r

    def test_unknown_keys_rejected(self):
        r = simulate("x264", BASELINE, "OOO", instructions=400, warmup=100)
        payload = r.to_dict()
        payload["bogus_field"] = 1
        with pytest.raises(TypeError):
            SimResult.from_dict(payload)


class TestCheckpointCache:
    def test_warms_once_then_hits(self):
        cache = CheckpointCache(capacity=2)
        a = cache.get_or_warm("mcf", BASELINE, "OOO", warmup=300)
        b = cache.get_or_warm("mcf", BASELINE, "OOO", warmup=300)
        assert a is b
        assert (cache.hits, cache.misses) == (1, 1)
        # a cached checkpoint measures bit-identically to a fresh one
        fresh = warm_checkpoint("mcf", BASELINE, "OOO", warmup=300)
        assert simulate_from(a, "RAR", instructions=500) == \
            simulate_from(fresh, "RAR", instructions=500)

    def test_key_pins_machine_policy_and_warmup(self):
        cache = CheckpointCache(capacity=8)
        base = cache.get_or_warm("mcf", BASELINE, "OOO", warmup=300)
        assert cache.get_or_warm("mcf", CORE1, "OOO", warmup=300) \
            is not base
        assert cache.get_or_warm("mcf", BASELINE, "RAR", warmup=300) \
            is not base
        assert cache.get_or_warm("mcf", BASELINE, "OOO", warmup=400) \
            is not base
        assert cache.misses == 4 and cache.hits == 0

    def test_lru_eviction_bounds_memory(self):
        cache = CheckpointCache(capacity=1)
        a = cache.get_or_warm("mcf", BASELINE, "OOO", warmup=300)
        cache.get_or_warm("x264", BASELINE, "OOO", warmup=300)
        assert len(cache) == 1  # mcf was evicted
        again = cache.get_or_warm("mcf", BASELINE, "OOO", warmup=300)
        assert again is not a and cache.misses == 3

    def test_process_cache_is_singleton(self):
        assert process_checkpoint_cache() is process_checkpoint_cache()

    def test_key_uses_the_spec_seed(self):
        """``build_trace`` falls back to the spec's own seed, so two
        specs differing only in seed must not share a slot."""
        mcf = get_workload("mcf")
        cache = CheckpointCache(capacity=4)
        one = cache.get_or_warm(replace(mcf, seed=1), BASELINE, "OOO",
                                warmup=300)
        spec = replace(mcf, seed=2)
        two = cache.get_or_warm(spec, BASELINE, "OOO", warmup=300)
        assert two is not one and cache.misses == 2
        assert simulate_from(two, instructions=500) == simulate(
            spec, BASELINE, "OOO", instructions=500, warmup=300)

    def test_key_pins_the_spec_fields(self):
        mcf = get_workload("mcf")
        cache = CheckpointCache(capacity=4)
        base = cache.get_or_warm(mcf, BASELINE, "OOO", warmup=300)
        moved = cache.get_or_warm(replace(mcf, pc_base=0x500000), BASELINE,
                                  "OOO", warmup=300)
        assert moved is not base
        assert cache.get_or_warm(mcf, BASELINE, "OOO", warmup=300) is base

    def test_run_matrix_serves_each_spec_seed(self):
        """Shared-warmup sweeps of two seeds of one workload, served by
        the one process cache, each equal a cold run of their seed."""
        process_checkpoint_cache().clear()
        mcf = get_workload("mcf")
        for seed in (1, 2):
            spec = replace(mcf, seed=seed)
            runner = ExperimentRunner(instructions=N, warmup=W)
            got = runner.run_matrix([spec], BASELINE, ["OOO"],
                                    share_warmup=True)
            assert got["OOO"]["mcf"] == simulate(
                spec, BASELINE, "OOO", instructions=N, warmup=W), seed


def _frozen(obj) -> bool:
    return (dataclasses.is_dataclass(obj) and not isinstance(obj, type)
            and type(obj).__dataclass_params__.frozen)


def _walk(core):
    """Every object reachable from ``core``'s restored structures and
    event heap, not descending into types, functions, modules, enum
    members, frozen params, the trace or the core itself (components
    and registry are not checkpoint state)."""
    stop = (type, types.ModuleType, types.FunctionType,
            types.BuiltinFunctionType, enum.Enum, Trace, OutOfOrderCore)
    seen = {}
    stack = [getattr(core, name) for name in CORE_STRUCTURES]
    stack.append(core.engine._events)
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if not isinstance(obj, stop) and not _frozen(obj):
            stack.extend(gc.get_referents(obj))
    return seen.values()


def _is_immutable(obj) -> bool:
    return isinstance(obj, (int, float, str, bytes, tuple, frozenset,
                            type(None), StaticUop, type, types.ModuleType,
                            types.FunctionType, types.BuiltinFunctionType,
                            enum.Enum, Trace)) or _frozen(obj)


class TestForkSharing:
    """A fork copies the mutable state and shares everything else."""

    def test_fork_shares_immutable_leaves_with_checkpoint(self):
        ck = warm_checkpoint("mcf", BASELINE, "RAR", warmup=W, seed=3)
        core = ck.fork()
        shared = {id(obj) for obj in ck._shared}
        kinds = set()
        levels = 0
        for obj in _walk(core):
            if isinstance(obj, (StaticUop, str)) or _frozen(obj):
                assert id(obj) in shared, repr(obj)
                kinds.add(type(obj).__name__)
            if isinstance(obj, StaticUop):
                # negative indices are synthesised wrong-path uops
                assert obj.idx < 0 or obj is ck.trace.get(obj.idx)
            elif isinstance(obj, DynUop) and obj.mem_level is not None:
                # the same object as the memory code's own literal
                assert obj.mem_level is sys.intern(obj.mem_level)
                levels += 1
            elif isinstance(obj, Trace):
                assert obj is ck.trace
        assert {"StaticUop", "str", "MachineParams"} <= kinds
        assert levels > 0
        assert core.mem.machine is ck.machine
        assert core.trace is ck.trace

    def test_two_forks_share_no_mutable_object(self):
        ck = warm_checkpoint("mcf", BASELINE, "RAR", warmup=W, seed=3)
        first, second = ck.fork(), ck.fork()
        mutable = {id(o) for o in _walk(first) if not _is_immutable(o)}
        common = [o for o in _walk(second)
                  if not _is_immutable(o) and id(o) in mutable]
        assert not common, [type(o).__name__ for o in common[:5]]
        # the cross-structure wiring resolves inside each fork
        assert second.mem.watch is second.iq._parked_lines
        assert second.prdq._regs is second.regs
        assert second.ace._fu_exec_cycles.__self__ is second.fus

    @pytest.mark.parametrize("workload,machine,policy", [
        ("streambw", "baseline-frfcfs", "OOO"),
        ("lbm", "baseline+allpf", "RAR"),
    ])
    def test_fork_matches_cold_run_on_scheduler_and_prefetcher(
            self, workload, machine, policy):
        """The DRAM scheduler's and the prefetcher's state fork exactly."""
        m = MACHINES[machine]
        cold = simulate(workload, m, policy, instructions=N, warmup=2000)
        ck = warm_checkpoint(workload, m, policy, warmup=2000)
        assert simulate_from(ck, instructions=N) == cold
