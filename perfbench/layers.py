"""Outside-in layer tracer for the simulator benchmark.

The tracer wraps the public entry points of each simulator layer from
the outside — class attributes and module functions are replaced with
timing wrappers for the duration of one traced leg and put back
afterwards. The simulator itself carries no tracing code, so the
untraced legs run exactly the production loop.

Every wrapped call is a span. The span stack lives in memory: a span's
self time is its duration minus the time its child spans cover, so the
layers' self times partition the root spans exactly (no double
counting). Counts that make ratios are taken at the same boundaries:
the return value of ``MemoryHierarchy.access``/``TageScL.observe``, and
counter deltas across ``SimEngine.run``/``DramController.access``.
"""

import functools
import importlib
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, module, attribute path) for every wrapped entry point. A
#: dotted path is a class attribute; a bare name is a module function,
#: patched in every loaded ``repro`` module that imported it by name.
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("core.engine", "repro.core.engine", "SimEngine.run"),
    ("core.engine", "repro.core.engine", "SimEngine.process_events"),
    ("core.engine", "repro.core.engine", "SimEngine.fast_forward"),
    ("core.frontend", "repro.core.components", "FrontEndStage.step"),
    ("core.frontend", "repro.frontend.fetch", "WrongPathSource.next_uop"),
    ("frontend.tage", "repro.frontend.tage", "TageScL.observe"),
    ("core.backend", "repro.core.components", "WindowBackEnd.step"),
    ("core.backend", "repro.core.components", "WindowBackEnd.writeback"),
    ("core.backend", "repro.core.components",
     "WindowBackEnd.resolve_mispredict"),
    ("core.backend", "repro.core.components",
     "WindowBackEnd.release_squashed"),
    ("core.commit", "repro.core.components", "CommitUnit.step"),
    ("core.runahead", "repro.core.components", "RunaheadController.step"),
    ("core.runahead", "repro.core.components",
     "RunaheadController.ra_memory_issue"),
    ("memory", "repro.memory.hierarchy", "MemoryHierarchy.access"),
    ("memory.dram", "repro.memory.dram.controller", "DramController.access"),
    ("reliability.ace", "repro.reliability.ace",
     "AceAccountant.charge_commit"),
    ("isa.trace", "repro.isa.trace", "Trace.get"),
    ("isa.trace", "repro.workloads.base", "WorkloadSpec.build_trace"),
    ("checkpoint", "repro.checkpoint", "warm_checkpoint"),
    ("checkpoint", "repro.checkpoint", "Checkpoint.capture"),
    ("checkpoint", "repro.checkpoint", "Checkpoint.fork"),
    ("core.fastfwd", "repro.core.fastfwd", "functional_warmup"),
    ("setup", "repro.core.core", "OutOfOrderCore.__init__"),
    ("setup", "repro.memory.hierarchy", "MemoryHierarchy.preload"),
)

#: Every layer the benchmark reports, in outside-in order. ``analysis.farm``
#: has no in-process entry point: its numbers come from the sweep ledger.
LAYERS: Tuple[str, ...] = (
    "core.engine", "core.frontend", "frontend.tage", "core.backend",
    "core.commit", "core.runahead", "memory", "memory.dram",
    "reliability.ace", "isa.trace", "checkpoint", "core.fastfwd",
    "analysis.farm", "setup",
)

#: ``SimEngine.run`` counter deltas (simulated statistics), summed over
#: every run call: they give the engine, back-end and runahead ratios.
ENGINE_COUNTERS: Tuple[Tuple[str, str], ...] = (
    ("cycles", "cycle"),
    ("ffwd_cycles", "_stats.fast_forwarded_cycles"),
    ("committed", "_stats.committed"),
    ("squash_mispredict", "_stats.squashed_mispredict"),
    ("squash_runahead_flush", "_stats.squashed_runahead_flush"),
    ("squash_flush_mechanism", "_stats.squashed_flush_mechanism"),
    ("ra_examined", "_stats.runahead_uops_examined"),
    ("ra_executed", "_stats.runahead_uops_executed"),
)


def _read(obj: Any, path: str) -> int:
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class LayerTracer:
    """Installs span wrappers on :data:`ENTRY_POINTS`; a context manager.

    ``with LayerTracer() as t: ...`` traces everything the block runs in
    this process; on exit every original attribute is restored (checked
    by :meth:`restored`). Aggregates are kept per layer (self seconds,
    calls), per entry point (calls, inclusive seconds) and per
    caller→callee layer edge; root spans are kept whole.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        #: "layer:attr" -> [calls, inclusive seconds]
        self.entries: Dict[str, List[float]] = {}
        #: (caller layer, callee layer) -> calls
        self.edges: Dict[Tuple[str, str], int] = {}
        #: (layer, start, end) of every span with no traced parent
        self.roots: List[Tuple[str, float, float]] = []
        #: outcome counts taken at the layer boundaries
        self.counts: Dict[str, int] = {
            "memory.rejects": 0, "memory.l1_hits": 0,
            "dram.row_hits": 0, "tage.mispredicts": 0,
            "fastfwd.uops": 0,
            **{f"engine.{name}": 0 for name, _ in ENGINE_COUNTERS},
        }
        self._stack: List[List[Any]] = []  # [child seconds, layer]
        self._saved: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------ install

    def __enter__(self) -> "LayerTracer":
        for layer, module_name, path in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(
                        self._wrap(layer, path, original.__func__))
                else:
                    wrapped = self._wrap(layer, path, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            else:
                original = getattr(module, path)
                wrapped = self._wrap(layer, path, original)
                for mod in list(sys.modules.values()):
                    name = getattr(mod, "__name__", "")
                    if (name == "repro" or name.startswith("repro.")) \
                            and getattr(mod, path, None) is original:
                        self._saved.append((mod, path, original))
                        setattr(mod, path, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def restored(self) -> List[str]:
        """Entry points still wrapped (empty after a clean exit)."""
        bad = []
        for owner, attr, original in self._saved:
            current = (owner.__dict__.get(attr) if isinstance(owner, type)
                       else getattr(owner, attr, None))
            if current is not original:
                bad.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return bad

    def _wrap(self, layer: str, path: str, fn: Callable) -> Callable:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        edges = self.edges
        roots = self.roots
        counts = self.counts
        entry = self.entries.setdefault(f"{layer}:{path}", [0, 0.0])
        perf = time.perf_counter
        outcome = _OUTCOMES.get(path)
        deltas = _DELTAS.get(path, ())

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            before = [_read(args[0], a) for _, a in deltas] if deltas else ()
            frame = [0.0, layer]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                dur = t1 - t0
                stack.pop()
                self_s[layer] += dur - frame[0]
                calls[layer] += 1
                entry[0] += 1
                entry[1] += dur
                if parent is None:
                    roots.append((layer, t0, t1))
                else:
                    stack[-1][0] += dur
                    key = (parent, layer)
                    edges[key] = edges.get(key, 0) + 1
                for (name, a), b in zip(deltas, before):
                    counts[name] += _read(args[0], a) - b
            if outcome is not None:
                outcome(counts, args, result)
            return result

        return span

    # ------------------------------------------------------ results

    @property
    def root_s(self) -> float:
        return sum(end - start for _, start, end in self.roots)

    def total_calls(self) -> int:
        return sum(self.calls.values())


def _count_access(counts: Dict[str, int], args, result) -> None:
    if result is None:
        counts["memory.rejects"] += 1
    elif result.level == "l1" and not result.merged:
        counts["memory.l1_hits"] += 1


def _count_observe(counts: Dict[str, int], args, result) -> None:
    # TageScL.observe(self, pc, taken) returns the prediction.
    taken = args[2] if len(args) > 2 else None
    if result != taken:
        counts["tage.mispredicts"] += 1


def _count_fastfwd(counts: Dict[str, int], args, result) -> None:
    counts["fastfwd.uops"] += result


_OUTCOMES: Dict[str, Callable] = {
    "MemoryHierarchy.access": _count_access,
    "TageScL.observe": _count_observe,
    "functional_warmup": _count_fastfwd,
}

_DELTAS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "SimEngine.run": tuple((f"engine.{name}", attr)
                           for name, attr in ENGINE_COUNTERS),
    "DramController.access": (("dram.row_hits", "row_hits"),),
}


#: The per-layer ratios that are simulated statistics (exact, like
#: ``sim.*``) rather than host measurements.
SIMULATED_RATIOS = frozenset((
    "core.engine.ffwd_ratio", "frontend.tage.mispredict_ratio",
    "core.backend.squash_ratio", "core.runahead.exec_ratio",
    "memory.reject_ratio", "memory.l1_hit_ratio",
    "memory.dram.row_hit_ratio",
))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: LayerTracer,
                  farm: Optional[Dict[str, float]] = None
                  ) -> Dict[str, float]:
    """Per-layer metrics of one traced leg: ``<layer>.self_s``/``.calls``
    plus the ratios named in the benchmark's layer table. ``farm`` holds
    the ledger-derived ``analysis.farm`` numbers (sweep workloads)."""
    c = tracer.counts
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = tracer.self_s[layer]
        out[f"{layer}.calls"] = tracer.calls[layer]
    squashed = (c["engine.squash_mispredict"]
                + c["engine.squash_runahead_flush"]
                + c["engine.squash_flush_mechanism"])
    fastfwd_s = tracer.entries["core.fastfwd:functional_warmup"][1]
    mem_calls = tracer.calls["memory"]
    out.update({
        "core.engine.ffwd_ratio": _ratio(c["engine.ffwd_cycles"],
                                         c["engine.cycles"]),
        "frontend.tage.mispredict_ratio": _ratio(
            c["tage.mispredicts"], tracer.calls["frontend.tage"]),
        "core.backend.squash_ratio": _ratio(
            squashed, c["engine.committed"] + squashed),
        "core.runahead.exec_ratio": _ratio(c["engine.ra_executed"],
                                           c["engine.ra_examined"]),
        "memory.reject_ratio": _ratio(c["memory.rejects"], mem_calls),
        "memory.l1_hit_ratio": _ratio(c["memory.l1_hits"], mem_calls),
        "memory.dram.row_hit_ratio": _ratio(c["dram.row_hits"],
                                            tracer.calls["memory.dram"]),
        "checkpoint.forks": tracer.entries["checkpoint:Checkpoint.fork"][0],
        "core.fastfwd.kips": _ratio(c["fastfwd.uops"], fastfwd_s) / 1000.0,
    })
    farm = farm or {}
    out["analysis.farm.self_s"] = farm.get("self_s", 0.0)
    out["analysis.farm.calls"] = farm.get("calls", 0)
    out["analysis.farm.busy_frac"] = farm.get("busy_frac", 0.0)
    out["analysis.farm.requeued"] = farm.get("requeued", 0)
    return out


def self_test(tracer: LayerTracer, wall_s: float) -> List[str]:
    """The tracer's own invariants; returns the names of failed checks."""
    failed = []
    total_self = sum(tracer.self_s.values())
    root = tracer.root_s
    if abs(total_self - root) > 1e-6 * max(root, 1.0):
        failed.append(f"tracer:self_sum({total_self:.6f})!=roots({root:.6f})")
    covered = _ratio(root, wall_s)
    if covered < 0.95:
        failed.append(f"tracer:covered_frac({covered:.3f})<0.95")
    for layer, s in tracer.self_s.items():
        if s > wall_s:
            failed.append(f"tracer:{layer}.self_s({s:.3f})>wall({wall_s:.3f})")
    still = tracer.restored()
    if still:
        failed.append("tracer:not_restored:" + ",".join(still))
    return failed
