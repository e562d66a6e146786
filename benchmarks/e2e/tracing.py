"""Outside-in layer attribution for the traced benchmark run.

The benchmark times calls into each layer's *public* methods from its own
files: :func:`install` swaps the methods listed in :data:`LAYER_METHODS`
for timing wrappers on the classes themselves, :func:`uninstall` puts the
originals back.  Patching the class (never an instance) matters: an
instance-level override on a monitor or an ``ObsContext`` is a documented
capture-fallback trigger, so either would move the run off the path being
measured.  Class attributes are invisible to ``fallback_reasons``, and the
traced run's ``sim_digest`` is checked against the untraced one.

A span's self time is its duration minus the time its child spans cover.
At roughly ten spans per simulated cycle, keeping every span would cost
more than the run, so spans fold into per-layer accumulators as they
close; the per-method call counts are kept beside them.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: layer -> (module, class, methods).  Names are resolved at install time
#: and skipped when a later PR has removed them, so deleting a class or a
#: method needs no benchmark edit — its layer just reads 0 calls.
LAYER_METHODS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("dut.cycle", "repro.dut.core", "DutCore", ("cycle",)),
    ("dut.monitor_emit", "repro.dut.monitor", "Monitor", (
        "on_interrupt", "on_step", "on_icache_refill", "on_dcache_refill",
        "on_l2_refill", "on_tlb_fill", "on_sbuffer_flush", "on_trap_finish",
        "end_of_cycle_state")),
    ("isa.dut_step", "repro.isa.execute", "Hart", ("step",)),
    ("isa.dut_step", "repro.isa.jit", "TraceCache", ("run_block",)),
    ("ref.step", "repro.ref.model", "RefModel", (
        "step", "sync_interrupt", "sync_skip", "sync_sc_failure")),
    ("ref.checkpoint", "repro.ref.model", "RefModel", (
        "checkpoint", "trim_log", "revert")),
    ("comm.fusion.fuse", "repro.comm.fusion.squash", "SquashFuser", (
        "on_cycle", "flush")),
    ("comm.fusion.fuse", "repro.comm.fusion.squash", "OrderCoupledFuser", (
        "on_cycle",)),
    ("comm.fusion.fuse", "repro.comm.fastcapture", "FastCaptureEngine", (
        "end_bundle", "flush")),
    ("comm.packing.pack", "repro.comm.packing", "BatchPacker", (
        "pack_cycle", "flush", "end_append")),
    ("comm.packing.pack", "repro.comm.packing", "DpicPacker", (
        "pack_cycle", "flush", "end_append")),
    ("comm.packing.pack", "repro.comm.packing", "FixedPacker", (
        "pack_cycle", "flush", "end_append")),
    ("comm.packing.unpack", "repro.comm.packing", "BatchUnpacker", (
        "unpack",)),
    ("comm.packing.unpack", "repro.comm.packing", "DpicUnpacker", (
        "unpack",)),
    ("comm.packing.unpack", "repro.comm.packing", "FixedUnpacker", (
        "unpack",)),
    ("comm.channel.send", "repro.comm.channel", "Channel", ("send_all",)),
    ("comm.channel.recv", "repro.comm.channel", "Channel", ("receive",)),
    ("core.checker.check", "repro.core.checker", "Checker", (
        "process_item", "process")),
    ("core.replay.push", "repro.core.replay", "ReplayBuffer", (
        "push", "trim_below")),
    ("core.replay.replay", "repro.core.replay", "ReplayUnit", ("replay",)),
)

#: ``Hart.step`` serves both sides; it is a DUT-step span only when the
#: DUT cycle calls it directly.  Under the REF it stays inside
#: ``ref.step`` (the issue's definition: REF stepping is a child of the
#: checker, ISA stepping a child of the DUT cycle).
ONLY_DIRECTLY_UNDER = {"isa.dut_step": "dut.cycle"}

#: Replay re-runs a private checker over the buffered events; folding
#: those calls into the replay span keeps ``core.replay.replay_s`` the
#: whole cost of localising the bug rather than its bookkeeping.
LEAF_LAYERS = frozenset({"core.replay.replay"})


class Tracer:
    """Per-layer self-time and per-method call accumulators."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Open spans, innermost last: ``[child seconds, layer]``.
        self._stack: List[list] = []
        #: >0 while a leaf span is open (inner wrappers call through).
        self._muted = [0]
        self._patched: List[Tuple[type, str, Callable]] = []

    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, layer: str, method: str) -> Callable:
        stack = self._stack
        muted = self._muted
        self_s = self.self_s
        calls = self.calls
        parent = ONLY_DIRECTLY_UNDER.get(layer)
        leaf = layer in LEAF_LAYERS

        def traced(*args, **kwargs):
            if muted[0] or (parent is not None and (
                    not stack or stack[-1][1] != parent)):
                return fn(*args, **kwargs)
            frame = [0.0, layer]
            stack.append(frame)
            if leaf:
                muted[0] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                if leaf:
                    muted[0] -= 1
                stack.pop()
                self_s[layer] += span - frame[0]
                calls[method] += 1
                if stack:
                    stack[-1][0] += span

        return traced

    def install(self) -> None:
        """Swap every listed method that still exists for its wrapper."""
        for layer, module_name, class_name, methods in LAYER_METHODS:
            try:
                cls = getattr(importlib.import_module(module_name),
                              class_name)
            except (ImportError, AttributeError):
                continue
            for name in methods:
                fn = getattr(cls, name, None)
                if fn is None:
                    continue
                original = cls.__dict__.get(name)
                setattr(cls, name,
                        self._wrap(fn, layer, f"{class_name}.{name}"))
                self._patched.append((cls, name, original))

    def uninstall(self) -> None:
        for cls, name, original in reversed(self._patched):
            if original is None:
                delattr(cls, name)  # was inherited
            else:
                setattr(cls, name, original)
        self._patched = []

    # ------------------------------------------------------------------
    def layer_seconds(self) -> Dict[str, float]:
        """Self seconds per layer (every listed layer, 0.0 if unused)."""
        out = {layer: 0.0 for layer, *_ in LAYER_METHODS}
        out.update(self.self_s)
        return out
