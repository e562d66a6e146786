"""The DiffTest-H co-simulation framework (Figure 3 / Figure 12).

:class:`CoSimulation` wires the full pipeline for a DUT design and a
:class:`~repro.core.config.DiffConfig`:

    DUT cores -> monitors -> [replay buffers] -> acceleration unit
    (Squash fusion -> Batch packing) -> channel -> unpack -> complete
    (differencing) -> per-core checkers -> [Replay on mismatch]

and measures every communication quantity the LogGP model needs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import List, Optional

from ..comm.channel import Channel
from ..comm.fastcapture import FastCaptureEngine, fallback_reasons
from ..comm.fusion.differencing import Completer
from ..comm.fusion.squash import OrderCoupledFuser, SquashFuser
from ..comm.loggp import OverheadBreakdown
from ..comm.packing import (
    BatchPacker,
    BatchUnpacker,
    DpicPacker,
    DpicUnpacker,
    FixedLayout,
    FixedPacker,
    FixedUnpacker,
    WireItem,
)
from ..dut.config import DutConfig
from ..dut.core import DutSystem
from ..dut.snapshotting import SystemSnapshot, restore_snapshot, take_snapshot
from ..events import all_event_classes
from ..isa import csr as CSR
from ..isa.const import DRAM_BASE
from ..isa.jit import TraceCache
from ..isa.devices import CLINT_BASE, CLINT_SIZE, PLIC_BASE, PLIC_SIZE, \
    UART_BASE, UART_SIZE
from ..obs import MetricsSnapshot, ObsContext, record_run_stats, resolve_obs
from ..ref.model import RefModel
from .checker import Checker
from .config import DiffConfig
from .replay import ReplayBuffer, ReplayUnit
from .report import DebugReport, Mismatch
from .stats import RunStats
from .summary import RunSummary, summarize_result

#: MMIO ranges stubbed into every REF bus (must mirror the DUT's devices).
REF_MMIO_RANGES = (
    (UART_BASE, UART_SIZE),
    (CLINT_BASE, CLINT_SIZE),
    (PLIC_BASE, PLIC_SIZE),
)


@dataclass
class RunResult:
    """Outcome of one co-simulation run."""

    exit_code: Optional[int]
    stats: RunStats
    mismatch: Optional[Mismatch]
    debug_report: Optional[DebugReport]
    uart_output: str
    cycles: int
    instructions: int
    #: Registry snapshot when the run was observed (None when obs is off).
    metrics: Optional[MetricsSnapshot] = None

    @property
    def passed(self) -> bool:
        return self.mismatch is None and self.exit_code == 0

    def breakdown(self, platform, gates_millions: float,
                  nonblocking: bool) -> OverheadBreakdown:
        return self.stats.breakdown(platform, gates_millions, nonblocking)

    def summarize(self) -> RunSummary:
        """Compact, pickle-safe summary for campaign-level aggregation."""
        return summarize_result(self)


@dataclass
class BoundarySeed:
    """Everything needed to resume a co-simulation at a slice boundary.

    Captured at a successful slice-epoch barrier: the DUT image, the
    per-core checked slot, and (optionally) cloned REF models.  With
    ``refs=None`` the resuming side *reconstructs* each REF from the DUT
    snapshot — legal because at a quiescent barrier the checked REF is
    architecturally identical to the DUT.
    """

    snapshot: SystemSnapshot
    slots: List[int]
    refs: Optional[List[RefModel]] = None


def _unfused(events) -> List[WireItem]:
    """The fuse stage of a pipeline without Squash: one item per event."""
    return [WireItem.from_event(event) for event in events]


class CoSimulation:
    """One complete DUT-vs-REF co-simulation."""

    def __init__(
        self,
        dut_config: DutConfig,
        diff_config: DiffConfig,
        image: bytes,
        seed: int = 2025,
        uart_input: bytes = b"",
        base: int = DRAM_BASE,
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.dut_config = dut_config
        self.diff_config = diff_config
        self.obs = resolve_obs(obs)
        self._obs_on = self.obs.enabled
        self._tracer = self.obs.tracer
        self.dut = DutSystem(dut_config, seed=seed, uart_input=uart_input)
        self.dut.load_image(image, base)

        self.stats = RunStats()
        self.refs: List[RefModel] = []
        for core_id in range(dut_config.num_cores):
            ref = RefModel(core_id, mmio_ranges=REF_MMIO_RANGES)
            ref.load_image(image, base)
            self.refs.append(ref)
        self._build_checking()

        self.fuser = self._build_fuser()

        self._enabled_events = [cls for cls in all_event_classes()
                                if dut_config.event_enabled(cls.__name__)]
        self.packer, self.unpacker = self._build_packing(diff_config.packing)

        self.channel = Channel(nonblocking=diff_config.nonblocking,
                               obs=self.obs)
        #: Cycles between quiescent images taken by the loop (0 = never;
        #: :class:`~repro.core.snapshot.SnapshotCoSimulation` sets it).
        self._image_interval = 0
        self._last_image_cycle = 0
        self.mismatch: Optional[Mismatch] = None
        self.debug_report: Optional[DebugReport] = None
        self._cycle = 0
        #: Slice-epoch bookkeeping (slicing support; inert by default).
        self._skipped_barriers = 0
        #: Window baselines: nonzero only for runs resumed from a
        #: boundary, so counters report the slice's own window.
        self._window_start_cycle = 0
        self._window_start_instructions = 0
        #: Slice workers suppress the end-of-run metric fold so the
        #: stitched campaign snapshot carries exactly one set of totals.
        self.record_final_metrics = True
        self._jit_caches: List[TraceCache] = []
        #: Straight-to-wire capture engine; selected once per run by
        #: :meth:`_select_capture` (None = event-object capture).
        self._capture: Optional[FastCaptureEngine] = None
        #: The hardware half's stage callables (:meth:`_bind_stages`);
        #: None until the first run selects a capture path.
        self._dut_cycle = None
        self._attach_jit()

    def _build_checking(self, slots: Optional[List[int]] = None) -> None:
        """(Re)build the software half around the current REFs: per-core
        checker, replay buffer and replay unit, plus a fresh completer.
        With ``slots`` each checker resumes at its core's checked slot
        and the REF is checkpointed there."""
        self.checkers: List[Checker] = []
        self.replay_buffers: List[ReplayBuffer] = []
        self.replay_units: List[ReplayUnit] = []
        for core_id, ref in enumerate(self.refs):
            checker = Checker(ref, core_id, self.stats.counters,
                              obs=self.obs)
            buffer = ReplayBuffer(self.diff_config.replay_buffer_slots,
                                  core_id)
            unit = ReplayUnit(ref, buffer, core_id)
            if slots is not None:
                checker.ref_slot = slots[core_id]
                unit.checkpoint(slots[core_id])
            self.checkers.append(checker)
            self.replay_buffers.append(buffer)
            self.replay_units.append(unit)
        self.completer = Completer()

    def _attach_jit(self) -> None:
        """(Re)attach the compiled-simulation tier (:mod:`repro.isa.jit`)
        to every DUT core and REF hart.

        Mode selection happens here, once per run.  Called again after
        a boundary resume replaces the REF harts; DUT cores persist
        across restores and keep their caches — their stale blocks
        re-validate against the page write epochs bumped by the snapshot
        restore.
        """
        self._jit_caches = []
        if not self.diff_config.jit:
            return
        for core in self.dut.cores:
            if core.jit is None:
                core.jit = TraceCache(core.bus, "dut")
            self._jit_caches.append(core.jit)
        for ref in self.refs:
            hart = ref.hart
            if hart.jit is None:
                hart.jit = TraceCache(hart.bus, "ref")
            self._jit_caches.append(hart.jit)

    def _build_fuser(self):
        if not self.diff_config.squash:
            return None
        fuser_cls = (OrderCoupledFuser if self.diff_config.order_coupled
                     else SquashFuser)
        return fuser_cls(window=self.diff_config.fusion_window,
                         differencing=self.diff_config.differencing)

    def _build_packing(self, packing: str):
        """Build a (packer, unpacker) pair for one packing scheme."""
        if packing == "batch":
            return BatchPacker(self.diff_config.frame_size), BatchUnpacker()
        if packing == "fixed":
            layout = FixedLayout(self._enabled_events,
                                 self.dut_config.num_cores)
            return FixedPacker(layout), FixedUnpacker(layout)
        return DpicPacker(), DpicUnpacker()

    # ------------------------------------------------------------------
    # Stage binding
    # ------------------------------------------------------------------
    def _stage(self, name: str, stage):
        """``stage`` itself or, on an observed run, ``stage`` inside a
        tracer span named ``name``."""
        if not self._obs_on:
            return stage
        tracer = self._tracer
        # A proxy, not ``self``: a stored stage must not tie the run (DUT
        # and REF memory images) into a reference cycle — campaigns
        # build hundreds of runs.
        run = weakref.proxy(self)

        def spanned(*args):
            with tracer.span(name, cycle=run._cycle):
                return stage(*args)

        return spanned

    def _bind_stages(self) -> None:
        """Bind the hardware half's stage callables.  Called when capture
        is selected.  Only other objects' methods are stored here (see
        :meth:`_stage` on reference cycles)."""
        stage = self._stage
        self._dut_cycle = stage("capture", self.dut.cycle)
        self._fuse = (stage("fuse", self.fuser.on_cycle)
                      if self.fuser is not None else _unfused)
        self._pack = stage("pack", self.packer.pack_cycle)
        self._send = stage("transfer", self.channel.send_all)

    # ------------------------------------------------------------------
    # Hardware side of one cycle
    # ------------------------------------------------------------------
    def _record_bundle(self, bundle) -> None:
        """Account one core's captured events (profile + replay buffer)."""
        self.stats.events_captured += len(bundle.events)
        profile = self.stats.profile
        counts = profile.counts
        payload_bytes = profile.payload_bytes
        for event in bundle.events:
            cls = type(event)
            type_id = cls.DESCRIPTOR.event_id
            counts[type_id] = counts.get(type_id, 0) + 1
            payload_bytes[type_id] = (
                payload_bytes.get(type_id, 0) + cls._STRUCT.size)
        if self.diff_config.replay:
            held = self.replay_buffers[bundle.core_id].push(bundle.events)
            if held > self.stats.replay_buffer_peak:
                self.stats.replay_buffer_peak = held

    def _arrive(self) -> None:
        """Move the loop to the cycle the (lockstepped) cores stopped at."""
        cycle = self.dut.cores[0].cycle_count
        self.stats.idle_cycles_skipped += cycle - self._cycle - 1
        self._cycle = cycle

    def _hardware_cycle(self, limit: int) -> bool:
        """Event-object capture: monitors build events, the acceleration
        unit fuses and packs them.  True when a transfer was sent."""
        fuse = self._fuse
        sent = False
        bundles = self._dut_cycle(limit)
        self._arrive()
        for bundle in bundles:
            if not bundle.events:
                continue
            self._record_bundle(bundle)
            items = fuse(bundle.events)
            if items:
                transfers = self._pack(items)
                self._send(transfers)
                sent |= bool(transfers)
        return sent

    def _hardware_cycle_fast(self, limit: int) -> bool:
        """Straight-to-wire twin of :meth:`_hardware_cycle`: the monitors
        dispatch into the capture engine's compiled emitters, which
        append the raw replay record and serialise directly into the
        packer — no event objects, bundles or item lists.  The wire
        stream is byte-identical to the object path
        (``tests/test_fastcapture_equivalence.py``)."""
        engine = self._capture
        channel = self.channel
        stats = self.stats
        sent = False
        step = self.dut.lockstep(limit)
        for core, buffer in zip(self.dut.cores, self.replay_buffers):
            records = buffer.records
            mark = len(records)
            engine.begin_bundle()
            core.cycle(step)
            transfers = engine.end_bundle()
            if core.core_id == 0:
                self._arrive()
            if transfers:
                channel.send_all(transfers)
                sent = True
            if len(records) != mark:
                # The emitters appended this bundle's records: bound and
                # account the buffer as ``_record_bundle`` does.
                held = buffer.enforce_bound()
                if held > stats.replay_buffer_peak:
                    stats.replay_buffer_peak = held
        return sent

    def _select_capture(self) -> None:
        """Choose the capture path and bind the loop's stages to it:
        straight-to-wire unless the run needs event objects (the reasons
        are recorded on the run stats).  An engine that is already
        attached stays — it holds the open fusion window, and every
        rebuild of what it points at re-attaches it there."""
        reasons = fallback_reasons(self.diff_config, self._obs_on)
        self.stats.capture_fallbacks = tuple(reasons)
        if reasons:
            self._detach_capture()
        elif self._capture is None:
            self._attach_capture()
        self._bind_stages()

    def _attach_capture(self) -> None:
        """(Re)build the capture engine against the current fuser, packer
        and replay buffers and attach it to every monitor.  The engine
        shares the fuser's stats and differencer, so run-wide totals
        carry across a rebuild exactly as they do on the object path."""
        if self._capture is not None:
            self._capture.fold_stats(self.stats)
        self._capture = FastCaptureEngine(
            self.fuser, self.packer,
            self.replay_buffers if self.diff_config.replay else None)
        for core in self.dut.cores:
            core.monitor.attach_fast_capture(self._capture)

    def _detach_capture(self) -> None:
        if self._capture is not None:
            self._capture.fold_stats(self.stats)
            self._capture = None
        for core in self.dut.cores:
            core.monitor.detach_fast_capture()

    def _flush_hardware(self) -> None:
        send = self.channel.send_all
        if self._capture is not None:
            send(self._capture.flush())
        elif self.fuser is not None:
            items = self.fuser.flush()
            if items:
                send(self.packer.pack_cycle(items))
        send(self.packer.flush())

    # ------------------------------------------------------------------
    # Software side
    # ------------------------------------------------------------------
    def _receive_items(self):
        """The receive+unpack stage: the next transfer's wire items, None
        when the channel is empty."""
        transfer = self.channel.receive()
        if transfer is None:
            return None
        self.stats.counters.sw_dispatches += 1
        return self.unpacker.unpack(transfer)

    def _drain(self) -> None:
        """Check everything the channel holds.

        Wire items go straight to the checker's byte-level compare
        (``process_item``); event objects are only materialised on
        mismatch or for slot-consuming types.  A stream error (a decode
        failure or a :class:`~repro.core.checker.CheckerProtocolError`)
        propagates.
        """
        checkers = self.checkers
        completer = self.completer
        stats = self.stats
        receive = self._receive_items
        if self._obs_on:  # checked here: a plain drain skips the call
            receive = self._stage("dispatch", receive)
        while self.mismatch is None:
            items = receive()
            if items is None:
                return
            for item in items:
                stats.events_transmitted += 1
                mismatch = checkers[item.core_id].process_item(
                    item, completer)
                if mismatch is not None:
                    self._on_mismatch(mismatch)
                    return
                self._maybe_checkpoint(item.core_id)

    def _maybe_checkpoint(self, core_id: int) -> None:
        """Checkpoint the REF when a checking window closed cleanly.

        Safe only when the checker holds no pending checks, slot consumers
        or synchronisations: everything up to ``ref_slot`` is verified.
        """
        checker = self.checkers[core_id]
        unit = self.replay_units[core_id]
        if (checker.ref_slot - unit.checkpoint_slot
                >= self.diff_config.checkpoint_interval
                and checker.quiescent):
            unit.checkpoint(checker.ref_slot)
            self.stats.checkpoints += 1

    def _on_mismatch(self, mismatch: Mismatch) -> None:
        mismatch.cycle = self._cycle
        self.mismatch = mismatch
        if self.diff_config.replay:
            unit = self.replay_units[mismatch.core_id]
            self.debug_report = unit.replay(mismatch)

    # ------------------------------------------------------------------
    # Quiescent images, slice-epoch barriers and boundary resume
    # ------------------------------------------------------------------
    def _transport_quiescent(self) -> bool:
        """True when every event produced so far has been checked."""
        for core, checker in zip(self.dut.cores, self.checkers):
            if checker.ref_slot != core.monitor.slot:
                return False
            if not checker.quiescent:
                return False
        return len(self.channel) == 0

    def _settle(self) -> bool:
        """Flush the hardware half and check what it held; True when the
        run is alive and everything produced has been checked."""
        self._flush_hardware()
        self._drain()
        return self.mismatch is None and self._transport_quiescent()

    def _take_image(self) -> Optional[BoundarySeed]:
        """Image DUT + REFs at a verified quiescent boundary (the periodic
        image :class:`~repro.core.snapshot.SnapshotCoSimulation` restores
        on a mismatch).  None when the cycle is not quiescent: the image
        stays due."""
        if not self._settle():
            return None
        self._last_image_cycle = self._cycle
        return BoundarySeed(
            snapshot=take_snapshot(self.dut),
            slots=[checker.ref_slot for checker in self.checkers],
            refs=[ref.clone() for ref in self.refs])

    def _rewind(self, seed: BoundarySeed) -> None:
        """Put DUT, REFs and the software half at a quiescent image.  The
        seed's REFs are re-cloned, so one image survives repeated
        restores; ``refs=None`` reconstructs them from the DUT image."""
        restore_snapshot(self.dut, seed.snapshot)
        if seed.refs is not None:
            self.refs = [ref.clone() for ref in seed.refs]
        else:
            self.refs = [self._reconstruct_ref(core)
                         for core in self.dut.cores]
        self._build_checking(seed.slots)
        self._cycle = seed.snapshot.cycle_taken
        self._last_image_cycle = self._cycle
        self._attach_jit()

    def _epoch_barrier(self) -> bool:
        """Make the current cycle a legal slice boundary.

        Flushes and drains the transport, then — if the pipeline reached
        full quiescence — re-keys the differencing stream, resets the
        completer and checkpoints every REF at its checked slot.  After a
        successful barrier the remaining run is independent of the wire
        history before it, which is what lets a slice resumed here emit a
        byte-identical stream.  Returns False (and counts the skip) when
        the barrier could not be established.
        """
        if not self._settle():
            if self.mismatch is None:
                self._skipped_barriers += 1
            return False
        if self.fuser is not None:
            self.fuser.reset_stream()
        self.completer = Completer()
        for checker, unit in zip(self.checkers, self.replay_units):
            unit.checkpoint(checker.ref_slot)
            self.stats.checkpoints += 1
        return True

    def _reconstruct_ref(self, core) -> RefModel:
        """Rebuild one REF from the DUT's own architectural state.

        Only legal at a quiescent barrier (everything checked): DUT and
        REF agree on all checked state there.  MIP/SIP are forced to the
        REF's convention (interrupt pending bits live on the DUT side and
        are synchronised, never read back) — they are the unchecked CSRs.
        """
        if len(self.dut.cores) != 1:
            raise ValueError(
                "REF reconstruction from a DUT snapshot requires a "
                "single-core DUT (shared memory is per-system); use "
                "forward seeding for multi-core slicing")
        state = core.state.clone()
        state.csr.force(CSR.MIP, 0)
        state.csr.force(CSR.SIP, 0)
        memory = self.dut.memory.clone()
        return RefModel.reconstruct(state, memory, core.hart.instret,
                                    REF_MMIO_RANGES)

    def resume_from_boundary(self, seed: BoundarySeed) -> None:
        """Rebuild the whole pipeline at a captured slice boundary, from
        a (possibly pickled) :class:`BoundarySeed`.  *Not* counted as a
        checkpoint — the producing slice's barrier already accounted for
        it.
        """
        self._rewind(seed)
        if self._capture is not None:
            # The emitters append to the replay buffers just replaced.
            self._attach_capture()
        self._window_start_cycle = self._cycle
        self._window_start_instructions = sum(
            core.retired for core in self.dut.cores)

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def advance(self, until: int) -> None:
        """Drive the pipeline to cycle ``until`` — or to the program's
        end or a mismatch, whichever comes first.

        The one loop.  A trip runs the hardware half to the next cycle
        with work (:meth:`DutCore.cycle` consumes the idle ones) or to the
        horizon: ``until``, the next slice-epoch multiple, or the cycle an
        image is due (the next one while an overdue image awaits
        quiescence).  It drains only after a trip that *sent*, then takes
        the barrier and the image when due.  Stream errors propagate.
        Callable repeatedly with growing targets: forward boundary
        seeding steps it cut by cut, :meth:`run` calls it once.
        """
        if self._dut_cycle is None:
            self._select_capture()
        epoch = self.diff_config.slice_epoch_cycles
        interval = self._image_interval
        finished = self.dut.finished
        while (self._cycle < until and self.mismatch is None
               and not finished()):
            cycle = self._cycle
            horizon = until
            if epoch:
                horizon = min(horizon, cycle - cycle % epoch + epoch)
            if interval:
                horizon = min(horizon, max(
                    self._last_image_cycle + interval, cycle + 1))
            half = (self._hardware_cycle if self._capture is None
                    else self._hardware_cycle_fast)
            if half(horizon - cycle):  # the trip sent something
                self._drain()
            if epoch and self._cycle % epoch == 0:
                self._epoch_barrier()
            if interval and self._cycle - self._last_image_cycle >= interval:
                self._take_image()

    def run(self, max_cycles: int = 1_000_000) -> RunResult:
        """Run until every core traps, a mismatch fires, or the budget ends.
        The closing settle checks what the hardware half still holds, so
        the final flush counts toward the wire totals."""
        self._select_capture()
        self.advance(max_cycles)
        self._settle()
        return self._finish()

    def _fold_host_diagnostics(self, registry) -> None:
        """Fold host-side diagnostics: trace caches, idle cycles skipped.

        Counters are only emitted when nonzero, so a JIT-off (or
        never-warm) observed run snapshots identically to one without
        the tier at all.
        """
        totals = {"jit.blocks_compiled": 0, "jit.hits": 0, "jit.steps": 0,
                  "jit.evictions": 0, "jit.bailouts": 0,
                  "dut.idle_cycles_skipped": self.stats.idle_cycles_skipped}
        for cache in self._jit_caches:
            stats = cache.stats
            totals["jit.blocks_compiled"] += stats.blocks_compiled
            totals["jit.hits"] += stats.hits
            totals["jit.steps"] += stats.steps
            totals["jit.evictions"] += stats.evictions
            totals["jit.bailouts"] += stats.bailouts
        for name, value in totals.items():
            if value:
                registry.counter(name).inc(value)

    def _finish(self) -> RunResult:
        if self._capture is not None:
            self._capture.fold_stats(self.stats)
        counters = self.stats.counters
        # Window-relative: identical to the raw cycle/retired totals for a
        # normal run (window start is 0); a run resumed from a boundary
        # reports only its own slice, so stitched windows sum to the
        # serial totals while ``self._cycle`` stays global (mismatch
        # cycles need no rebasing).
        counters.cycles = self._cycle - self._window_start_cycle
        counters.instructions = (sum(core.retired for core in self.dut.cores)
                                 - self._window_start_instructions)
        counters.invokes = self.channel.invokes
        counters.bytes_sent = self.channel.bytes_sent
        self.stats.max_queue_occupancy = self.channel.max_occupancy
        self.stats.backpressure_events = self.channel.backpressure_events
        self.stats.packet_utilization = self.packer.stats.utilization
        self.stats.bubble_bytes = self.packer.stats.bubble_bytes
        self.stats.meta_bytes = self.packer.stats.meta_bytes
        if self.fuser is not None:
            self.stats.fusion_ratio = self.fuser.stats.fusion_ratio
            self.stats.fusion_breaks = self.fuser.stats.fusion_breaks
            self.stats.nde_sent_ahead = self.fuser.stats.nde_sent_ahead
            if self.fuser.differencer is not None:
                self.stats.diff_bytes_saved = self.fuser.differencer.bytes_saved
        metrics: Optional[MetricsSnapshot] = None
        if self._obs_on:
            registry = self.obs.registry
            # A per-window instrument, not an end-of-run total: slice
            # workers contribute it even with the final fold suppressed.
            registry.counter("capture.events").inc(self.stats.events_captured)
            if self.record_final_metrics:
                record_run_stats(registry, self.stats)
                self.packer.stats.fold_into(registry)
                if self.fuser is not None:
                    self.fuser.stats.fold_into(registry)
                self._fold_host_diagnostics(registry)
            metrics = registry.snapshot()
        return RunResult(
            exit_code=self.dut.exit_code(),
            stats=self.stats,
            mismatch=self.mismatch,
            debug_report=self.debug_report,
            uart_output=self.dut.uart.text() if self.dut.uart else "",
            cycles=counters.cycles,
            instructions=counters.instructions,
            metrics=metrics,
        )


def run_cosim(dut_config: DutConfig, diff_config: DiffConfig, image: bytes,
              max_cycles: int = 1_000_000, seed: int = 2025,
              uart_input: bytes = b"",
              obs: Optional[ObsContext] = None) -> RunResult:
    """Convenience wrapper: build and run one co-simulation."""
    cosim = CoSimulation(dut_config, diff_config, image, seed=seed,
                         uart_input=uart_input, obs=obs)
    return cosim.run(max_cycles)
