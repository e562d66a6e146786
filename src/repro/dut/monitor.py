"""The monitor unit: probes capturing verification events from the DUT.

The monitor turns each architectural step plus the cache/TLB/store-buffer
model outputs into the verification events of Table 1, assigning order
tags ("order semantics") that later let Squash transmit NDEs ahead of
fused events and let the software restore the check order.

A *check slot* is one unit of the global architectural order: every
retired instruction, taken exception and synchronised interrupt consumes
one slot.  Events emitted while processing slot ``k`` carry
``order_tag = k``.
"""

from __future__ import annotations

from typing import List, Optional

from .. import events as EV
from ..isa import csr as CSR
from ..isa.execute import StepResult
from ..isa.state import ArchState
from .config import DutConfig


class Monitor:
    """Builds verification events for one core."""

    def __init__(self, config: DutConfig, core_id: int, state: ArchState) -> None:
        self.config = config
        self.core_id = core_id
        self.state = state
        self.slot = 0  # next check-slot index (order tag)
        self._fp_dirty = True
        self._vec_dirty = True
        self._last_hyper: Optional[tuple] = None
        self._last_trigger: Optional[tuple] = None
        self._last_debug: Optional[tuple] = None

    # ------------------------------------------------------------------
    # Config and the per-class enable memo.  ``_enabled_memo`` caches
    # ``config.event_enabled`` per event class (hit on every emit), so it
    # is only valid for the config it was built against — assigning a new
    # config must invalidate it, or a monitor reused across runs keeps
    # serving the previous run's enable set.
    # ------------------------------------------------------------------
    @property
    def config(self) -> DutConfig:
        return self._config

    @config.setter
    def config(self, config: DutConfig) -> None:
        self._config = config
        self._enabled_memo: dict = {}
        engine = getattr(self, "_fast_engine", None)
        if engine is not None:
            # The straight-to-wire emitter table bakes the enable set in;
            # rebuild it against the new config.
            self._fast_emitters = engine.emitter_table(self)

    def _enabled(self, name: str) -> bool:
        return self.config.event_enabled(name)

    # ------------------------------------------------------------------
    # Straight-to-wire capture (repro.comm.fastcapture).  While an engine
    # is attached, ``_emit`` dispatches into its per-class emitter table
    # and no event object is built.  The table is plain data on the
    # monitor (no instance-level method swap, which would tie the monitor
    # to itself in a reference cycle).  ``fast_events`` counts dispatched
    # emissions so ``DutCore.cycle`` can tell that a bundle produced wire
    # traffic even though its event list stayed empty.
    # ------------------------------------------------------------------
    _fast_engine = None
    _fast_emitters: Optional[dict] = None
    fast_events = 0

    def attach_fast_capture(self, engine) -> None:
        self._fast_engine = engine
        self._fast_emitters = engine.emitter_table(self)

    def detach_fast_capture(self) -> None:
        self._fast_engine = None
        self._fast_emitters = None

    def _emit(self, sink: List, cls, tag: Optional[int] = None, **fields) -> None:
        emitters = self._fast_emitters
        if emitters is not None:
            emitter = emitters.get(cls)
            if emitter is not None:  # else: disabled event class
                self.fast_events += 1
                emitter(self.slot if tag is None else tag, **fields)
            return
        enabled = self._enabled_memo.get(cls)
        if enabled is None:
            enabled = self._enabled_memo[cls] = self._enabled(cls.__name__)
        if not enabled:
            return
        sink.append(cls(core_id=self.core_id,
                        order_tag=self.slot if tag is None else tag, **fields))

    # ------------------------------------------------------------------
    def on_interrupt(self, out: List, cause: int, pc: int) -> int:
        """An interrupt was taken before the instruction at ``pc``.

        Returns the check slot it was bound to.
        """
        tag = self.slot
        self._emit(out, EV.ArchInterrupt, tag=tag, pc=pc, cause=cause)
        if self.state.csr.peek(CSR.HIDELEG) & (1 << cause):
            # Hypervisor-delegated: also injected to the guest context.
            self._emit(out, EV.VirtualInterrupt, tag=tag, cause=cause, pc=pc)
        self.slot += 1
        return tag

    def on_step(self, out: List, result: StepResult) -> int:
        """Translate one instruction step into events; returns its slot."""
        tag = self.slot
        self.slot += 1

        if result.exception is not None:
            cause, tval = result.exception
            self._emit(out, EV.ArchException, tag=tag, pc=result.pc,
                       cause=cause, tval=tval, instr=result.instr)
            return tag

        flags = 0
        wdata = 0
        rd = 0
        delayed = result.name in ("div", "divu", "rem", "remu", "divw",
                                  "divuw", "remw", "remuw")
        for kind, index, value in result.reg_writes:
            if kind == "x":
                flags |= EV.FLAG_RF_WEN
                rd, wdata = index, value
                if delayed:
                    self._emit(out, EV.DelayedIntUpdate, tag=tag, addr=index,
                               data=value)
                else:
                    self._emit(out, EV.IntWriteback, tag=tag, addr=index,
                               data=value)
            elif kind == "f":
                flags |= EV.FLAG_FP_WEN
                rd, wdata = index, value
                self._fp_dirty = True
                self._emit(out, EV.FpWriteback, tag=tag, addr=index, data=value)
        vec_regs_written = set()
        for kind, index, _value in result.reg_writes:
            if kind == "v":
                flags |= EV.FLAG_VEC_WEN
                self._vec_dirty = True
                vec_regs_written.add(index // 4)
        for vreg in sorted(vec_regs_written):
            self._emit(out, EV.VecWriteback, tag=tag, addr=vreg,
                       data=tuple(self.state.read_v(vreg)))

        if result.mmio_skip:
            flags |= EV.FLAG_SKIP
        if result.is_rvc:
            flags |= EV.FLAG_IS_RVC

        # Order semantics: synchronisations must precede the commit that
        # depends on them (the checker applies them before stepping).
        if result.lr_sc is not None and result.name.startswith(("lr.", "sc.")):
            paddr, success = result.lr_sc
            self._emit(out, EV.LrScEvent, tag=tag, paddr=paddr,
                       success=success, valid=1)

        self._emit(out, EV.InstrCommit, tag=tag, pc=result.pc,
                   instr=result.instr, wdata=wdata, rd=rd, flags=flags,
                   fused_count=1)

        for op in result.mem_ops:
            if op.kind == "load":
                self._emit(out, EV.LoadEvent, tag=tag, paddr=op.paddr,
                           data=op.value, op_type=op.size,
                           fu_type=0, mmio=1 if op.mmio else 0)
            elif op.mmio:
                # Device state lives only on the DUT side; MMIO stores are
                # covered by the skip-commit synchronisation, not checked.
                continue
            elif op.kind == "store":
                self._emit(out, EV.StoreEvent, tag=tag, paddr=op.paddr,
                           data=op.value, mask=(1 << op.size) - 1)
            else:  # amo
                self._emit(out, EV.AtomicEvent, tag=tag, paddr=op.paddr,
                           data=op.store_value, out=op.value,
                           mask=(1 << op.size) - 1, fuop=0)

        if result.vconfig is not None:
            vl, vtype = result.vconfig
            self._emit(out, EV.VConfigEvent, tag=tag, vl=vl, vtype=vtype)

        return tag

    # ------------------------------------------------------------------
    def on_icache_refill(self, out: List, line_addr: int, data) -> None:
        self._emit(out, EV.ICacheRefill, addr=line_addr, data=data)

    def on_dcache_refill(self, out: List, line_addr: int, data) -> None:
        self._emit(out, EV.DCacheRefill, addr=line_addr, data=data)

    def on_l2_refill(self, out: List, line_addr: int, data) -> None:
        self._emit(out, EV.L2Refill, addr=line_addr, data=data)

    def on_tlb_fill(self, out: List, translation, level1: bool) -> None:
        satp = self.state.csr.peek(CSR.SATP)
        if not level1 and self.state.csr.peek(CSR.HGATP):
            # Two-stage translation active: the walker also produced a
            # guest-stage mapping (identity G-stage in this model).
            self._emit(out, EV.GuestTlbFill, gvpn=translation.vpn,
                       hppn=translation.ppn, perm=translation.perm, stage=2)
        if level1:
            self._emit(out, EV.L1TlbFill, vpn=translation.vpn,
                       ppn=translation.ppn, perm=translation.perm,
                       level=translation.level, satp=satp)
        else:
            ppns = tuple([translation.ppn] + [0] * 7)
            perms = tuple([translation.perm] + [0] * 7)
            self._emit(out, EV.L2TlbFill, vpn=translation.vpn, ppns=ppns,
                       perms=perms, vmid=0)

    def on_sbuffer_flush(self, out: List, line_addr: int, mask: int, data,
                         tag: Optional[int] = None):
        self._emit(out, EV.SbufferFlush, tag=tag, addr=line_addr, mask=mask,
                   data=data)

    def on_trap_finish(self, out: List, code: int, pc: int, cycles: int,
                       instr_count: int) -> None:
        self._emit(out, EV.TrapFinish, pc=pc, code=code,
                   has_trap=1, cycles=cycles, instr_count=instr_count)

    # ------------------------------------------------------------------
    def end_of_cycle_state(self, out: List) -> None:
        """Emit the per-cycle architectural state snapshot events."""
        state = self.state
        tag = self.slot - 1 if self.slot else 0
        self._emit(out, EV.IntRegState, tag=tag, regs=state.int_snapshot())
        self._emit(out, EV.CsrState, tag=tag, csrs=state.csr.snapshot(
            CSR.CHECKED_CSRS, pad_to=EV.CSR_STATE_ENTRIES))
        fcsr = state.csr.peek(CSR.FCSR)
        self._emit(out, EV.FpCsrState, tag=tag, fcsr=fcsr,
                   frm=(fcsr >> 5) & 7, fflags=fcsr & 0x1F)
        # Like DiffTest, the FP architectural state is synchronised at every
        # commit cycle (the checker compares it against the REF wholesale).
        self._emit(out, EV.FpRegState, tag=tag, regs=state.fp_snapshot())
        self._fp_dirty = False
        if self._vec_dirty:
            self._emit(out, EV.VecRegState, tag=tag, regs=state.vec_snapshot())
            self._emit(out, EV.VecCsrState, tag=tag, csrs=(
                state.csr.peek(CSR.VSTART), state.csr.peek(CSR.VXSAT),
                state.csr.peek(CSR.VXRM), state.csr.peek(CSR.VCSR),
                state.csr.peek(CSR.VL), state.csr.peek(CSR.VTYPE),
                state.csr.peek(CSR.VLENB)))
            self._vec_dirty = False
        hyper = state.csr.snapshot(CSR.HYPERVISOR_CSRS, pad_to=30)
        if hyper != self._last_hyper:
            self._emit(out, EV.HypervisorCsrState, tag=tag, csrs=hyper)
            self._last_hyper = hyper
        trigger = state.csr.snapshot(CSR.TRIGGER_CSRS, pad_to=8)
        if trigger != self._last_trigger:
            self._emit(out, EV.TriggerCsrState, tag=tag, csrs=trigger)
            self._last_trigger = trigger
        debug = state.csr.snapshot(CSR.DEBUG_CSRS, pad_to=4)
        if debug != self._last_debug:
            self._emit(out, EV.DebugCsrState, tag=tag, csrs=debug)
            if self._last_debug is not None:
                # A debug-CSR reconfiguration is reported as a debug-mode
                # transition event (cause 0: software request).
                self._emit(out, EV.DebugModeEvent, tag=tag,
                           dpc=state.csr.peek(CSR.DPC),
                           dcsr=state.csr.peek(CSR.DCSR) & 0xFFFFFFFF,
                           cause=0)
            self._last_debug = debug
