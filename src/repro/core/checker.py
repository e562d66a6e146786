"""The ISA checker: drives the REF from verification events and compares.

The checker consumes reconstructed events in *transmission* order and
restores the required *checking* order from order tags (Section 4.3's
reordering).  Its position in the global order is ``ref_slot`` — the
number of check slots already consumed (every retired instruction, taken
exception and synchronised interrupt is one slot).

Event handling rules:

* **Slot consumers** (``InstrCommit``, ``ArchException``,
  ``ArchInterrupt``, MMIO skip-commits) advance ``ref_slot``.  A fused
  commit advances one instruction at a time, consuming any pending
  NDE/exception slots that interleave its run (this is how fusion
  survives NDEs without breaking).
* **Synchronisations** (interrupts, SC failures, MMIO values) arriving
  ahead of their slot are held in ``pending`` until the REF reaches them.
* **Checks** (state snapshots, writebacks, memory/hierarchy events) are
  compared exactly when ``ref_slot`` passes their tag, so the REF state
  they are compared against is the state after the same instruction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .. import events as EV
from ..comm.loggp import CommCounters
from ..comm.packing.base import WireItem
from ..obs import ObsContext, resolve_obs
from ..isa import csr as CSR
from ..isa.const import PTE_A, PTE_D
from ..isa.mmu import raw_walk
from ..ref.model import RefModel
from .report import Mismatch


class CheckerProtocolError(Exception):
    """The event stream violated ordering invariants: a framework bug,
    not a DUT bug."""


#: Permission bits compared for TLB fills (A/D are excluded: they mutate
#: under subsequent accesses between fill and check).
_TLB_PERM_MASK = 0xFF & ~(PTE_A | PTE_D)

#: CSRs excluded from CsrState comparison.  mip mirrors live device state
#: (timer/external lines), which only exists on the DUT side; interrupts
#: themselves are verified through ArchInterrupt synchronisation instead.
UNCHECKED_CSRS = frozenset({CSR.MIP, CSR.SIP})
_UNCHECKED_INDEXES = tuple(
    index for index, addr in enumerate(CSR.CHECKED_CSRS)
    if addr in UNCHECKED_CSRS
)


def _mask_unchecked(values):
    masked = list(values)
    for index in _UNCHECKED_INDEXES:
        masked[index] = 0
    return tuple(masked)


class Checker:
    """Checks one core's event stream against its reference model."""

    def __init__(self, ref: RefModel, core_id: int = 0,
                 counters: Optional[CommCounters] = None,
                 obs: Optional[ObsContext] = None) -> None:
        self.ref = ref
        self.core_id = core_id
        self.counters = counters if counters is not None else CommCounters()
        self._obs = resolve_obs(obs)
        self._obs_on = self._obs.enabled
        self._tracer = self._obs.tracer
        self.ref_slot = 0
        self.mismatch: Optional[Mismatch] = None
        self.finished: Optional[int] = None
        #: tag -> slot-consuming event waiting for the REF to reach it.
        self._consumers: Dict[int, EV.VerificationEvent] = {}
        #: tag -> pre-step synchronisations (SC failures, MMIO values).
        self._syncs: Dict[int, List[EV.VerificationEvent]] = {}
        #: tag -> buffered check events.
        self._checks: Dict[int, List[EV.VerificationEvent]] = {}
        self.events_processed = 0

    @property
    def quiescent(self) -> bool:
        """True when no pending checks, slot consumers or synchronisations
        are buffered: everything up to ``ref_slot`` is fully verified.

        This is the checkpoint-safety invariant — the REF may only be
        imaged at a quiescent point, otherwise buffered events would be
        compared against (or replayed onto) the wrong state.
        """
        return not (self._checks or self._consumers or self._syncs)

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def process(self, event: EV.VerificationEvent) -> Optional[Mismatch]:
        """Feed one event (in transmission order); returns a mismatch if
        detected."""
        if self.mismatch is not None:
            return self.mismatch
        self.events_processed += 1
        tag = event.order_tag

        if isinstance(event, EV.TrapFinish):
            self._drain_consumers_through(tag)
            self.finished = event.code
            return self.mismatch
        if isinstance(event, EV.ArchInterrupt) or (
                isinstance(event, EV.InstrCommit)
                and event.flags & EV.FLAG_SKIP):
            self._enqueue_consumer(tag, event)
            return self.mismatch
        if isinstance(event, EV.ArchException):
            self._enqueue_consumer(tag, event)
            return self.mismatch
        if isinstance(event, EV.InstrCommit):
            self._advance_fused(event)
            return self.mismatch
        if isinstance(event, EV.LrScEvent) and not event.success:
            self._syncs.setdefault(tag, []).append(event)
            return self.mismatch
        # Everything else is a check.
        if tag == self.ref_slot - 1:
            self._check(event)
        elif tag >= self.ref_slot:
            self._checks.setdefault(tag, []).append(event)
        else:
            raise CheckerProtocolError(
                f"check event {type(event).__name__} tag {tag} arrived after "
                f"ref_slot advanced to {self.ref_slot}"
            )
        return self.mismatch

    def process_item(self, item: WireItem, completer) -> Optional[Mismatch]:
        """Feed one wire item (in transmission order) — the byte-level fast
        path.

        Check events are compared against the REF *without materialising an
        event object*: full encodings are matched byte-for-byte against the
        REF-side expected encoding (or their units unpacked in place),
        diffed encodings are reconstructed to unit lists by ``completer``.
        An event object is only built when the comparison fails (so the
        resulting :class:`Mismatch` is identical to the legacy path) or for
        the slot-consuming / synchronisation types whose handling is
        inherently event-shaped.  Counters and protocol errors match
        :meth:`process` exactly.
        """
        if item.type_id in _SLOW_EVENT_IDS:
            return self.process(completer.complete(item))
        cls, units = completer.reconstruct(item)
        if self.mismatch is not None:
            return self.mismatch
        self.events_processed += 1
        tag = item.order_tag
        if tag == self.ref_slot - 1:
            self._fast_check(cls, units, item.payload, item.core_id, tag)
        elif tag >= self.ref_slot:
            self._checks.setdefault(tag, []).append(
                (cls, units, item.payload, item.core_id, tag))
        else:
            raise CheckerProtocolError(
                f"check event {cls.__name__} tag {tag} arrived after "
                f"ref_slot advanced to {self.ref_slot}"
            )
        return self.mismatch

    # ------------------------------------------------------------------
    # Slot machinery
    # ------------------------------------------------------------------
    def _ref_step(self):
        """Advance the REF one instruction (traced when observed)."""
        if self._obs_on:
            with self._tracer.span("ref_step"):
                result = self.ref.step()
        else:
            result = self.ref.step()
        self.counters.sw_ref_steps += 1
        return result

    def _enqueue_consumer(self, tag: int, event) -> None:
        if tag == self.ref_slot:
            self._consume(event)
        elif tag > self.ref_slot:
            if tag in self._consumers:
                raise CheckerProtocolError(f"duplicate consumer at tag {tag}")
            self._consumers[tag] = event
        else:
            raise CheckerProtocolError(
                f"{type(event).__name__} tag {tag} < ref_slot {self.ref_slot}"
            )

    def _consume(self, event) -> None:
        """Execute one slot-consuming event at the current slot."""
        slot = self.ref_slot
        if isinstance(event, EV.ArchInterrupt):
            self.ref.sync_interrupt(event.cause)
            self.counters.sw_ref_steps += 1
        elif isinstance(event, EV.ArchException):
            self._apply_syncs(slot)
            result = self._ref_step()
            if result.exception is None:
                self._fail(event, "exception",
                           expected=(event.cause, event.tval), actual=None)
            elif result.exception != (event.cause, event.tval):
                self._fail(event, "exception",
                           expected=(event.cause, event.tval),
                           actual=result.exception)
        else:  # MMIO skip-commit
            self._apply_syncs(slot)
            length = 2 if event.flags & EV.FLAG_IS_RVC else 4
            self.ref.sync_skip(
                next_pc=(event.pc + length) & ((1 << 64) - 1),
                rd=event.rd,
                wdata=event.wdata,
                rfwen=bool(event.flags & EV.FLAG_RF_WEN),
            )
            self.counters.sw_ref_steps += 1
        self.ref_slot += 1
        self._drain_checks(slot)

    def _apply_syncs(self, slot: int) -> None:
        for sync in self._syncs.pop(slot, []):
            if isinstance(sync, EV.LrScEvent):
                self.ref.sync_sc_failure()

    def _advance_fused(self, commit: EV.InstrCommit) -> None:
        """Step the REF through a (possibly fused) commit."""
        remaining = max(1, commit.fused_count)
        last_result = None
        while remaining > 0 and self.mismatch is None:
            slot = self.ref_slot
            pending = self._consumers.pop(slot, None)
            if pending is not None:
                self._consume(pending)
                continue
            self._apply_syncs(slot)
            result = self._ref_step()
            self.ref_slot += 1
            remaining -= 1
            last_result = result
            if result.exception is not None:
                self._fail(commit, "unexpected_ref_exception",
                           expected="commit", actual=result.exception)
                return
            self._drain_checks(slot)
        if self.mismatch is not None or last_result is None:
            return
        # Compare the final instruction of the run (fusion keeps its pc,
        # destination and write data).
        if last_result.pc != commit.pc:
            self._fail(commit, "pc", expected=commit.pc,
                       actual=last_result.pc)
            return
        if commit.flags & (EV.FLAG_RF_WEN | EV.FLAG_FP_WEN):
            expected_kind = "x" if commit.flags & EV.FLAG_RF_WEN else "f"
            actual = None
            for kind, index, value in last_result.reg_writes:
                if kind == expected_kind:
                    actual = (index, value)
            if actual != (commit.rd, commit.wdata):
                self._fail(commit, "wdata", expected=(commit.rd, commit.wdata),
                           actual=actual)

    def _drain_consumers_through(self, tag: int) -> None:
        """At simulation end, consume any still-pending slots up to tag."""
        while self.mismatch is None:
            pending = self._consumers.pop(self.ref_slot, None)
            if pending is None or pending.order_tag > tag:
                break
            self._consume(pending)

    def _drain_checks(self, slot: int) -> None:
        for entry in self._checks.pop(slot, []):
            if self.mismatch is None:
                if type(entry) is tuple:  # buffered by the fast path
                    self._fast_check(*entry)
                else:
                    self._check(entry)

    # ------------------------------------------------------------------
    # Comparison logic
    # ------------------------------------------------------------------
    def _fail(self, event, field_name: str, expected, actual) -> None:
        if self.mismatch is None:
            self.mismatch = Mismatch(
                core_id=self.core_id, slot=event.order_tag, event=event,
                field_name=field_name, expected=expected, actual=actual)

    def _compare(self, event, field_name: str, expected, actual) -> None:
        if expected != actual:
            self._fail(event, field_name, expected, actual)

    def _check(self, event: EV.VerificationEvent) -> None:
        if self._obs_on:
            with self._tracer.span("compare"):
                self._check_impl(event)
        else:
            self._check_impl(event)

    # ------------------------------------------------------------------
    # Byte-level fast path
    # ------------------------------------------------------------------
    def _fast_check(self, cls, units, payload, core_id: int, tag: int) -> None:
        if self._obs_on:
            with self._tracer.span("compare"):
                self._fast_check_impl(cls, units, payload, core_id, tag)
        else:
            self._fast_check_impl(cls, units, payload, core_id, tag)

    def _fast_check_impl(self, cls, units, payload, core_id: int,
                         tag: int) -> None:
        """Compare one check without materialising the event.

        ``units`` is ``None`` for a full encoding (``payload`` is then the
        authoritative bytes) or the reconstructed unit list of a diffed
        encoding.  A state-snapshot type is matched by encoding the REF's
        expected state and comparing bytes; other deterministic types
        unpack the handful of units their comparison needs.  Any
        non-match falls back to the full event-object check so mismatch
        reports (and protocol errors for unhandled types) stay identical.
        """
        snapshot = _SNAPSHOT_EXPECTED.get(cls)
        if snapshot is not None:
            expected = snapshot(self)
            if units is None:
                matched = cls._STRUCT.pack(*expected) == payload
            else:
                matched = tuple(units) == expected
        elif cls in _PASS_TYPES:
            matched = True
        else:
            handler = _UNIT_MATCH.get(cls)
            if handler is None:
                matched = False  # unhandled: legacy path raises for us
            else:
                u = units if units is not None else cls._STRUCT.unpack(payload)
                matched = handler(self, u)
        if matched:
            self.counters.sw_events_checked += 1
            self.counters.sw_bytes_checked += cls._STRUCT.size
            return
        if units is None:
            event = cls.decode_payload(payload, core_id=core_id,
                                       order_tag=tag)
        else:
            event = cls.from_units(units, core_id=core_id, order_tag=tag)
        self._check_impl(event)

    def _check_impl(self, event: EV.VerificationEvent) -> None:
        self.counters.sw_events_checked += 1
        self.counters.sw_bytes_checked += event.payload_size()
        ref = self.ref
        state = ref.state

        if isinstance(event, EV.IntRegState):
            self._compare(event, "regs", tuple(event.regs), ref.int_regs())
        elif isinstance(event, EV.FpRegState):
            self._compare(event, "regs", tuple(event.regs), ref.fp_regs())
        elif isinstance(event, EV.VecRegState):
            self._compare(event, "regs", tuple(event.regs), ref.vec_regs())
        elif isinstance(event, EV.CsrState):
            expected = _mask_unchecked(event.csrs)
            actual = _mask_unchecked(ref.csr_snapshot(
                CSR.CHECKED_CSRS, pad_to=EV.CSR_STATE_ENTRIES))
            if expected != actual:
                name = self._first_csr_diff(expected, actual)
                self._fail(event, name, expected, actual)
        elif isinstance(event, EV.FpCsrState):
            self._compare(event, "fcsr", event.fcsr, state.csr.peek(CSR.FCSR))
        elif isinstance(event, EV.VecCsrState):
            actual = (state.csr.peek(CSR.VSTART), state.csr.peek(CSR.VXSAT),
                      state.csr.peek(CSR.VXRM), state.csr.peek(CSR.VCSR),
                      state.csr.peek(CSR.VL), state.csr.peek(CSR.VTYPE),
                      state.csr.peek(CSR.VLENB))
            self._compare(event, "vcsrs", tuple(event.csrs), actual)
        elif isinstance(event, EV.HypervisorCsrState):
            actual = ref.csr_snapshot(CSR.HYPERVISOR_CSRS, pad_to=30)
            self._compare(event, "hcsrs", tuple(event.csrs), actual)
        elif isinstance(event, EV.TriggerCsrState):
            actual = ref.csr_snapshot(CSR.TRIGGER_CSRS, pad_to=8)
            self._compare(event, "tcsrs", tuple(event.csrs), actual)
        elif isinstance(event, EV.DebugCsrState):
            actual = ref.csr_snapshot(CSR.DEBUG_CSRS, pad_to=4)
            self._compare(event, "dcsrs", tuple(event.csrs), actual)
        elif isinstance(event, (EV.IntWriteback, EV.DelayedIntUpdate)):
            self._compare(event, "xreg", event.data, state.xregs[event.addr])
        elif isinstance(event, (EV.FpWriteback, EV.DelayedFpUpdate)):
            self._compare(event, "freg", event.data, state.fregs[event.addr])
        elif isinstance(event, EV.VecWriteback):
            self._compare(event, "vreg", tuple(event.data),
                          tuple(state.vregs[event.addr]))
        elif isinstance(event, EV.LoadEvent):
            if not event.mmio:
                actual = ref.memory.load(event.paddr, event.op_type)
                self._compare(event, "load_data", event.data, actual)
        elif isinstance(event, EV.StoreEvent):
            size = event.mask.bit_length()
            actual = ref.memory.load(event.paddr, size)
            self._compare(event, "store_data", event.data, actual)
        elif isinstance(event, EV.AtomicEvent):
            size = event.mask.bit_length()
            actual = ref.memory.load(event.paddr, size)
            self._compare(event, "amo_data", event.data, actual)
        elif isinstance(event, (EV.ICacheRefill, EV.DCacheRefill)):
            actual = ref.memory.load_words(event.addr, 8)
            self._compare(event, "refill_data", tuple(event.data), actual)
        elif isinstance(event, EV.L2Refill):
            actual = ref.memory.load_words(event.addr, 16)
            self._compare(event, "refill_data", tuple(event.data), actual)
        elif isinstance(event, EV.SbufferFlush):
            actual = ref.memory.load_words(event.addr, 8)
            self._compare(event, "flush_data", tuple(event.data), actual)
        elif isinstance(event, EV.L1TlbFill):
            walk = raw_walk(ref.memory, event.satp, event.vpn << 12)
            if walk is None:
                self._fail(event, "tlb_walk", expected="mapping", actual=None)
            else:
                self._compare(event, "tlb_ppn", event.ppn, walk.ppn)
                self._compare(event, "tlb_perm",
                              event.perm & _TLB_PERM_MASK,
                              walk.perm & _TLB_PERM_MASK)
        elif isinstance(event, EV.L2TlbFill):
            satp = state.csr.peek(CSR.SATP)
            walk = raw_walk(ref.memory, satp, event.vpn << 12)
            if walk is not None:
                self._compare(event, "l2tlb_ppn", event.ppns[0], walk.ppn)
        elif isinstance(event, EV.VConfigEvent):
            self._compare(event, "vl", event.vl, state.csr.peek(CSR.VL))
            self._compare(event, "vtype", event.vtype,
                          state.csr.peek(CSR.VTYPE))
        elif isinstance(event, (EV.LrScEvent, EV.GuestTlbFill,
                                EV.VirtualInterrupt, EV.DebugModeEvent)):
            pass  # synchronisation-only / out-of-scope events
        else:
            raise CheckerProtocolError(
                f"unhandled event type {type(event).__name__}")

    @staticmethod
    def _first_csr_diff(expected: Tuple[int, ...], actual: Tuple[int, ...]) -> str:
        for index, (want, got) in enumerate(zip(expected, actual)):
            if want != got:
                if index < len(CSR.CHECKED_CSRS):
                    return f"csr[{CSR.CHECKED_CSRS[index]:#x}]"
                return f"csr[pad {index}]"
        return "csr[?]"


# ----------------------------------------------------------------------
# Fast-path dispatch tables
# ----------------------------------------------------------------------
# These mirror the isinstance chain of ``Checker._check_impl`` exactly;
# every handler answers "does this check match?" without building an
# event object.  Unit indexes follow the event's FIELDS declaration.

#: Types whose handling is event-shaped (slot consumers + LR/SC sync):
#: the fast path materialises them and delegates to ``Checker.process``.
_SLOW_EVENT_IDS = frozenset(
    cls.DESCRIPTOR.event_id
    for cls in (EV.InstrCommit, EV.ArchException, EV.ArchInterrupt,
                EV.TrapFinish, EV.LrScEvent)
)

#: Checks that compare nothing (synchronisation-only / out-of-scope).
_PASS_TYPES = frozenset(
    {EV.GuestTlbFill, EV.VirtualInterrupt, EV.DebugModeEvent})

#: State snapshots whose full payload equals one REF-side expected tuple:
#: an ENC_FULL payload is matched by *encoding the expectation* and
#: comparing bytes — zero per-unit work on the received side.
_SNAPSHOT_EXPECTED = {
    EV.IntRegState: lambda self: self.ref.int_regs(),
    EV.FpRegState: lambda self: self.ref.fp_regs(),
    EV.VecRegState: lambda self: self.ref.vec_regs(),
    EV.VecCsrState: lambda self: (
        self.ref.state.csr.peek(CSR.VSTART),
        self.ref.state.csr.peek(CSR.VXSAT),
        self.ref.state.csr.peek(CSR.VXRM),
        self.ref.state.csr.peek(CSR.VCSR),
        self.ref.state.csr.peek(CSR.VL),
        self.ref.state.csr.peek(CSR.VTYPE),
        self.ref.state.csr.peek(CSR.VLENB),
    ),
    EV.HypervisorCsrState: lambda self: self.ref.csr_snapshot(
        CSR.HYPERVISOR_CSRS, pad_to=30),
    EV.TriggerCsrState: lambda self: self.ref.csr_snapshot(
        CSR.TRIGGER_CSRS, pad_to=8),
    EV.DebugCsrState: lambda self: self.ref.csr_snapshot(
        CSR.DEBUG_CSRS, pad_to=4),
}


def _match_l1_tlb(self, u) -> bool:
    # u: vpn, ppn, perm, level, satp
    walk = raw_walk(self.ref.memory, u[4], u[0] << 12)
    return (walk is not None and u[1] == walk.ppn
            and (u[2] & _TLB_PERM_MASK) == (walk.perm & _TLB_PERM_MASK))


def _match_l2_tlb(self, u) -> bool:
    # u: vpn, ppns[8], perms[8], vmid
    satp = self.ref.state.csr.peek(CSR.SATP)
    walk = raw_walk(self.ref.memory, satp, u[0] << 12)
    return walk is None or u[1] == walk.ppn


#: Checks matched from a handful of units (partial comparisons, masked
#: comparisons, or per-destination lookups where byte-comparing the whole
#: expected encoding would be wrong or wasteful).
_UNIT_MATCH = {
    # csrs[CSR_STATE_ENTRIES]
    EV.CsrState: lambda self, u: _mask_unchecked(u) == _mask_unchecked(
        self.ref.csr_snapshot(CSR.CHECKED_CSRS, pad_to=EV.CSR_STATE_ENTRIES)),
    # fcsr, frm, fflags — only fcsr is compared
    EV.FpCsrState: lambda self, u:
        u[0] == self.ref.state.csr.peek(CSR.FCSR),
    # data, addr
    EV.IntWriteback: lambda self, u: u[0] == self.ref.state.xregs[u[1]],
    EV.DelayedIntUpdate: lambda self, u: u[0] == self.ref.state.xregs[u[1]],
    EV.FpWriteback: lambda self, u: u[0] == self.ref.state.fregs[u[1]],
    EV.DelayedFpUpdate: lambda self, u: u[0] == self.ref.state.fregs[u[1]],
    # addr, data[4]
    EV.VecWriteback: lambda self, u:
        tuple(u[1:5]) == tuple(self.ref.state.vregs[u[0]]),
    # paddr, data, op_type, fu_type, mmio
    EV.LoadEvent: lambda self, u:
        bool(u[4]) or self.ref.memory.load(u[0], u[2]) == u[1],
    # paddr, data, mask
    EV.StoreEvent: lambda self, u:
        self.ref.memory.load(u[0], u[2].bit_length()) == u[1],
    # paddr, data, out, mask, fuop
    EV.AtomicEvent: lambda self, u:
        self.ref.memory.load(u[0], u[3].bit_length()) == u[1],
    # addr, data[8]
    EV.ICacheRefill: lambda self, u:
        self.ref.memory.load_words(u[0], 8) == tuple(u[1:9]),
    EV.DCacheRefill: lambda self, u:
        self.ref.memory.load_words(u[0], 8) == tuple(u[1:9]),
    # addr, data[16]
    EV.L2Refill: lambda self, u:
        self.ref.memory.load_words(u[0], 16) == tuple(u[1:17]),
    # addr, mask, data[8]
    EV.SbufferFlush: lambda self, u:
        self.ref.memory.load_words(u[0], 8) == tuple(u[2:10]),
    EV.L1TlbFill: _match_l1_tlb,
    EV.L2TlbFill: _match_l2_tlb,
    # vl, vtype
    EV.VConfigEvent: lambda self, u:
        u[0] == self.ref.state.csr.peek(CSR.VL)
        and u[1] == self.ref.state.csr.peek(CSR.VTYPE),
}
