"""Fault injection: the seeded bug catalogue of Table 6.

Each :class:`FaultSpec` installs a corruption into a running
:class:`~repro.dut.core.DutCore`.  Crucially, corruptions are applied *at
the microarchitectural source* (register write, store data, trap entry,
CSR update, or monitor probe) so the DUT's architectural state and its
emitted verification events stay mutually consistent — exactly like a
real RTL bug.

Faults fire *positionally*: the first matching site at or after the
trigger instruction, remembered by its instruction index — so restoring a
snapshot and re-executing reproduces the same corruption at the same
place, just as a real hardware bug would.  The checker then detects the
divergence and Replay (or snapshot recovery) localises it.

The 19 specs mirror the three bug categories and pull requests of Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..isa import csr as CSR
from .core import DutCore

CATEGORY_EXCEPTION = "Exception and interrupt handling errors"
CATEGORY_MEMORY = "Memory hierarchy and coherence issues"
CATEGORY_VECTOR = "Vector and control logic errors"


@dataclass(frozen=True)
class FaultSpec:
    """One injectable bug."""

    name: str
    category: str
    pull_request: str
    description: str
    installer: Callable[[DutCore, int], None]
    #: Which microarchitectural component the bug lives in (ground truth
    #: for evaluating Replay's behavioural-semantics localisation).
    component: str = "core"

    def install(self, core: DutCore, trigger: int) -> None:
        """Arm the fault to fire at retired-instruction index ``trigger``."""
        self.installer(core, trigger)


class _PositionalLatch:
    """Fires at the first matching site >= trigger, and again at exactly
    the same instruction index on any re-execution.  Every fault arms
    one: ``fire_at`` is None until it has fired."""

    def __init__(self, trigger: int) -> None:
        self.trigger = trigger
        self.fire_at: Optional[int] = None

    def fires(self, instret: int) -> bool:
        if self.fire_at is not None:
            return instret == self.fire_at
        if instret >= self.trigger:
            self.fire_at = instret
            return True
        return False

    def quiet(self, instret: int, n: int) -> bool:
        """True when the latch cannot fire at any index in ``[instret,
        instret + n]``: the window ends strictly below the next index it
        can fire at (the trigger, or ``fire_at`` once fired — re-execution
        past a snapshot restore) or lies wholly above ``fire_at``.  Strict,
        because a probe or CSR fault reads ``hart.instret`` after a
        compiled block: the post-block value for every step in it."""
        fire_at = self.fire_at
        if fire_at is None:
            return instret + n < self.trigger
        return instret + n < fire_at or instret > fire_at


def _arm(core: DutCore, latch) -> None:
    """Record the installed fault's latch on the core: ``DutCore.cycle``
    asks it where compiled stepping is safe, orchestration layers
    (checkpoint slicing) whether it has fired yet."""
    core._fault_latch = latch


def fault_pending(core: DutCore) -> bool:
    """True when a fault is installed on ``core`` and has not fired yet.

    Snapshots capture state, not hooks: a run resumed from a snapshot
    must re-install a still-pending fault, and must *not* re-install one
    that already fired (its corruption is baked into the imaged state;
    re-arming would fire it a second time).
    """
    latch = getattr(core, "_fault_latch", None)
    return latch is not None and latch.fire_at is None


# ----------------------------------------------------------------------
# Primitive installers
# ----------------------------------------------------------------------
def _reg_write_corrupt(kind: str, xor_mask: int):
    def installer(core: DutCore, trigger: int) -> None:
        latch = _PositionalLatch(trigger)

        def hook(instret: int, write_kind: str, index: int, value: int) -> int:
            if write_kind == kind and latch.fires(instret):
                return value ^ xor_mask
            return value

        core.hart.hooks.on_reg_write = hook
        _arm(core, latch)

    return installer


def _store_corrupt(xor_mask: int):
    def installer(core: DutCore, trigger: int) -> None:
        latch = _PositionalLatch(trigger)

        def hook(paddr: int, size: int, value: int) -> int:
            if latch.fires(core.hart.instret):
                return value ^ xor_mask
            return value

        core.hart.hooks.on_store = hook
        _arm(core, latch)

    return installer


def _trap_corrupt(cause_xor: int, tval_xor: int, nth: int = 1):
    def installer(core: DutCore, trigger: int) -> None:
        latch = _PositionalLatch(trigger)
        seen = set()  # trap indices >= trigger; the nth one fires

        def hook(cause: int, tval: int):
            instret = core.hart.instret
            if latch.fire_at is None and instret >= trigger:
                seen.add(instret)
                if len(seen) == nth:
                    latch.fire_at = instret
            if instret == latch.fire_at:
                return cause ^ cause_xor, tval ^ tval_xor
            return cause, tval

        core.hart.hooks.on_trap = hook
        _arm(core, latch)

    return installer


def _csr_corrupt(addr: int, xor_mask: int):
    """Corrupt a CSR in the DUT state at the first cycle boundary past the
    trigger (models a stale/incorrect status update)."""

    def installer(core: DutCore, trigger: int) -> None:
        latch = _PositionalLatch(trigger)
        original = core.monitor.end_of_cycle_state

        def wrapped(sink) -> None:
            if latch.fires(core.hart.instret):
                value = core.state.csr.peek(addr)
                core.state.csr.force(addr, value ^ xor_mask)
            original(sink)

        core.monitor.end_of_cycle_state = wrapped
        _arm(core, latch)

    return installer


def _event_corrupt(event_name: str, attr: str, xor_mask: int):
    """Corrupt a field of the next matching monitor event (models a probe
    or datapath bug visible only in the event, e.g. refill data errors)."""

    def installer(core: DutCore, trigger: int) -> None:
        latch = _PositionalLatch(trigger)
        original = core.monitor._emit

        def wrapped(sink, cls, tag=None, **fields) -> None:
            if cls.__name__ == event_name and latch.fires(core.hart.instret):
                value = fields[attr]
                if isinstance(value, tuple):
                    fields[attr] = (value[0] ^ xor_mask,) + value[1:]
                else:
                    fields[attr] = value ^ xor_mask
            original(sink, cls, tag=tag, **fields)

        core.monitor._emit = wrapped
        _arm(core, latch)

    return installer


# ----------------------------------------------------------------------
# The Table 6 catalogue
# ----------------------------------------------------------------------
FAULT_CATALOGUE = (
    # -- Exception and interrupt handling errors (6 PRs) ---------------
    FaultSpec("wrong_virtual_address", CATEGORY_EXCEPTION, "#3639",
              "incorrect virtual address recorded on a faulting access",
              _trap_corrupt(0, 0x1000), "exception_unit"),
    FaultSpec("misaligned_wakeup", CATEGORY_EXCEPTION, "#4239",
              "misaligned load/store wakeup writes a stale value",
              _reg_write_corrupt("x", 0x1), "load_queue"),
    FaultSpec("improper_interrupt_response", CATEGORY_EXCEPTION, "#4263",
              "wrong interrupt cause latched on trap entry",
              _trap_corrupt(0x2, 0), "interrupt_controller"),
    FaultSpec("wrong_exception_cause", CATEGORY_EXCEPTION, "#3991",
              "exception cause register corrupted",
              _trap_corrupt(0x1, 0), "exception_unit"),
    FaultSpec("double_trap_state", CATEGORY_EXCEPTION, "#3778",
              "second nested trap corrupts tval",
              _trap_corrupt(0, 0x8, nth=2), "exception_unit"),
    FaultSpec("interrupt_tval_leak", CATEGORY_EXCEPTION, "#4157",
              "stale tval leaks into interrupt trap entry",
              _trap_corrupt(0, 0x40), "interrupt_controller"),
    # -- Memory hierarchy and coherence issues (6 PRs) ------------------
    FaultSpec("store_queue_mismatch", CATEGORY_MEMORY, "#3964",
              "store queue forwards wrong data",
              _store_corrupt(0x100), "store_queue"),
    FaultSpec("cache_line_corruption", CATEGORY_MEMORY, "#3685",
              "dcache refill returns corrupted data",
              _event_corrupt("DCacheRefill", "data", 0xDEAD), "dcache"),
    FaultSpec("icache_refill_corruption", CATEGORY_MEMORY, "#3621",
              "icache refill returns corrupted data",
              _event_corrupt("ICacheRefill", "data", 0xBEEF), "icache"),
    FaultSpec("tlb_wrong_permission", CATEGORY_MEMORY, "#4037",
              "L1 TLB caches wrong permission bits",
              _event_corrupt("L1TlbFill", "perm", 0x4), "l1tlb"),
    FaultSpec("sbuffer_lost_bytes", CATEGORY_MEMORY, "#3719",
              "store buffer drops written bytes",
              _store_corrupt(0xFF), "sbuffer"),
    FaultSpec("amo_wrong_old_value", CATEGORY_MEMORY, "#4442",
              "atomic unit returns a wrong old value",
              _reg_write_corrupt("x", 0x2), "atomic_unit"),
    # -- Vector and control logic errors (7 PRs) ------------------------
    FaultSpec("wrong_vstart_update", CATEGORY_VECTOR, "#3876",
              "vstart not reset after a vector instruction",
              _csr_corrupt(CSR.VSTART, 0x2), "vec_csr"),
    FaultSpec("vs_dirty_wrong", CATEGORY_VECTOR, "#3965",
              "mstatus.VS dirty bit set incorrectly",
              _csr_corrupt(CSR.MSTATUS, 1 << 9), "csr_unit"),
    FaultSpec("vector_lane_corrupt", CATEGORY_VECTOR, "#3690",
              "one vector lane computes a wrong element",
              _reg_write_corrupt("v", 0x10), "vec_regfile"),
    FaultSpec("vector_exception_track", CATEGORY_VECTOR, "#3643",
              "vector exception tracking corrupts vtype",
              _csr_corrupt(CSR.VTYPE, 0x1), "vec_csr"),
    FaultSpec("fp_flag_corrupt", CATEGORY_VECTOR, "#3646",
              "floating-point flags set spuriously",
              _csr_corrupt(CSR.FCSR, 0x10), "fp_csr"),
    FaultSpec("fp_writeback_corrupt", CATEGORY_VECTOR, "#3664",
              "floating-point writeback bit flip",
              _reg_write_corrupt("f", 1 << 52), "fp_regfile"),
    FaultSpec("control_flow_wdata", CATEGORY_VECTOR, "#4361",
              "link-register writeback corrupted on call",
              _reg_write_corrupt("x", 0x4), "int_regfile"),
)


def fault_by_name(name: str) -> FaultSpec:
    """Catalogue lookup; unknown names list the valid ones."""
    for spec in FAULT_CATALOGUE:
        if spec.name == name:
            return spec
    valid = ", ".join(sorted(spec.name for spec in FAULT_CATALOGUE))
    raise KeyError(f"unknown fault {name!r}; valid faults: {valid}")


def faults_by_category() -> dict:
    """Group the catalogue by bug category (Table 6 layout)."""
    grouped: dict = {}
    for spec in FAULT_CATALOGUE:
        grouped.setdefault(spec.category, []).append(spec)
    return grouped
