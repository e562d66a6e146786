"""The DUT simulator: a cycle-based core model around the functional hart.

``DutCore.cycle()`` advances one clock cycle and returns the
:class:`CycleBundle` of verification events the monitor probes captured —
the exact stream a hardware DiffTest-H deployment would see at the
monitor/acceleration-unit boundary.

The commit model is deliberately simple (commit-width grouping with a
deterministic stall model seeded per run) — see DESIGN.md: the purpose is
a structurally realistic event stream, not cycle-accurate timing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from ..events import VerificationEvent
from ..isa import csr as CSR
from ..isa.const import (
    DRAM_BASE,
    IRQ_M_EXT,
    IRQ_M_SOFT,
    IRQ_M_TIMER,
)
from ..isa.execute import Hart
from ..isa.memory import Bus, PhysicalMemory
from ..isa.mmu import translation_active
from ..isa.state import ArchState
from ..isa.devices import attach_standard_devices
from .caches import SetAssocCache, StoreBuffer
from .config import DutConfig
from .monitor import Monitor
from .tlb import TlbHierarchy


@dataclass
class CycleBundle:
    """All verification events captured in one cycle of one core."""

    cycle: int
    core_id: int
    events: List[VerificationEvent] = field(default_factory=list)
    committed: int = 0
    trap_finish: Optional[int] = None


class DutCore:
    """One core of the design under test."""

    def __init__(
        self,
        config: DutConfig,
        core_id: int = 0,
        bus: Optional[Bus] = None,
        seed: int = 2025,
        reset_pc: int = DRAM_BASE,
    ) -> None:
        self.config = config
        self.core_id = core_id
        if bus is None:
            bus = Bus(PhysicalMemory())
            self.uart, self.clint, self.plic = attach_standard_devices(
                bus, num_harts=config.num_cores)
        else:  # shared system bus built by DutSystem
            self.uart = self.clint = self.plic = None
        self.bus = bus
        self.state = ArchState(core_id, reset_pc)
        self.hart = Hart(self.state, bus)
        self.monitor = Monitor(config, core_id, self.state)
        self._rng = random.Random(seed + core_id * 7919)
        self._stall_prob = max(
            0.0, 1.0 - 2.0 * config.target_ipc / (config.commit_width + 1))
        self.icache = SetAssocCache(config.icache.sets, config.icache.ways,
                                    config.icache.line_bytes)
        self.dcache = SetAssocCache(config.dcache.sets, config.dcache.ways,
                                    config.dcache.line_bytes)
        self.l2cache = SetAssocCache(config.l2cache.sets, config.l2cache.ways,
                                     config.l2cache.line_bytes)
        self.tlbs = TlbHierarchy(config.itlb_entries, config.dtlb_entries,
                                 config.l2tlb_entries)
        self.sbuffer = StoreBuffer(config.sbuffer_entries)
        self.cycle_count = 0
        self.retired = 0
        self._stall = 0
        self.finished: Optional[int] = None
        #: Optional :class:`repro.isa.jit.TraceCache` (mode="dut") attached
        #: by the framework; :meth:`cycle` dispatches through it when set.
        self.jit = None
        #: Armed fault latch (set by :mod:`repro.dut.faults`): compiled
        #: blocks run only in cycles it cannot fire in (see :meth:`cycle`).
        self._fault_latch = None
        #: (csr version, mtip, msip, eip) after the last MIP line force.
        self._irq_lines: Optional[tuple] = None

    # ------------------------------------------------------------------
    def load_image(self, image: bytes, base: int = DRAM_BASE) -> None:
        self.bus.memory.store_bytes(base, image)

    def attach_devices(self, uart, clint, plic) -> None:
        self.uart, self.clint, self.plic = uart, clint, plic

    # ------------------------------------------------------------------
    def _update_interrupt_lines(self) -> None:
        clint, plic = self.clint, self.plic
        mtip = clint.mtip(self.core_id) if clint is not None else None
        msip = clint.msip_pending(self.core_id) if clint is not None else None
        eip = plic.eip() if plic is not None else None
        # Forcing MIP bumps the CSR version and rebuilds downstream
        # snapshot caches; skip when the lines and every non-counter CSR
        # are unchanged since the last force (any MIP write — software,
        # trap hardware or journal revert — bumps the version, so a stale
        # skip is impossible).
        csr = self.hart.state.csr
        if self._irq_lines == (csr._version, mtip, msip, eip):
            return
        if clint is not None:
            self.hart.set_mip_bit(IRQ_M_TIMER, mtip)
            self.hart.set_mip_bit(IRQ_M_SOFT, msip)
        if plic is not None:
            self.hart.set_mip_bit(IRQ_M_EXT, eip)
        self._irq_lines = (csr._version, mtip, msip, eip)

    def _commit_budget(self) -> int:
        if self._rng.random() < self._stall_prob:
            return 0
        return self._rng.randint(1, self.config.commit_width)

    # ------------------------------------------------------------------
    def cycle(self, limit: int = 1) -> CycleBundle:
        """Advance to the next clock cycle that has work, or ``limit``
        cycles, whichever comes first; returns that cycle's events.

        Idle cycles on the way build no bundle: a miss-penalty stall (no
        RNG there) goes in one step, zero-budget cycles still tick the
        CLINT, resample the interrupt lines and draw one by one, so all
        state evolves exactly as under ``limit=1``.
        """
        if self.finished is not None:
            self.cycle_count += limit
            return CycleBundle(self.cycle_count, self.core_id,
                               trap_finish=self.finished)
        clint = self.clint if self.core_id == 0 else None
        stall = min(self._stall, limit)
        if stall:
            self._stall -= stall
            self.cycle_count += stall
            if clint is not None:
                clint.tick(stall)
            limit -= stall
            if not limit:
                return CycleBundle(self.cycle_count, self.core_id)
        while True:
            self.cycle_count += 1
            if clint is not None:
                clint.tick()
            self._update_interrupt_lines()
            budget = self._commit_budget()
            if budget or limit == 1:
                break
            limit -= 1
        bundle = CycleBundle(self.cycle_count, self.core_id)
        fast_mark = self.monitor.fast_events
        events = bundle.events
        # Compiled-simulation tier (repro.isa.jit): blocks call no hooks,
        # so an armed fault allows them only in a cycle whose whole budget
        # its latch cannot fire in; hooks with no latch (no known horizon)
        # pin the interpreter.
        jit = self.jit
        if jit is not None:
            latch = self._fault_latch
            if latch is not None:
                if not latch.quiet(self.hart.instret, budget):
                    jit = None
            else:
                hooks = self.hart.hooks
                if (hooks.on_reg_write is not None
                        or hooks.on_store is not None
                        or hooks.on_trap is not None):
                    jit = None
        remaining = budget
        while remaining > 0:
            interrupt = self.hart.pending_interrupt()
            if interrupt is not None:
                self.monitor.on_interrupt(events, interrupt, self.state.pc)
                self.hart.step(interrupt=interrupt)
                break  # redirect ends the commit group
            translating = translation_active(
                self.state.csr.peek(CSR.SATP), self.state.priv)
            if jit is not None and not translating:
                results = jit.run_block(self.hart, self.state.pc, remaining)
                if results is not None:
                    # Blocks hold only straight-line, trap-free, non-MMIO
                    # instructions: every step in the batch retired.  A
                    # store is only ever the batch's first step
                    # (TraceCache._trace), so the lines the hierarchy
                    # model reads here are what the interpreter reads.
                    for result in results:
                        self._model_hierarchy(events, result, False)
                        self.monitor.on_step(events, result)
                    count = len(results)
                    self.retired += count
                    bundle.committed += count
                    remaining -= count
                    continue
            remaining -= 1
            result = self.hart.step()
            if result.trap_finish is not None:
                self._drain_sbuffer(events)
                self.finished = result.trap_finish
                self.monitor.on_trap_finish(
                    events, result.trap_finish, result.pc,
                    self.cycle_count, self.retired)
                bundle.trap_finish = result.trap_finish
                break
            self._model_hierarchy(events, result, translating)
            self.monitor.on_step(events, result)
            if result.exception is None:
                self.retired += 1
                bundle.committed += 1
            if result.name in ("sfence.vma",):
                self.tlbs.flush()
            if result.name == "fence.i":
                self.icache.invalidate()
            if result.exception is not None or result.mmio_skip:
                break  # redirects and MMIO commit alone
        # Under straight-to-wire capture the bundle's event list stays
        # empty; the monitor's dispatch counter tells whether this cycle
        # produced any emission (exceptions and interrupts emit without
        # committing).
        if bundle.committed or bundle.events \
                or self.monitor.fast_events != fast_mark:
            self.monitor.end_of_cycle_state(events)
        return bundle

    # ------------------------------------------------------------------
    def _model_hierarchy(self, events, result, translating: bool) -> None:
        """Drive cache/TLB/store-buffer models and emit hierarchy events."""
        memory = self.bus.memory
        penalty = 0
        # Instruction fetch.
        hit, line = self.icache.access(result.pc)
        if not hit:
            self.monitor.on_icache_refill(events, line, memory.load_words(line, 8))
            penalty += self._l2_access(events, line, memory)
        # Data accesses.
        for op in result.mem_ops:
            if op.mmio:
                continue
            hit, line = self.dcache.access(op.paddr)
            if not hit:
                self.monitor.on_dcache_refill(
                    events, line, memory.load_words(line, 8))
                penalty += self.config.dcache.miss_penalty
                penalty += self._l2_access(events, line, memory)
            if op.kind in ("store", "amo"):
                for flush_line, mask in self.sbuffer.store(op.paddr, op.size):
                    self.monitor.on_sbuffer_flush(
                        events, flush_line, mask,
                        memory.load_words(flush_line, 8))
        # TLB fills.
        if translating:
            for access, translation in result.translations:
                l1_fill, l2_fill = self.tlbs.access(translation, access == 0)
                if l1_fill is not None:
                    self.monitor.on_tlb_fill(events, l1_fill, level1=True)
                if l2_fill is not None:
                    self.monitor.on_tlb_fill(events, l2_fill, level1=False)
                    penalty += 4  # page-walk latency
        self._stall += penalty

    def _l2_access(self, events, line: int, memory) -> int:
        hit, l2_line = self.l2cache.access(line)
        if hit:
            return 0
        super_line = l2_line - (l2_line % 128)
        self.monitor.on_l2_refill(events, super_line,
                                  memory.load_words(super_line, 16))
        return self.config.l2cache.miss_penalty

    def _drain_sbuffer(self, events) -> None:
        memory = self.bus.memory
        # Drain events belong to the last retired slot (nothing retires
        # after them), so the checker can still reach their tag.
        tag = max(0, self.monitor.slot - 1)
        for flush_line, mask in self.sbuffer.drain():
            self.monitor.on_sbuffer_flush(events, flush_line, mask,
                                          memory.load_words(flush_line, 8),
                                          tag=tag)


class DutSystem:
    """A (possibly multi-core) DUT sharing one memory and device set."""

    def __init__(self, config: DutConfig, seed: int = 2025,
                 uart_input: bytes = b"") -> None:
        self.config = config
        memory = PhysicalMemory()
        self.bus = Bus(memory)
        self.uart, self.clint, self.plic = attach_standard_devices(
            self.bus, num_harts=config.num_cores, uart_input=uart_input)
        self.cores: List[DutCore] = []
        for core_id in range(config.num_cores):
            core = DutCore(config, core_id, bus=self.bus, seed=seed)
            core.attach_devices(self.uart, self.clint, self.plic)
            self.cores.append(core)
        # Secondary cores start parked on hart 0's signal in real systems;
        # here every core runs the same image (workloads gate on mhartid).

    @property
    def memory(self) -> PhysicalMemory:
        return self.bus.memory

    def load_image(self, image: bytes, base: int = DRAM_BASE) -> None:
        self.memory.store_bytes(base, image)

    def lockstep(self, limit: int) -> int:
        """Cycles (<= ``limit``) all cores can take at once in lockstep: a
        lone core stops itself, several share only a common stall."""
        if len(self.cores) == 1:
            return limit
        return max(1, min([limit] + [core._stall for core in self.cores
                                     if core.finished is None]))

    def cycle(self, limit: int = 1) -> List[CycleBundle]:
        """Advance all cores together (see :meth:`DutCore.cycle`); returns
        one bundle per core."""
        step = self.lockstep(limit)
        return [core.cycle(step) for core in self.cores]

    def finished(self) -> bool:
        return all(core.finished is not None for core in self.cores)

    def exit_code(self) -> Optional[int]:
        codes = [core.finished for core in self.cores]
        if any(code is None for code in codes):
            return None
        return max(codes)
