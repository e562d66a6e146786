"""The golden reference model (REF).

A NEMU/Spike-like instruction-set simulator built on the shared
:class:`~repro.isa.execute.Hart`.  The REF:

* executes instructions on demand, driven by the checker;
* never touches devices — non-deterministic events (MMIO load values,
  interrupts, LR/SC outcomes) are *synchronised* from the DUT;
* supports compensation-log checkpoints so Replay can revert it to the
  last checked-good boundary without full snapshots.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..isa import csr as CSR
from ..isa.const import DRAM_BASE
from ..isa.execute import Hart, StepResult
from ..isa.memory import Bus, PhysicalMemory
from ..isa.state import ArchState
from .journal import CompensationLog


class RefModel:
    """One hart's golden reference model."""

    def __init__(
        self,
        hart_id: int = 0,
        reset_pc: int = DRAM_BASE,
        memory: Optional[PhysicalMemory] = None,
        mmio_ranges: Optional[Tuple[Tuple[int, int], ...]] = None,
    ) -> None:
        self.state = ArchState(hart_id, reset_pc)
        self.memory = memory if memory is not None else PhysicalMemory()
        bus = Bus(self.memory)
        if mmio_ranges:
            for base, size in mmio_ranges:
                bus.attach(base, size, _MmioStub())
        self.bus = bus
        self.hart = Hart(self.state, bus)
        self.journal = CompensationLog()
        self.state.attach_journal(self.journal)
        self.memory.journal = self.journal
        self._checkpoint = self.journal.checkpoint()

    # ------------------------------------------------------------------
    # Program loading
    # ------------------------------------------------------------------
    def load_image(self, image: bytes, base: int = DRAM_BASE) -> None:
        """Load a program image without journaling (pre-reset state)."""
        self.memory.journal = None
        self.memory.store_bytes(base, image)
        self.memory.journal = self.journal

    # ------------------------------------------------------------------
    # Execution, driven by the checker
    # ------------------------------------------------------------------
    def step(self, mmio_load_value: Optional[int] = None) -> StepResult:
        """Execute one instruction.

        ``mmio_load_value`` supplies the synchronised device value if this
        instruction turns out to be an MMIO load (FLAG_SKIP commit).
        """
        return self.hart.step(mmio_policy="skip", mmio_load_value=mmio_load_value)

    def sync_interrupt(self, cause: int) -> StepResult:
        """Force the REF to take an interrupt now (synchronised NDE)."""
        return self.hart.step(interrupt=cause)

    def sync_skip(self, next_pc: int, rd: int, wdata: int, rfwen: bool) -> None:
        """Skip an instruction entirely, adopting the DUT's result.

        Used for MMIO instructions when only the commit event (not the load
        event) is available: the REF does not execute the instruction; it
        jumps to ``next_pc`` and copies the DUT's destination value.
        """
        if rfwen:
            self.state.write_x(rd, wdata)
        self.state.set_pc(next_pc)
        self.state.csr.force(CSR.MINSTRET, self.state.csr.peek(CSR.MINSTRET) + 1)

    def sync_sc_failure(self) -> None:
        """Adopt a DUT store-conditional failure (clear the reservation so
        the REF's next SC fails the same way)."""
        self.state.set_reservation(None)

    # ------------------------------------------------------------------
    # Checkpoints (Replay)
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Mark the current state as checked-good; returns a revert token."""
        self._checkpoint = self.journal.checkpoint()
        return self._checkpoint

    def revert(self, mark: Optional[int] = None) -> int:
        """Revert to ``mark`` (default: the last checkpoint)."""
        target = self._checkpoint if mark is None else mark
        return self.journal.revert_to(target, self.state, self.memory)

    def trim_log(self) -> None:
        """Forget history older than the last checkpoint (bounded memory)."""
        self._checkpoint = self.journal.truncate_before(self._checkpoint)

    # ------------------------------------------------------------------
    # Architectural state access (for the checker)
    # ------------------------------------------------------------------
    def clone(self) -> "RefModel":
        """Full deep copy (what snapshot-based debugging must pay for)."""
        other = RefModel.__new__(RefModel)
        other.state = self.state.clone()
        other.memory = self.memory.clone()
        bus = Bus(other.memory)
        for base, size, device in self.bus._devices:
            bus.attach(base, size, device)
        other.bus = bus
        other.hart = Hart(other.state, bus)
        other.journal = CompensationLog()
        other.state.attach_journal(other.journal)
        other.memory.journal = other.journal
        other._checkpoint = other.journal.checkpoint()
        other.hart.instret = self.hart.instret
        return other

    @classmethod
    def reconstruct(
        cls,
        state: ArchState,
        memory: PhysicalMemory,
        instret: int,
        mmio_ranges: Optional[Tuple[Tuple[int, int], ...]] = None,
    ) -> "RefModel":
        """Rebuild a REF around donated architectural state and memory.

        Used by slice seeding: at a quiescent boundary the checked REF is
        architecturally identical to the DUT, so a worker can reconstruct
        it from the (picklable) DUT snapshot instead of shipping the REF
        object graph.  ``state`` and ``memory`` are adopted, not copied —
        pass clones.
        """
        other = cls.__new__(cls)
        other.state = state
        other.memory = memory
        bus = Bus(other.memory)
        if mmio_ranges:
            for base, size in mmio_ranges:
                bus.attach(base, size, _MmioStub())
        other.bus = bus
        other.hart = Hart(other.state, bus)
        other.journal = CompensationLog()
        other.state.attach_journal(other.journal)
        other.memory.journal = other.journal
        other._checkpoint = other.journal.checkpoint()
        other.hart.instret = instret
        return other

    def pc(self) -> int:
        return self.state.pc

    def int_regs(self) -> Tuple[int, ...]:
        return self.state.int_snapshot()

    def fp_regs(self) -> Tuple[int, ...]:
        return self.state.fp_snapshot()

    def vec_regs(self) -> Tuple[int, ...]:
        return self.state.vec_snapshot()

    def csr_snapshot(self, addrs, pad_to=None) -> Tuple[int, ...]:
        return self.state.csr.snapshot(addrs, pad_to)


class _MmioStub:
    """Placeholder device occupying the DUT's MMIO ranges in the REF bus.

    It must never actually be accessed — the skip/sync machinery intercepts
    MMIO instructions first; reaching here means an NDE slipped through.
    """

    name = "mmio-stub"

    def read(self, offset: int, size: int) -> int:
        raise AssertionError("REF accessed MMIO directly (unsynchronised NDE)")

    def write(self, offset: int, size: int, value: int) -> None:
        raise AssertionError("REF accessed MMIO directly (unsynchronised NDE)")
