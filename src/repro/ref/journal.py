"""Compensation log: lightweight state revert for Replay.

Snapshotting the whole REF at every checkpoint would be prohibitively
expensive (Section 4.4), so Replay records only the *modifications* between
consecutive checkpoints — each record holds the old value of one location.
Reverting replays the records in reverse order.
"""

from __future__ import annotations

from typing import List, Tuple


class CompensationLog:
    """Records old values of every mutated location since the last
    checkpoint.

    The log is attached to an :class:`~repro.isa.state.ArchState` (and its
    memory) via the journal hooks; ``checkpoint()`` marks a boundary and
    ``revert_to(mark, state, memory)`` undoes everything after it.  The
    state and memory hold the log, never the reverse: a REF must be freed
    by reference counting (campaigns build one per job).
    """

    KIND_XREG = 0
    KIND_FREG = 1
    KIND_VREG = 2
    KIND_CSR = 3
    KIND_MEM = 4
    KIND_PC = 5
    KIND_PRIV = 6
    KIND_RESERVATION = 7

    def __init__(self) -> None:
        self._records: List[Tuple[int, int, object]] = []
        self.enabled = True

    # ------------------------------------------------------------------
    # Journal hooks (called by ArchState / CsrFile / PhysicalMemory)
    # ------------------------------------------------------------------
    def record_xreg(self, index: int, old: int) -> None:
        self._records.append((self.KIND_XREG, index, old))

    def record_freg(self, index: int, old: int) -> None:
        self._records.append((self.KIND_FREG, index, old))

    def record_vreg(self, index: int, old) -> None:
        self._records.append((self.KIND_VREG, index, old))

    def record_csr(self, addr: int, old: int) -> None:
        self._records.append((self.KIND_CSR, addr, old))

    def record_mem(self, addr: int, old: bytes) -> None:
        self._records.append((self.KIND_MEM, addr, old))

    def record_pc(self, old: int) -> None:
        self._records.append((self.KIND_PC, 0, old))

    def record_priv(self, old: int) -> None:
        self._records.append((self.KIND_PRIV, 0, old))

    def record_reservation(self, old) -> None:
        self._records.append((self.KIND_RESERVATION, 0, old))

    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Mark a checkpoint; returns a token to revert to."""
        return len(self._records)

    def revert_to(self, mark: int, state, memory) -> int:
        """Undo all modifications to ``state`` and ``memory`` after
        ``mark`` (newest first).

        Returns the number of compensation records applied.
        """
        # Detach hooks while reverting so the revert isn't itself journaled.
        state.detach_journal()
        memory.journal = None
        applied = 0
        try:
            while len(self._records) > mark:
                kind, key, old = self._records.pop()
                if kind == self.KIND_XREG:
                    state.xregs[key] = old
                elif kind == self.KIND_FREG:
                    state.fregs[key] = old
                elif kind == self.KIND_VREG:
                    state.vregs[key] = list(old)
                elif kind == self.KIND_CSR:
                    state.csr._values[key] = old
                    state.csr._version += 1
                elif kind == self.KIND_MEM:
                    memory.store_bytes(key, old)
                elif kind == self.KIND_PC:
                    state.pc = old
                elif kind == self.KIND_PRIV:
                    state.priv = old
                elif kind == self.KIND_RESERVATION:
                    state.lr_reservation = old
                applied += 1
        finally:
            state.attach_journal(self)
            memory.journal = self
        return applied

    def truncate_before(self, mark: int) -> int:
        """Drop records older than ``mark`` (the revert window slid past
        them); returns the new mark for the same logical position (0)."""
        if mark:
            del self._records[:mark]
        return 0

    def __len__(self) -> int:
        return len(self._records)

    def memory_bytes(self) -> int:
        """Approximate resident size of the log (for the Figure 10 style
        snapshot-vs-replay cost comparison)."""
        total = 0
        for kind, _key, old in self._records:
            total += 24 if kind != self.KIND_MEM else 16 + len(old)
        return total
