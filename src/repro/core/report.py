"""Mismatch and debug reporting.

A :class:`Mismatch` is what the checker detects: a verification event
whose content disagrees with the REF.  A :class:`DebugReport` is what
Replay produces after reprocessing the unfused events: the exact faulty
instruction slot, the event that exposed it, and the microarchitectural
component implicated by the event's behavioural semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..events import VerificationEvent


@dataclass
class Mismatch:
    """One detected divergence between DUT and REF."""

    core_id: int
    slot: int  # order tag (check-slot index) of the failing event
    event: VerificationEvent
    field_name: str
    expected: object
    actual: object
    cycle: Optional[int] = None

    @property
    def component(self) -> str:
        """Behavioural semantics: the component this event type covers."""
        return self.event.DESCRIPTOR.component

    def describe(self) -> str:
        return (
            f"[core {self.core_id}] {type(self.event).__name__} mismatch at "
            f"slot {self.slot}: {self.field_name} expected={self.expected!r} "
            f"actual={self.actual!r} (component: {self.component})"
        )


@dataclass
class DebugReport:
    """Replay's instruction-level localisation of a failure."""

    trigger: Mismatch  # the (possibly fused) mismatch that raised the alarm
    localized: Optional[Mismatch]  # per-instruction mismatch after replay
    replay_slots: int = 0  # how many slots were reprocessed
    replayed_events: int = 0  # how many buffered events were retransmitted
    reverted_records: int = 0  # compensation-log records rolled back
    faulty_pc: Optional[int] = None
    notes: List[str] = field(default_factory=list)

    @property
    def component(self) -> str:
        source = self.localized if self.localized is not None else self.trigger
        return source.component

    def render(self) -> str:
        lines = ["=== DiffTest-H debug report ==="]
        lines.append(f"trigger : {self.trigger.describe()}")
        if self.localized is not None:
            lines.append(f"faulty  : {self.localized.describe()}")
        if self.faulty_pc is not None:
            lines.append(f"pc      : {self.faulty_pc:#x}")
        lines.append(f"component: {self.component}")
        lines.append(
            f"replay  : {self.replayed_events} events over "
            f"{self.replay_slots} slots, {self.reverted_records} log records "
            "reverted"
        )
        lines.extend(self.notes)
        return "\n".join(lines)
