"""Replay: lightweight instruction-level debugging (Section 4.4).

Fusion discards per-instruction detail, so when a *fused* check fails the
checker only knows "something in this window went wrong".  Replay
restores instruction-level debuggability:

* the hardware side buffers the original, unfused events with tokens
  (their order tags) before the acceleration unit touches them — as raw
  ``(tag, class, units)`` records on a straight-to-wire run, which builds
  no event objects, and as the event objects themselves otherwise;
* on a mismatch, the REF is reverted to the last checked-good checkpoint
  via the compensation log (no full snapshots);
* the buffered events in the token range are materialised, retransmitted
  and reprocessed one instruction at a time by a fresh checker pass,
  which pinpoints the first diverging instruction and — through the
  behavioural semantics of the failing event type — the implicated
  microarchitectural component.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple, Union

from ..events import VerificationEvent
from ..ref.model import RefModel
from .checker import Checker
from .report import DebugReport, Mismatch

#: What the buffer holds per captured event: the event object itself
#: (object capture already built it) or the raw ``(tag, class, units)``
#: record a straight-to-wire emitter appends — materialised only if a
#: mismatch asks for it (:meth:`ReplayBuffer.fetch_range`).
Record = Union[VerificationEvent, Tuple[int, type, tuple]]


def _tag(record: Record) -> int:
    return record[0] if type(record) is tuple else record.order_tag


class ReplayBuffer:
    """Hardware-side ring buffer of original (pre-fusion) events.

    Tokens are order tags.  ``trim_below`` discards events older than the
    last software-acknowledged checkpoint, bounding buffer occupancy.
    ``records`` is public for the straight-to-wire emitters, which append
    raw records to it directly; whoever appends calls
    :meth:`enforce_bound` once per cycle bundle.
    """

    __slots__ = ("capacity_slots", "core_id", "records", "dropped_slots")

    def __init__(self, capacity_slots: int = 4096, core_id: int = 0) -> None:
        self.capacity_slots = capacity_slots
        self.core_id = core_id
        self.records: Deque[Record] = deque()
        self.dropped_slots = 0

    def push(self, events: List[VerificationEvent]) -> int:
        """Buffer one bundle of event objects; returns the occupancy."""
        self.records.extend(events)
        return self.enforce_bound()

    def enforce_bound(self) -> int:
        """Bound by slot span, not raw event count: drop whole old slots.
        Returns the occupancy left."""
        records = self.records
        while records and (_tag(records[-1]) - _tag(records[0])
                           > self.capacity_slots):
            old_tag = _tag(records[0])
            while records and _tag(records[0]) == old_tag:
                records.popleft()
            self.dropped_slots += 1
        return len(records)

    def trim_below(self, token: int) -> None:
        """The checker checkpointed at ``token``: older events are dead."""
        records = self.records
        popleft = records.popleft
        while records:
            head = records[0]
            # ``_tag`` inlined: every record a run captures leaves here.
            if (head[0] if type(head) is tuple else head.order_tag) >= token:
                break
            popleft()

    def fetch_range(self, first_token: int, last_token: int
                    ) -> List[VerificationEvent]:
        """Retransmit buffered events with tokens in the requested range,
        materialising raw records (the only place that does).

        Tokens outside the range (later events already captured between
        the failure and the replay request) are filtered out — the paper's
        "tokens also filter out irrelevant events" property.
        """
        events = []
        for record in self.records:
            if not first_token <= _tag(record) <= last_token:
                continue
            if type(record) is tuple:
                tag, cls, units = record
                record = cls.from_units(units, self.core_id, tag)
            events.append(record)
        return events

    def __len__(self) -> int:
        return len(self.records)


class ReplayUnit:
    """Coordinates revert + retransmission + reprocessing for one core."""

    __slots__ = ("ref", "buffer", "core_id", "_checkpoint_slot",
                 "_checkpoint_mark")

    def __init__(self, ref: RefModel, buffer: ReplayBuffer, core_id: int = 0):
        self.ref = ref
        self.buffer = buffer
        self.core_id = core_id
        self._checkpoint_slot = 0
        self._checkpoint_mark = ref.checkpoint()

    # ------------------------------------------------------------------
    def checkpoint(self, slot: int) -> None:
        """The checker finished slot ``slot-1`` cleanly; mark it good."""
        self._checkpoint_slot = slot
        self.ref.checkpoint()
        # Trimming renumbers the compensation log: re-take the mark after.
        self.ref.trim_log()
        self._checkpoint_mark = self.ref.checkpoint()
        self.buffer.trim_below(slot)

    @property
    def checkpoint_slot(self) -> int:
        return self._checkpoint_slot

    # ------------------------------------------------------------------
    def replay(self, trigger: Mismatch) -> DebugReport:
        """Roll back and reprocess the unfused events around the failure."""
        reverted = self.ref.revert(self._checkpoint_mark)
        first = self._checkpoint_slot
        last = trigger.slot
        events = self.buffer.fetch_range(first, last)
        report = DebugReport(trigger=trigger, localized=None,
                             replay_slots=last - first + 1,
                             replayed_events=len(events),
                             reverted_records=reverted)
        checker = Checker(self.ref, core_id=self.core_id)
        checker.ref_slot = first
        pc_by_slot = {}
        for event in events:
            if hasattr(event, "pc"):
                pc_by_slot.setdefault(event.order_tag, event.pc)
            mismatch = checker.process(event)
            if mismatch is not None:
                report.localized = mismatch
                report.faulty_pc = pc_by_slot.get(mismatch.slot)
                report.notes.append(
                    f"localised to slot {mismatch.slot} "
                    f"({mismatch.slot - first + 1} instruction(s) after the "
                    "checkpoint)")
                return report
        report.notes.append(
            "replay reproduced no per-instruction mismatch; the divergence "
            "is only visible at fused granularity (e.g. a missed event)")
        return report
