"""Run statistics: the performance counters of the tuning toolkit.

Aggregates hardware-side counters (packing utilisation, fusion ratio,
per-type event profiles) and software-side counters (events checked, REF
steps) into one :class:`RunStats`, which the LogGP model converts into
modeled time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..comm.loggp import CommCounters, OverheadBreakdown, model_overhead
from ..events import VerificationEvent, all_event_classes


@dataclass
class EventProfile:
    """Per-type invocation counts and byte volume (Figure 4)."""

    counts: Dict[int, int] = field(default_factory=dict)
    payload_bytes: Dict[int, int] = field(default_factory=dict)

    def record(self, event: VerificationEvent) -> None:
        cls = type(event)
        type_id = cls.DESCRIPTOR.event_id
        self.counts[type_id] = self.counts.get(type_id, 0) + 1
        self.payload_bytes[type_id] = (
            self.payload_bytes.get(type_id, 0) + cls._STRUCT.size)

    def rows(self, cycles: int):
        """(name, payload size, invocations/cycle) rows ordered by size."""
        out = []
        for cls in sorted(all_event_classes(), key=lambda c: c.payload_size()):
            type_id = cls.DESCRIPTOR.event_id
            count = self.counts.get(type_id, 0)
            out.append((cls.__name__, cls.payload_size(),
                        count / max(cycles, 1)))
        return out


@dataclass
class RunStats:
    """Everything measured in one co-simulation run."""

    counters: CommCounters = field(default_factory=CommCounters)
    profile: EventProfile = field(default_factory=EventProfile)
    events_captured: int = 0
    events_transmitted: int = 0
    fusion_ratio: float = 1.0
    fusion_breaks: int = 0
    nde_sent_ahead: int = 0
    packet_utilization: float = 1.0
    bubble_bytes: int = 0
    meta_bytes: int = 0
    diff_bytes_saved: int = 0
    max_queue_occupancy: int = 0
    backpressure_events: int = 0
    replay_buffer_peak: int = 0
    checkpoints: int = 0
    #: Why the straight-to-wire capture tier was ineligible for this
    #: run — e.g. ("obs", "order_coupled"); empty for an eligible run.
    capture_fallbacks: tuple = ()
    #: Cycles advanced without a loop trip; horizon-dependent, so not compared.
    idle_cycles_skipped: int = field(default=0, compare=False)

    @property
    def bytes_per_cycle(self) -> float:
        return self.counters.bytes_sent / max(self.counters.cycles, 1)

    @property
    def bytes_per_instruction(self) -> float:
        return self.counters.bytes_sent / max(self.counters.instructions, 1)

    @property
    def invokes_per_cycle(self) -> float:
        return self.counters.invokes / max(self.counters.cycles, 1)

    def breakdown(self, platform, gates_millions: float,
                  nonblocking: bool) -> OverheadBreakdown:
        """Modeled time under ``platform`` (Equation 1)."""
        return model_overhead(platform, gates_millions, self.counters,
                              nonblocking)

    def absorb_window(self, other: "RunStats") -> None:
        """Fold one slice window's stats into this accumulating total.

        Additive counters sum and high-water marks take the max.  The
        derived ratios (``fusion_ratio``, ``packet_utilization``) are
        *not* recomputable from windows alone — the stitcher recomputes
        them from the summed raw packing/fusion counters afterwards.
        """
        self.counters.merge(other.counters)
        for type_id, count in other.profile.counts.items():
            self.profile.counts[type_id] = (
                self.profile.counts.get(type_id, 0) + count)
        for type_id, nbytes in other.profile.payload_bytes.items():
            self.profile.payload_bytes[type_id] = (
                self.profile.payload_bytes.get(type_id, 0) + nbytes)
        self.events_captured += other.events_captured
        self.events_transmitted += other.events_transmitted
        self.fusion_breaks += other.fusion_breaks
        self.nde_sent_ahead += other.nde_sent_ahead
        self.bubble_bytes += other.bubble_bytes
        self.meta_bytes += other.meta_bytes
        self.diff_bytes_saved += other.diff_bytes_saved
        self.backpressure_events += other.backpressure_events
        self.checkpoints += other.checkpoints
        self.idle_cycles_skipped += other.idle_cycles_skipped
        if other.max_queue_occupancy > self.max_queue_occupancy:
            self.max_queue_occupancy = other.max_queue_occupancy
        if other.replay_buffer_peak > self.replay_buffer_peak:
            self.replay_buffer_peak = other.replay_buffer_peak
        # Order-preserving union: every window of one sliced run reports
        # the same reasons, so this is normally a no-op after window 0.
        for reason in other.capture_fallbacks:
            if reason not in self.capture_fallbacks:
                self.capture_fallbacks += (reason,)

    def summary(self) -> str:
        c = self.counters
        return (
            f"cycles={c.cycles} instr={c.instructions} "
            f"invokes={c.invokes} ({self.invokes_per_cycle:.2f}/cyc) "
            f"bytes={c.bytes_sent} ({self.bytes_per_cycle:.1f}/cyc) "
            f"fusion_ratio={self.fusion_ratio:.2f} "
            f"utilization={self.packet_utilization:.2f}"
        )
