"""Snapshot-based debugging: the baseline Replay is compared against.

Existing hardware-accelerated flows (DESSERT, Fromajo, ...) recover
per-instruction detail by periodically snapshotting the *entire DUT* (plus
a full REF copy) and re-executing from the nearest checkpoint with
unfused checking (Figure 10, top).  Two layers live here:

* :class:`SnapshotDebugger` — the pure cost model (snapshot bytes,
  re-run cycles) used by quick analyses;
* :class:`SnapshotCoSimulation` — a fully *operational* implementation:
  it runs a normal (fused) co-simulation, keeps real
  :func:`~repro.dut.snapshotting.take_snapshot` images of quiescent
  points, and on a mismatch restores the system and re-executes with
  per-instruction checking to localise the bug — paying the real costs
  Replay avoids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..dut.snapshotting import restore_snapshot
from .checker import Checker
from .framework import BoundarySeed, CoSimulation
from .report import DebugReport, Mismatch

#: Bytes of architectural state per core (regs + CSRs + vector file).
ARCH_STATE_BYTES = 32 * 8 + 32 * 8 + 32 * 32 + 128 * 8


@dataclass
class SnapshotRecord:
    cycle: int
    slot: int
    bytes_stored: int


@dataclass
class SnapshotDebugger:
    """Cost model of periodic full-DUT snapshotting."""

    interval_cycles: int = 10000
    memory_image_bytes: int = 64 << 20  # resident memory image per snapshot
    snapshots: List[SnapshotRecord] = field(default_factory=list)
    _last_cycle: int = 0

    def on_cycle(self, cycle: int, slot: int) -> Optional[SnapshotRecord]:
        """Take a snapshot when the interval elapses."""
        if cycle - self._last_cycle >= self.interval_cycles:
            record = SnapshotRecord(
                cycle=cycle, slot=slot,
                bytes_stored=self.memory_image_bytes + ARCH_STATE_BYTES)
            self.snapshots.append(record)
            self._last_cycle = cycle
            return record
        return None

    # ------------------------------------------------------------------
    def total_snapshot_bytes(self) -> int:
        return sum(record.bytes_stored for record in self.snapshots)

    def recovery_cost(self, failure_cycle: int) -> dict:
        """Cost to recover instruction-level detail at ``failure_cycle``.

        The whole DUT re-executes from the nearest snapshot at emulation
        speed, with per-instruction (unoptimised) checking re-enabled.
        """
        base = 0
        for record in self.snapshots:
            if record.cycle <= failure_cycle:
                base = record.cycle
            else:
                break
        return {
            "rerun_cycles": failure_cycle - base,
            "restore_bytes": (self.memory_image_bytes + ARCH_STATE_BYTES
                              if self.snapshots else 0),
        }


@dataclass
class SnapshotDebugCosts:
    """Measured costs of one snapshot-based recovery."""

    snapshots_taken: int
    snapshot_bytes_total: int
    restore_bytes: int
    rerun_cycles: int
    rerun_events: int


class SnapshotCoSimulation(CoSimulation):
    """A co-simulation whose debugging flow uses full snapshots.

    Replay is disabled; instead the loop's periodic quiescent image is
    taken every ``snapshot_interval`` cycles and every image is kept, and
    a mismatch triggers restore + re-execution with raw per-instruction
    checking.  ``costs`` records what that recovery paid, for head-to-head
    comparison with :class:`~repro.core.replay.ReplayUnit`.
    """

    def __init__(self, *args, snapshot_interval: int = 2000, **kwargs):
        super().__init__(*args, **kwargs)
        self.diff_config = self.diff_config.with_(replay=False)
        self._image_interval = snapshot_interval
        self._snapshots: List[BoundarySeed] = []
        self._snapshot_bytes = 0
        self.costs: Optional[SnapshotDebugCosts] = None

    def _take_image(self) -> Optional[BoundarySeed]:
        seed = super()._take_image()
        if seed is not None:
            self._snapshots.append(seed)
            self._snapshot_bytes += seed.snapshot.size_bytes() + sum(
                clone.memory.allocated_bytes() + ARCH_STATE_BYTES
                for clone in seed.refs)
        return seed

    def _on_mismatch(self, mismatch: Mismatch) -> None:
        super()._on_mismatch(mismatch)
        if self._snapshots:
            self.debug_report = self._recover(mismatch)

    # ------------------------------------------------------------------
    def _recover(self, trigger: Mismatch) -> DebugReport:
        """Restore the newest snapshot and re-execute with raw checking."""
        seed = self._snapshots[-1]
        image = seed.snapshot
        # The re-execution checks event objects, whatever the run used.
        self._detach_capture()
        restore_snapshot(self.dut, image)
        checkers = [Checker(clone, core_id)
                    for core_id, clone in enumerate(seed.refs)]
        for checker, slot in zip(checkers, seed.slots):
            checker.ref_slot = slot
        localized: Optional[Mismatch] = None
        rerun_cycles = 0
        rerun_events = 0
        budget = (trigger.cycle or 0) - image.cycle_taken + 10_000
        while localized is None and rerun_cycles < budget:
            bundles = self.dut.cycle(budget - rerun_cycles)
            rerun_cycles = bundles[0].cycle - image.cycle_taken
            for bundle in bundles:
                for event in bundle.events:
                    rerun_events += 1
                    localized = checkers[bundle.core_id].process(event)
                    if localized is not None:
                        break
                if localized is not None:
                    break
            if self.dut.finished():
                break
        report = DebugReport(
            trigger=trigger, localized=localized,
            replay_slots=0, replayed_events=rerun_events,
            reverted_records=0,
            faulty_pc=getattr(localized.event, "pc", None)
            if localized else None)
        self.costs = SnapshotDebugCosts(
            snapshots_taken=len(self._snapshots),
            snapshot_bytes_total=self._snapshot_bytes,
            restore_bytes=image.size_bytes(),
            rerun_cycles=rerun_cycles,
            rerun_events=rerun_events,
        )
        report.notes.append(
            f"snapshot recovery: restored {self.costs.restore_bytes} bytes, "
            f"re-executed {rerun_cycles} DUT cycles")
        return report
