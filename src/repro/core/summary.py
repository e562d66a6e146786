"""Pickle-safe run summaries for campaign-level execution.

A full :class:`~repro.core.framework.RunResult` drags the whole
:class:`~repro.core.stats.RunStats` object graph along — fine in-process,
but wasteful (and fragile) when thousands of campaign jobs stream their
outcomes across :mod:`concurrent.futures` process boundaries.  This
module defines the compact value types that cross the wire instead:

* :class:`MismatchSummary` — a mismatch reduced to plain strings/ints
  (the live :class:`~repro.core.report.Mismatch` holds an event object
  and arbitrary expected/actual values).
* :class:`RunSummary` — everything campaign aggregation needs from one
  run: pass/fail, the measured :class:`~repro.comm.loggp.CommCounters`,
  the headline hardware counters, and the rendered debug report.

Both are frozen dataclasses of primitives (plus ``CommCounters``, itself
a dataclass of ints), so they pickle cheaply and compare by value —
which is what makes deterministic serial-vs-parallel equivalence
checking possible.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from typing import Iterable, List, Optional, Tuple

from ..comm.fusion.squash import FusionStats
from ..comm.loggp import CommCounters, OverheadBreakdown, model_overhead
from ..comm.packing.base import PackingStats
from ..obs import MetricRegistry, MetricsSnapshot, record_run_stats
from .stats import RunStats


@dataclass(frozen=True)
class MismatchSummary:
    """A :class:`~repro.core.report.Mismatch` flattened to primitives."""

    core_id: int
    slot: int
    event_type: str
    field_name: str
    expected: str  # repr of the expected value
    actual: str  # repr of the observed value
    component: str
    cycle: Optional[int] = None
    description: str = ""

    def describe(self) -> str:
        return self.description


@dataclass(frozen=True)
class RunSummary:
    """The picklable essence of one co-simulation run.

    Mirrors the fields of :class:`~repro.core.framework.RunResult` /
    :class:`~repro.core.stats.RunStats` that campaign reports consume;
    build one with :meth:`RunResult.summarize`.
    """

    passed: bool
    exit_code: Optional[int]
    cycles: int
    instructions: int
    counters: CommCounters = field(default_factory=CommCounters)
    mismatch: Optional[MismatchSummary] = None
    debug_report_text: Optional[str] = None
    uart_output: str = ""
    # Headline RunStats counters (tuning-toolkit rollup).
    events_captured: int = 0
    events_transmitted: int = 0
    fusion_ratio: float = 1.0
    packet_utilization: float = 1.0
    max_queue_occupancy: int = 0
    backpressure_events: int = 0
    checkpoints: int = 0
    #: Registry snapshot when the job ran under observability (else None);
    #: campaign aggregation folds these with MetricsSnapshot.merge.
    metrics: Optional[MetricsSnapshot] = None

    # -- derived quantities (same definitions as RunStats) -------------
    @property
    def invokes_per_cycle(self) -> float:
        return self.counters.invokes / max(self.counters.cycles, 1)

    @property
    def bytes_per_cycle(self) -> float:
        return self.counters.bytes_sent / max(self.counters.cycles, 1)

    def breakdown(self, platform, gates_millions: float,
                  nonblocking: bool) -> OverheadBreakdown:
        """Modeled time under ``platform`` (Equation 1)."""
        return model_overhead(platform, gates_millions, self.counters,
                              nonblocking)


def summarize_mismatch(mismatch) -> MismatchSummary:
    """Flatten a live :class:`~repro.core.report.Mismatch`."""
    return MismatchSummary(
        core_id=mismatch.core_id,
        slot=mismatch.slot,
        event_type=type(mismatch.event).__name__,
        field_name=mismatch.field_name,
        expected=repr(mismatch.expected),
        actual=repr(mismatch.actual),
        component=mismatch.component,
        cycle=mismatch.cycle,
        description=mismatch.describe(),
    )


def summarize_result(result) -> RunSummary:
    """Flatten a :class:`~repro.core.framework.RunResult`."""
    stats = result.stats
    return RunSummary(
        passed=result.passed,
        exit_code=result.exit_code,
        cycles=result.cycles,
        instructions=result.instructions,
        counters=stats.counters,
        mismatch=(summarize_mismatch(result.mismatch)
                  if result.mismatch is not None else None),
        debug_report_text=(result.debug_report.render()
                           if result.debug_report is not None else None),
        uart_output=result.uart_output,
        events_captured=stats.events_captured,
        events_transmitted=stats.events_transmitted,
        fusion_ratio=stats.fusion_ratio,
        packet_utilization=stats.packet_utilization,
        max_queue_occupancy=stats.max_queue_occupancy,
        backpressure_events=stats.backpressure_events,
        checkpoints=stats.checkpoints,
        metrics=result.metrics,
    )


# ----------------------------------------------------------------------
# Summaries as plain JSON documents (the e2e benchmark's sim_digest
# hashes this dict, so its keys and values must not drift)
# ----------------------------------------------------------------------
def summary_to_dict(summary: RunSummary) -> dict:
    """Flatten a :class:`RunSummary` to a JSON-safe document.

    Everything is primitives already except the two nested value
    objects (``counters``, ``mismatch``) and the metrics snapshot, each
    of which gets its own sub-document.
    """
    return {
        "passed": summary.passed,
        "exit_code": summary.exit_code,
        "cycles": summary.cycles,
        "instructions": summary.instructions,
        "counters": asdict(summary.counters),
        "mismatch": (asdict(summary.mismatch)
                     if summary.mismatch is not None else None),
        "debug_report_text": summary.debug_report_text,
        "uart_output": summary.uart_output,
        "events_captured": summary.events_captured,
        "events_transmitted": summary.events_transmitted,
        "fusion_ratio": summary.fusion_ratio,
        "packet_utilization": summary.packet_utilization,
        "max_queue_occupancy": summary.max_queue_occupancy,
        "backpressure_events": summary.backpressure_events,
        "checkpoints": summary.checkpoints,
        "metrics": (summary.metrics.to_dicts()
                    if summary.metrics is not None else None),
    }


# ----------------------------------------------------------------------
# Checkpoint-sliced runs: per-slice summaries and serial-identical
# stitching (repro.parallel.slicing)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SliceRunSummary(RunSummary):
    """One slice's window of a checkpoint-sliced run.

    Extends :class:`RunSummary` with the slice coordinates and the raw
    per-window stat objects the stitcher needs: summed windows alone
    cannot reproduce the serial run's *derived* ratios (packet
    utilisation, fusion ratio), so each slice ships its raw packing and
    fusion counters for an exact recomputation.

    ``passed`` is judged per-window at construction: a non-final slice
    passes when its window was clean (no mismatch) — it never sees the
    good trap, so the serial exit-code criterion only applies to the
    final slice.
    """

    slice_index: int = 0
    start_cycle: int = 0
    end_cycle: int = 0
    is_final: bool = False
    run_stats: Optional[RunStats] = None
    pack_stats: Optional[PackingStats] = None
    fusion_stats: Optional[FusionStats] = None


def summarize_slice(result, *, slice_index: int, start_cycle: int,
                    end_cycle: int, is_final: bool,
                    pack_stats: Optional[PackingStats] = None,
                    fusion_stats: Optional[FusionStats] = None
                    ) -> SliceRunSummary:
    """Flatten one slice's :class:`RunResult` into a SliceRunSummary."""
    base = summarize_result(result)
    values = {f.name: getattr(base, f.name) for f in fields(RunSummary)}
    if not is_final:
        values["passed"] = base.mismatch is None
    return SliceRunSummary(
        slice_index=slice_index,
        start_cycle=start_cycle,
        end_cycle=end_cycle,
        is_final=is_final,
        run_stats=result.stats,
        pack_stats=pack_stats,
        fusion_stats=fusion_stats,
        **values,
    )


_FUSION_FIELDS = ("events_in", "events_out", "commits_in",
                  "fused_commits_out", "nde_sent_ahead", "fusion_breaks")


def stitch_slices(
        slices: Iterable[SliceRunSummary]
) -> Tuple[RunSummary, RunStats]:
    """Fold per-slice windows into a serial-identical run summary.

    Windows are ordered by slice index and included up to (and
    including) the first failing slice — exactly the prefix the serial
    run would have executed.  Additive counters sum, high-water marks
    take the max, and the derived ratios are recomputed from the summed
    raw packing/fusion counters, so every stitched field is
    byte-identical to the serial run's.  Returns ``(summary, stats)``;
    the stats feed report rendering (:func:`repro.toolkit.render_report`).
    """
    ordered = sorted(slices, key=lambda s: s.slice_index)
    if not ordered:
        raise ValueError("stitch_slices needs at least one slice")
    included: List[SliceRunSummary] = []
    for piece in ordered:
        included.append(piece)
        if piece.mismatch is not None:
            break
    last = included[-1]

    stitched = RunStats()
    total_pack = PackingStats()
    total_fusion = FusionStats()
    fused = False
    for piece in included:
        if piece.run_stats is not None:
            stitched.absorb_window(piece.run_stats)
        if piece.pack_stats is not None:
            for name in PackingStats.__slots__:
                setattr(total_pack, name,
                        getattr(total_pack, name)
                        + getattr(piece.pack_stats, name))
        if piece.fusion_stats is not None:
            fused = True
            for name in _FUSION_FIELDS:
                setattr(total_fusion, name,
                        getattr(total_fusion, name)
                        + getattr(piece.fusion_stats, name))
    stitched.packet_utilization = total_pack.utilization
    if fused:
        stitched.fusion_ratio = total_fusion.fusion_ratio

    metrics: Optional[MetricsSnapshot] = None
    if any(piece.metrics is not None for piece in included):
        # Worker snapshots carry only runtime instruments (their
        # end-of-run fold is suppressed); merge them commutatively, then
        # overlay one set of final totals computed from the stitched
        # stats — the exact shape of a serial observed run's registry.
        merged = MetricsSnapshot.merge_all(
            piece.metrics for piece in included)
        registry = MetricRegistry()
        record_run_stats(registry, stitched)
        total_pack.fold_into(registry)
        if fused:
            total_fusion.fold_into(registry)
        metrics = merged.merge(registry.snapshot())

    summary = RunSummary(
        passed=all(piece.passed for piece in included) and last.is_final,
        exit_code=last.exit_code,
        cycles=stitched.counters.cycles,
        instructions=stitched.counters.instructions,
        counters=stitched.counters,
        mismatch=last.mismatch,
        debug_report_text=last.debug_report_text,
        uart_output=last.uart_output,
        events_captured=stitched.events_captured,
        events_transmitted=stitched.events_transmitted,
        fusion_ratio=stitched.fusion_ratio,
        packet_utilization=stitched.packet_utilization,
        max_queue_occupancy=stitched.max_queue_occupancy,
        backpressure_events=stitched.backpressure_events,
        checkpoints=stitched.checkpoints,
        metrics=metrics,
    )
    return summary, stitched
