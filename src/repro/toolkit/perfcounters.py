"""Performance-counter reporting (tuning toolkit, Section 5).

Renders the hardware- and software-side counters of a run — transmission
times, data volume, Squash fusion ratios, Batch packet utilisation — as a
human-readable report used to guide optimisation tuning.

Every line of the report is sourced from an :mod:`repro.obs` registry
snapshot (the canonical metric names of ``record_run_stats``), so the
text report, the JSONL exporter and campaign-level aggregation all read
the same telemetry.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.stats import RunStats
from ..obs import MetricsSnapshot, snapshot_from_stats


def render_snapshot_report(snapshot: MetricsSnapshot,
                           title: str = "DiffTest-H counters") -> str:
    """Counter report from a registry snapshot (run- or campaign-level).

    Works on any snapshot that carries the canonical run metrics —
    including a campaign aggregate produced by
    :meth:`repro.parallel.CampaignResult.aggregate_metrics`.
    """
    v = snapshot.value
    cycles = max(int(v("run.cycles")), 1)
    instructions = max(int(v("run.instructions")), 1)
    invokes = int(v("comm.invokes"))
    bytes_sent = int(v("comm.bytes_sent"))
    lines: List[str] = [f"=== {title} ==="]
    lines.append(f"cycles                : {int(v('run.cycles'))}")
    lines.append(f"instructions          : {int(v('run.instructions'))}")
    lines.append(f"events captured       : {int(v('run.events_captured'))}")
    lines.append(f"events transmitted    : "
                 f"{int(v('run.events_transmitted'))}")
    lines.append(f"transfers (invokes)   : {invokes}"
                 f"  ({invokes / cycles:.3f}/cycle)")
    lines.append(f"bytes on the wire     : {bytes_sent}"
                 f"  ({bytes_sent / cycles:.1f}/cycle,"
                 f" {bytes_sent / instructions:.1f}/instr)")
    lines.append(f"packet utilization    : {v('pack.utilization'):.1%}")
    lines.append(f"bubble bytes          : {int(v('pack.bubble_bytes'))}")
    lines.append(f"meta bytes            : {int(v('pack.meta_bytes'))}")
    lines.append(f"fusion ratio          : {v('fusion.ratio'):.2f}")
    lines.append(f"fusion breaks         : {int(v('fusion.breaks'))}")
    lines.append(f"NDEs sent ahead       : "
                 f"{int(v('fusion.nde_sent_ahead'))}")
    lines.append(f"diff bytes saved      : "
                 f"{int(v('fusion.diff_bytes_saved'))}")
    lines.append(f"REF steps             : {int(v('checker.ref_steps'))}")
    lines.append(f"events checked        : {int(v('checker.compares'))}")
    lines.append(f"bytes checked         : "
                 f"{int(v('checker.bytes_checked'))}")
    lines.append(f"max queue occupancy   : "
                 f"{int(v('comm.max_queue_occupancy'))}")
    lines.append(f"backpressure events   : "
                 f"{int(v('comm.backpressure_events'))}")
    lines.append(f"replay buffer peak    : "
                 f"{int(v('replay.buffer_peak'))}")
    lines.append(f"checkpoints           : {int(v('replay.checkpoints'))}")
    return "\n".join(lines)


def render_report(stats: RunStats, title: str = "DiffTest-H counters",
                  snapshot: Optional[MetricsSnapshot] = None) -> str:
    """Multi-line counter report for one run.

    When the run executed under an enabled :class:`repro.obs.ObsContext`
    its live snapshot can be passed in; otherwise one is derived from
    ``stats`` (both paths render identically — the registry mapping is
    the single source of line values).
    """
    if snapshot is None:
        snapshot = snapshot_from_stats(stats)
    return render_snapshot_report(snapshot, title=title)


def render_event_profile(stats: RunStats, top: int = 0) -> str:
    """Figure-4-style table: event size vs. invocations per cycle."""
    rows = stats.profile.rows(stats.counters.cycles)
    if top:
        rows = sorted(rows, key=lambda r: -r[2])[:top]
    lines = [f"{'event':22s} {'bytes':>6s} {'invocations/cycle':>18s}"]
    for name, size, rate in rows:
        lines.append(f"{name:22s} {size:6d} {rate:18.4f}")
    return "\n".join(lines)
