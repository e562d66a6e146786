"""Tuning toolkit: performance counters, SQL analysis, trace dump/reload,
process-chaos injection."""

from .chaos import (
    CHAOS_KINDS,
    POISON,
    ChaosExecutor,
    ChaosFault,
    ChaosPlan,
    chaos_specs,
)
from .compare import compare_runs, load_stats_dict, stats_to_dict, stats_to_json
from .perfcounters import render_event_profile, render_report, \
    render_snapshot_report
from .sqltrace import TraceDb
from .tracedump import TraceCheckResult, TraceReader, TraceWriter, replay_trace

__all__ = [
    "CHAOS_KINDS",
    "POISON",
    "ChaosExecutor",
    "ChaosFault",
    "ChaosPlan",
    "chaos_specs",
    "compare_runs",
    "load_stats_dict",
    "stats_to_dict",
    "stats_to_json",
    "render_event_profile",
    "render_report",
    "render_snapshot_report",
    "TraceDb",
    "TraceCheckResult",
    "TraceReader",
    "TraceWriter",
    "replay_trace",
]
