"""Unified observability: metric registry, span tracer, exporters.

The subsystem every layer reports through:

* :class:`MetricRegistry` (``metrics``) — typed Counter / Gauge /
  Histogram instruments under hierarchical names, with picklable
  :class:`MetricsSnapshot`\\ s that merge deterministically across
  campaign workers.
* :class:`Tracer` (``tracer``) — nested pipeline spans (capture → pack →
  transfer → dispatch → ref-step → compare, plus campaign job lanes) on
  wall-clock and modeled-cycle timelines.
* ``export`` — Chrome trace-event JSON (Perfetto-loadable), JSONL
  metrics, and the text renderers behind ``repro profile``.

An :class:`ObsContext` bundles one registry and one tracer and is the
single handle instrumented code takes.  The default is :data:`NULL_OBS`,
a shared disabled context whose instruments are no-ops — the framework
hot loop pays one branch per cycle when observability is off.
"""

from __future__ import annotations

from typing import Optional

from .export import (
    chrome_trace,
    chrome_trace_events,
    metrics_lines,
    render_metrics,
    render_profile,
    write_chrome_trace,
    write_metrics_jsonl,
)
from .metrics import (
    DEFAULT_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricRecord,
    MetricRegistry,
    MetricsSnapshot,
)
from .tracer import (
    DEFAULT_MAX_RECORDS,
    NULL_TRACER,
    PhaseStat,
    SpanRecord,
    Tracer,
)


class ObsContext:
    """One registry + one tracer: the handle instrumented code takes."""

    def __init__(self, enabled: bool = True,
                 max_trace_records: int = DEFAULT_MAX_RECORDS) -> None:
        self.enabled = enabled
        self.registry = MetricRegistry(enabled=enabled)
        self.tracer = Tracer(enabled=enabled,
                             max_records=max_trace_records)

    @classmethod
    def disabled(cls) -> "ObsContext":
        """The shared no-op context (also available as ``NULL_OBS``)."""
        return NULL_OBS


#: Shared disabled context: the default for every instrumented layer.
NULL_OBS = ObsContext(enabled=False)


def resolve_obs(obs: Optional[ObsContext]) -> ObsContext:
    """``None``-tolerant accessor used by instrumented constructors."""
    return obs if obs is not None else NULL_OBS


def record_run_stats(registry: MetricRegistry, stats) -> None:
    """Fold a finished run's :class:`~repro.core.stats.RunStats` into the
    registry under the canonical metric names.

    This is the single mapping between the legacy counter fields and the
    metric namespace — the text report, the JSONL exporter and campaign
    aggregation all read these names.  (Duck-typed on purpose: ``obs``
    must not import ``repro.core``.)
    """
    counters = stats.counters
    set_counter = registry.set_counter
    set_gauge = registry.set_gauge
    set_counter("run.cycles", counters.cycles)
    set_counter("run.instructions", counters.instructions)
    set_counter("run.events_captured", stats.events_captured)
    set_counter("run.events_transmitted", stats.events_transmitted)
    set_counter("comm.invokes", counters.invokes)
    set_counter("comm.bytes_sent", counters.bytes_sent)
    set_counter("comm.backpressure_events", stats.backpressure_events)
    set_gauge("comm.max_queue_occupancy", stats.max_queue_occupancy)
    set_gauge("pack.utilization", stats.packet_utilization)
    set_counter("pack.bubble_bytes", stats.bubble_bytes)
    set_counter("pack.meta_bytes", stats.meta_bytes)
    set_gauge("fusion.ratio", stats.fusion_ratio)
    set_counter("fusion.breaks", stats.fusion_breaks)
    set_counter("fusion.nde_sent_ahead", stats.nde_sent_ahead)
    set_counter("fusion.diff_bytes_saved", stats.diff_bytes_saved)
    set_counter("checker.compares", counters.sw_events_checked)
    set_counter("checker.bytes_checked", counters.sw_bytes_checked)
    set_counter("checker.ref_steps", counters.sw_ref_steps)
    set_counter("checker.dispatches", counters.sw_dispatches)
    set_gauge("replay.buffer_peak", stats.replay_buffer_peak)
    set_counter("replay.checkpoints", stats.checkpoints)
    # Straight-to-wire capture fallbacks (CoSimulation._select_capture);
    # absent reasons are simply not recorded.
    for reason in getattr(stats, "capture_fallbacks", ()):
        set_counter("capture.fallback." + reason, 1)


def record_slicing(registry: MetricRegistry, slices: int,
                   slice_cycles: int = 0) -> None:
    """Account one checkpoint-sliced run on the *parent-side* registry.

    ``slicing.slices`` counts executed slice windows and
    ``slicing.slice_cycles`` their summed window cycles.  These live on
    the orchestrating registry only — never in the stitched snapshot,
    which must stay byte-identical to a serial run's.
    """
    registry.counter("slicing.slices").inc(slices)
    registry.counter("slicing.slice_cycles").inc(slice_cycles)


def record_supervision(registry: MetricRegistry, stats) -> None:
    """Fold a campaign's supervisor telemetry into the parent registry.

    One canonical mapping for the ``supervision.*`` namespace (duck-typed
    on ``CampaignStats`` so ``obs`` never imports ``repro.parallel``).
    Zero values are not recorded: a fault-free campaign produces a
    snapshot byte-identical to the pre-supervision format.
    """
    telemetry = (
        ("supervision.pool_restarts", getattr(stats, "pool_restarts", 0)),
        ("supervision.requeues", getattr(stats, "requeues", 0)),
        ("supervision.poison_quarantined",
         getattr(stats, "poison_quarantined", 0)),
        ("supervision.jobs_crashed", getattr(stats, "jobs_crashed", 0)),
    )
    for name, value in telemetry:
        if value:
            registry.counter(name).inc(value)
    backoff = getattr(stats, "backoff_s", 0.0)
    if backoff:
        registry.set_gauge("supervision.backoff_s", backoff)


def snapshot_from_stats(stats) -> MetricsSnapshot:
    """A standalone snapshot of one run's stats (no live registry needed)."""
    registry = MetricRegistry()
    record_run_stats(registry, stats)
    return registry.snapshot()


__all__ = [
    "Counter",
    "DEFAULT_BOUNDS",
    "DEFAULT_MAX_RECORDS",
    "Gauge",
    "Histogram",
    "MetricRecord",
    "MetricRegistry",
    "MetricsSnapshot",
    "NULL_OBS",
    "NULL_TRACER",
    "ObsContext",
    "PhaseStat",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "chrome_trace_events",
    "metrics_lines",
    "record_run_stats",
    "record_slicing",
    "record_supervision",
    "render_metrics",
    "render_profile",
    "resolve_obs",
    "snapshot_from_stats",
    "write_chrome_trace",
    "write_metrics_jsonl",
]
