"""Per-layer metrics of one traced operation.

Times come from :class:`tracing.Tracer` (self seconds per layer, plus the
layer's share of the traced wall; the framework loop is whatever the
wall leaves, so the shares sum to 100 %).  Counts come from what the run
reports publicly — ``RunStats``, ``CommCounters``, ``TraceCache.stats``,
``CampaignStats`` — and repeat exactly for a given seed.

A metric is ``None`` when it is not defined for the workload (pool
workloads simulate in worker processes the tracer does not reach; single
runs have no executor) and the reason is recorded beside it.  A layer
whose methods were simply never called reads 0.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional

from tracing import LAYER_METHODS, Tracer
from workloads import Outcome, Prepared

TRACED_LAYERS = tuple(dict.fromkeys(layer for layer, *_ in LAYER_METHODS))
LOOP_LAYER = "core.framework.loop"

#: Per-layer metrics derived from the wall clock; everything else is a
#: simulated statistic or a count and must repeat exactly (``--aa``).
WALL_DERIVED = frozenset({
    "trace.overhead_pct", "parallel.executor.worker_utilization",
    "parallel.executor.scaling_w2", "parallel.slicing.speedup_vs_serial",
    "parallel.slicing.slice_run_s_max"})

#: ``RunStats`` attribute behind each count metric.
STATS_COUNTS = {
    "dut.events_captured": "events_captured",
    "ref.checkpoints": "checkpoints",
    "comm.fusion.ratio": "fusion_ratio",
    "comm.fusion.breaks": "fusion_breaks",
    "comm.fusion.nde_sent_ahead": "nde_sent_ahead",
    "comm.fusion.diff_bytes_saved": "diff_bytes_saved",
    "comm.packing.utilization": "packet_utilization",
    "comm.packing.bubble_bytes": "bubble_bytes",
    "comm.packing.meta_bytes": "meta_bytes",
    "comm.channel.max_occupancy": "max_queue_occupancy",
    "comm.channel.backpressure_events": "backpressure_events",
    "core.checker.events_transmitted": "events_transmitted",
    "core.replay.buffer_peak": "replay_buffer_peak",
}
SPAN_METRICS = tuple(f"{layer}{suffix}"
                     for layer in TRACED_LAYERS + (LOOP_LAYER,)
                     for suffix in ("_s", "_s_share"))
TIER_METRICS = ("isa.jit.blocks_compiled", "isa.jit.bailouts",
                "isa.jit.step_share", "tiers.jit_active",
                "tiers.fast_capture_active", "dut.empty_cycle_share")
REPLAY_METRICS = ("core.replay.events_replayed",
                  "core.replay.records_reverted")
EXECUTOR_METRICS = tuple(f"parallel.executor.{name}" for name in (
    "worker_utilization", "overhead_s", "pool_restarts", "requeues",
    "scaling_w2"))
SLICING_METRICS = tuple(f"parallel.slicing.{name}" for name in (
    "boundary_s", "slice_run_s_max", "skipped_barriers",
    "speedup_vs_serial"))

_IN_WORKERS = "simulated in pool workers, which the tracer does not reach"
_NOT_AGGREGATED = "not aggregated across campaign jobs"


def is_wall_derived(name: str) -> bool:
    return name.endswith(("_s", "_s_share")) or name in WALL_DERIVED


class Sheet:
    """Metric values, and for each ``None`` the reason it is undefined."""

    def __init__(self) -> None:
        self.values: Dict[str, Optional[float]] = {}
        self.reasons: Dict[str, str] = {}

    def put(self, name: str, value) -> None:
        self.values[name] = value
        self.reasons.pop(name, None)

    def undefined(self, reason: str, *names: str) -> None:
        for name in names:
            self.values[name] = None
            self.reasons[name] = reason


def _spans(sheet: Sheet, tracer: Tracer, wall_s: float) -> None:
    seconds = tracer.layer_seconds()
    seconds[LOOP_LAYER] = wall_s - sum(seconds.values())
    for layer, self_s in seconds.items():
        sheet.put(f"{layer}_s", self_s)
        sheet.put(f"{layer}_s_share", 100.0 * self_s / wall_s)


def _counts(sheet: Sheet, counters, stats) -> None:
    """Counts off ``CommCounters`` and, where one exists, ``RunStats``."""
    kcycles = max(counters.cycles, 1) / 1000.0
    sheet.put("comm.channel.invokes_per_kcycle", counters.invokes / kcycles)
    sheet.put("comm.channel.bytes_per_kcycle", counters.bytes_sent / kcycles)
    sheet.put("ref.steps", counters.sw_ref_steps)
    sheet.put("core.checker.sw_dispatches", counters.sw_dispatches)
    if stats is None:
        sheet.undefined(_NOT_AGGREGATED, "tiers.capture_fallback_count",
                        *STATS_COUNTS)
        return
    for name, attr in STATS_COUNTS.items():
        sheet.put(name, getattr(stats, attr))
    sheet.put("tiers.capture_fallback_count", len(stats.capture_fallbacks))


def _tiers(sheet: Sheet, cosim, counters, tracer: Tracer) -> None:
    """What the run really executed, read off the live co-simulation."""
    caches = [core.jit for core in cosim.dut.cores]
    caches += [ref.hart.jit for ref in cosim.refs]
    jit = [cache.stats for cache in caches if cache is not None]
    jit_steps = sum(s.steps for s in jit)
    stepped = counters.instructions + counters.sw_ref_steps
    sheet.put("isa.jit.blocks_compiled", sum(s.blocks_compiled for s in jit))
    sheet.put("isa.jit.bailouts", sum(s.bailouts for s in jit))
    sheet.put("isa.jit.step_share", 100.0 * jit_steps / max(stepped, 1))
    sheet.put("tiers.jit_active", int(jit_steps > 0))
    sheet.put("tiers.fast_capture_active", int(any(
        getattr(core.monitor, "fast_events", 0)
        for core in cosim.dut.cores)))
    # ``end_of_cycle_state`` runs exactly on the cycles that committed or
    # emitted something.
    cycles = tracer.calls["DutCore.cycle"]
    busy = tracer.calls["Monitor.end_of_cycle_state"]
    sheet.put("dut.empty_cycle_share", 100.0 * (1.0 - busy / max(cycles, 1)))


def _modeled_speed(sheet: Sheet, prep: Prepared, run) -> None:
    """Eq. 1 speed on Palladium from the measured counters (simulated
    time), and its error against the paper where Table 5 has the cell."""
    from repro.comm.platform import PALLADIUM

    khz = run.breakdown(PALLADIUM, prep.dut.gates_millions,
                        prep.config.nonblocking).speed_khz
    sheet.put("sim.modeled_khz", khz)
    paper = prep.spec.paper_khz
    if paper is None:
        sheet.undefined("unvalidated: the paper reports no figure for this "
                        "program and config", "sim.modeled_khz_err_pct")
    else:
        sheet.put("sim.modeled_khz_err_pct",
                  100.0 * abs(khz - paper) / paper)


def _executor(sheet: Sheet, stats) -> None:
    sheet.put("parallel.executor.worker_utilization",
              stats.worker_utilization)
    sheet.put("parallel.executor.overhead_s",
              stats.wall_time_s - stats.busy_time_s / stats.workers)
    sheet.put("parallel.executor.pool_restarts", stats.pool_restarts)
    sheet.put("parallel.executor.requeues", stats.requeues)


def sampled_generate_s(prep: Prepared, samples: int = 20) -> float:
    """Program generation + assembly for the whole campaign, estimated
    from the first ``samples`` seeds in this process (the real ones run
    inside the workers' job time)."""
    from repro.workloads.fuzz import fuzz_workload

    jobs = prep.params["jobs"]
    seeds = range(prep.seed, prep.seed + min(samples, jobs))
    start = perf_counter()
    for seed in seeds:
        fuzz_workload(seed, length=prep.params["length"])
    return (perf_counter() - start) / len(seeds) * jobs


def layer_metrics(prep: Prepared, traced: Outcome, tracer: Tracer,
                  untraced_run_s: float,
                  comparison: Optional[Outcome] = None) -> Sheet:
    """Every per-layer metric for one traced operation.

    ``comparison`` is a pool workload's base run: the campaign on one
    worker, or the serial run under the sliced run's barrier period.
    """
    kind = prep.spec.kind
    result = traced.result
    sheet = Sheet()
    sheet.put("trace.overhead_pct",
              100.0 * (traced.run_s / untraced_run_s - 1.0))
    sheet.put("workloads.build_s", prep.build_s)
    sheet.undefined("not a fuzz campaign", "workloads.fuzz.generate_s")
    sheet.undefined("not a sliced run", *SLICING_METRICS)
    if kind in ("run", "bug"):
        counters = result.stats.counters
        _spans(sheet, tracer, traced.run_s)
        _counts(sheet, counters, result.stats)
        _tiers(sheet, traced.handle, counters, tracer)
        _modeled_speed(sheet, prep, result)
        sheet.undefined("single run: no executor", *EXECUTOR_METRICS)
        report = result.debug_report
        sheet.put(REPLAY_METRICS[0], report.replayed_events if report else 0)
        sheet.put(REPLAY_METRICS[1], report.reverted_records if report else 0)
        return sheet
    sheet.undefined(_IN_WORKERS, *SPAN_METRICS, *TIER_METRICS)
    if kind == "campaign":
        _counts(sheet, result.aggregate_counters(), None)
        _executor(sheet, result.stats)
        sheet.put("parallel.executor.scaling_w2",
                  comparison.run_s / traced.run_s)
        sheet.undefined("programs are generated per job",
                        "workloads.build_s")
        sheet.put("workloads.fuzz.generate_s", sampled_generate_s(prep))
        sheet.undefined("a campaign has no single modeled speed",
                        "sim.modeled_khz", "sim.modeled_khz_err_pct")
        sheet.undefined(_NOT_AGGREGATED, *REPLAY_METRICS)
        return sheet
    _counts(sheet, result.stats.counters, result.stats)
    _executor(sheet, result.campaign.stats)
    sheet.undefined("defined on the fuzz campaign; speedup_vs_serial is "
                    "the sliced run's scaling figure",
                    "parallel.executor.scaling_w2")
    _modeled_speed(sheet, prep, result.summary)
    for name in REPLAY_METRICS:
        sheet.put(name, 0)
    sheet.put("parallel.slicing.boundary_s", traced.boundary_s)
    sheet.put("parallel.slicing.slice_run_s_max",
              max(job.duration_s for job in result.campaign.jobs))
    sheet.put("parallel.slicing.speedup_vs_serial",
              comparison.run_s / traced.run_s)
    # No public counter exists; the serial run's own is the only source.
    skipped = getattr(comparison.handle, "_skipped_barriers", None)
    if skipped is None:
        sheet.undefined("CoSimulation no longer counts skipped barriers",
                        "parallel.slicing.skipped_barriers")
    else:
        sheet.put("parallel.slicing.skipped_barriers", skipped)
    return sheet
