"""Tests for the observability subsystem: registry, tracer, exporters.

Covers the subsystem's contracts: merge rules are order-independent
(campaign aggregation must not depend on worker count), no-op mode
records nothing and allocates nothing per call, the Chrome-trace export
is valid trace-event JSON, and a parallel campaign folds to the same
metrics as a serial one.
"""

import io
import json

import pytest

from repro.core import CONFIG_BNSD, run_cosim
from repro.dut import XIANGSHAN_DEFAULT
from repro.obs import (
    NULL_OBS,
    MetricRegistry,
    MetricsSnapshot,
    ObsContext,
    Tracer,
    chrome_trace,
    metrics_lines,
    record_run_stats,
    render_metrics,
    render_profile,
    write_chrome_trace,
    write_metrics_jsonl,
)
from repro.toolkit import render_report
from repro.workloads import fuzz_campaign

pytestmark = pytest.mark.obs

#: Every span name the framework hot path emits.
PIPELINE_PHASES = {"capture", "fuse", "pack", "transfer", "dispatch",
                   "ref_step", "compare"}


# ----------------------------------------------------------------------
# Registry / instruments
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram_roundtrip(self):
        registry = MetricRegistry()
        counter = registry.counter("comm.invokes")
        counter.inc()
        counter.inc(4)
        gauge = registry.gauge("comm.max_queue_occupancy")
        gauge.set_max(3)
        gauge.set_max(1)  # lower sample must not win
        hist = registry.histogram("comm.transfer_bytes")
        for size in (10, 100, 1000):
            hist.observe(size)
        snap = registry.snapshot()
        assert snap.value("comm.invokes") == 5
        assert snap.value("comm.max_queue_occupancy") == 3
        record = snap.metrics["comm.transfer_bytes"]
        assert record.count == 3
        assert record.total == 1110
        assert record.minimum == 10 and record.maximum == 1000
        assert sum(record.bucket_counts) == 3

    def test_same_name_returns_same_instrument(self):
        registry = MetricRegistry()
        assert registry.counter("a.b") is registry.counter("a.b")

    def test_kind_conflict_raises(self):
        registry = MetricRegistry()
        registry.counter("a.b")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("a.b")

    def test_set_counter_is_idempotent_fold(self):
        registry = MetricRegistry()
        registry.set_counter("run.cycles", 100)
        registry.set_counter("run.cycles", 100)
        assert registry.snapshot().value("run.cycles") == 100

    def test_snapshot_value_default(self):
        snap = MetricRegistry().snapshot()
        assert snap.value("missing.metric") == 0
        assert snap.value("missing.metric", default=-1) == -1


# ----------------------------------------------------------------------
# Merge semantics: commutative + associative (campaign determinism)
# ----------------------------------------------------------------------
def _snapshot(counter, gauge, observations):
    registry = MetricRegistry()
    registry.counter("c.total").inc(counter)
    registry.gauge("g.peak").set_max(gauge)
    hist = registry.histogram("h.sizes")
    for value in observations:
        hist.observe(value)
    return registry.snapshot()


class TestMerge:
    def test_merge_commutative(self):
        a = _snapshot(3, 7, [1, 2])
        b = _snapshot(5, 2, [100])
        assert a.merge(b) == b.merge(a)

    def test_merge_associative_any_order(self):
        snaps = [_snapshot(1, 9, [4]), _snapshot(10, 3, [40, 400]),
                 _snapshot(100, 6, [])]
        a, b, c = snaps
        left = a.merge(b).merge(c)
        right = a.merge(c.merge(b))
        assert left == right
        assert left == MetricsSnapshot.merge_all(reversed(snaps))
        assert left.value("c.total") == 111
        assert left.value("g.peak") == 9
        assert left.metrics["h.sizes"].count == 3

    def test_merge_all_skips_none(self):
        snap = _snapshot(2, 2, [])
        total = MetricsSnapshot.merge_all([None, snap, None])
        assert total.value("c.total") == 2

    def test_merge_disjoint_names(self):
        a = _snapshot(1, 1, [])
        registry = MetricRegistry()
        registry.counter("other.one").inc(7)
        b = registry.snapshot()
        merged = a.merge(b)
        assert merged.value("c.total") == 1
        assert merged.value("other.one") == 7

    def test_mismatched_kind_merge_raises(self):
        r1, r2 = MetricRegistry(), MetricRegistry()
        r1.counter("x").inc()
        r2.gauge("x").set(1)
        with pytest.raises(ValueError):
            r1.snapshot().merge(r2.snapshot())


# ----------------------------------------------------------------------
# No-op mode
# ----------------------------------------------------------------------
class TestNoOpMode:
    def test_disabled_registry_shares_singletons(self):
        registry = MetricRegistry(enabled=False)
        assert registry.counter("a") is registry.counter("b")
        assert registry.gauge("a") is registry.gauge("b")
        assert registry.histogram("a") is registry.histogram("b")
        registry.counter("a").inc(100)
        registry.gauge("a").set_max(100)
        registry.histogram("a").observe(100)
        assert len(registry) == 0
        assert not registry.snapshot()

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        span = tracer.span("capture")
        assert span is tracer.span("pack")  # shared null span
        with span:
            pass
        tracer.add_complete("job:x", ts_us=0.0, dur_us=5.0)
        assert tracer.records == []
        assert tracer.aggregate() == {}

    def test_null_obs_context(self):
        assert not NULL_OBS.enabled
        assert ObsContext.disabled() is NULL_OBS
        assert not NULL_OBS.registry.enabled
        assert not NULL_OBS.tracer.enabled


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_span_aggregation(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("compare", cycle=7):
                pass
        stats = tracer.aggregate()
        assert stats["compare"].count == 3
        assert stats["compare"].total_us >= stats["compare"].max_us
        assert all(r.name == "compare" and r.cycle == 7
                   for r in tracer.records)

    def test_record_cap_keeps_aggregates(self):
        tracer = Tracer(max_records=2)
        for _ in range(5):
            with tracer.span("capture"):
                pass
        assert len(tracer.records) == 2
        assert tracer.dropped_records == 3
        assert tracer.aggregate()["capture"].count == 5  # never capped


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def instrumented_run(small_image):
    obs = ObsContext()
    result = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD, small_image,
                       max_cycles=60_000, obs=obs)
    assert result.passed
    return obs, result


class TestExport:
    def test_chrome_trace_round_trips_json(self, instrumented_run):
        obs, _result = instrumented_run
        sink = io.StringIO()
        write_chrome_trace(obs.tracer, sink)
        doc = json.loads(sink.getvalue())
        assert doc == chrome_trace(obs.tracer)
        events = doc["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in ("X", "M")
            if event["ph"] == "X":
                assert isinstance(event["ts"], float)
                assert isinstance(event["dur"], float)
                assert event["dur"] >= 0
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert PIPELINE_PHASES <= names

    def test_chrome_trace_has_both_timelines(self, instrumented_run):
        obs, _result = instrumented_run
        events = chrome_trace(obs.tracer)["traceEvents"]
        pids = {e["pid"] for e in events if e["ph"] == "X"}
        assert pids == {0, 1}  # wall clock + modeled cycles

    def test_metrics_jsonl_parses_and_is_sorted(self, instrumented_run):
        _obs, result = instrumented_run
        sink = io.StringIO()
        write_metrics_jsonl(result.metrics, sink)
        lines = sink.getvalue().strip().splitlines()
        assert lines == metrics_lines(result.metrics)
        payloads = [json.loads(line) for line in lines]
        names = [p["name"] for p in payloads]
        assert names == sorted(names)
        by_name = {p["name"]: p for p in payloads}
        assert by_name["comm.bytes_sent"]["kind"] == "counter"
        assert by_name["comm.transfer_bytes"]["kind"] == "histogram"
        assert by_name["comm.transfer_bytes"]["count"] > 0

    def test_render_profile_lists_every_phase(self, instrumented_run):
        obs, _result = instrumented_run
        text = render_profile(obs.tracer)
        for phase in PIPELINE_PHASES:
            assert phase in text
        assert "slowest stage:" in text

    def test_render_metrics_smoke(self, instrumented_run):
        _obs, result = instrumented_run
        text = render_metrics(result.metrics)
        assert "comm.bytes_sent" in text


# ----------------------------------------------------------------------
# Framework integration
# ----------------------------------------------------------------------
class TestFrameworkIntegration:
    def test_snapshot_matches_stats(self, small_image):
        obs = ObsContext()
        result = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD, small_image,
                           max_cycles=60_000, obs=obs)
        assert result.passed
        assert PIPELINE_PHASES <= set(obs.tracer.aggregate())
        snap = result.metrics
        stats = result.stats
        assert snap.value("run.cycles") == stats.counters.cycles
        assert snap.value("comm.invokes") == stats.counters.invokes
        assert snap.value("comm.bytes_sent") == stats.counters.bytes_sent
        assert snap.value("capture.events") == stats.events_captured
        assert (snap.value("run.events_captured")
                == stats.events_captured)
        assert (snap.value("checker.compares")
                == stats.counters.sw_events_checked)
        assert (snap.value("comm.max_queue_occupancy")
                == stats.max_queue_occupancy)
        assert (snap.value("replay.buffer_peak")
                == stats.replay_buffer_peak)
        hist = snap.metrics["comm.transfer_bytes"]
        assert hist.count == stats.counters.invokes
        assert hist.total == stats.counters.bytes_sent

    def test_report_identical_with_and_without_obs(self, small_image):
        plain = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD, small_image,
                          max_cycles=60_000)
        obs = ObsContext()
        observed = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD, small_image,
                             max_cycles=60_000, obs=obs)
        assert plain.metrics is None
        assert observed.metrics is not None
        assert (render_report(plain.stats)
                == render_report(observed.stats,
                                 snapshot=observed.metrics))

    def test_record_run_stats_duck_typed(self, instrumented_run):
        _obs, result = instrumented_run
        registry = MetricRegistry()
        record_run_stats(registry, result.stats)
        rebuilt = registry.snapshot()
        for name in ("run.cycles", "comm.bytes_sent", "fusion.breaks",
                     "checker.ref_steps", "replay.checkpoints"):
            assert rebuilt.value(name) == result.metrics.value(name)


# ----------------------------------------------------------------------
# Campaign aggregation: parallel == serial
# ----------------------------------------------------------------------
@pytest.mark.campaign
def test_campaign_metrics_parallel_equals_serial():
    seeds = range(4)

    def run_with(workers):
        campaign = fuzz_campaign(seeds, length=40,
                                 dut_config=XIANGSHAN_DEFAULT,
                                 diff_config=CONFIG_BNSD, workers=workers,
                                 collect_metrics=True)
        assert campaign.passed
        return campaign

    serial = run_with(1)
    parallel = run_with(2)
    assert all(job.summary.metrics for job in serial.jobs)
    serial_agg = serial.aggregate_metrics()
    parallel_agg = parallel.aggregate_metrics()
    assert serial_agg == parallel_agg
    assert serial_agg.value("run.cycles") == sum(
        job.summary.cycles for job in serial.jobs)


@pytest.mark.campaign
def test_campaign_without_metrics_collects_nothing():
    campaign = fuzz_campaign(range(2), length=30,
                             dut_config=XIANGSHAN_DEFAULT,
                             diff_config=CONFIG_BNSD, workers=1)
    assert campaign.passed
    assert all(job.summary.metrics is None for job in campaign.jobs)
    assert not campaign.aggregate_metrics()


@pytest.mark.campaign
def test_campaign_job_spans_recorded():
    obs = ObsContext()
    campaign = fuzz_campaign(range(3), length=30,
                             dut_config=XIANGSHAN_DEFAULT,
                             diff_config=CONFIG_BNSD, workers=1, obs=obs)
    assert campaign.passed
    names = [record.name for record in obs.tracer.records]
    assert len(names) == 3
    assert all(name.startswith("job:") for name in names)
