"""Tests for the campaign executor: protocol, determinism, failure paths.

The multi-process tests carry the ``campaign`` marker so CI can schedule
them separately (they fork a worker pool); run just these with
``pytest -m campaign``.
"""

import json
import pickle
import threading
import time
from dataclasses import fields

import pytest

from repro.core import CONFIG_BNSD, run_cosim
from repro.core.summary import MismatchSummary, RunSummary, summary_to_dict
from repro.dut import XIANGSHAN_DEFAULT
from repro.obs import MetricRegistry
from repro.parallel import (
    CampaignExecutor,
    JobSpec,
    register_runner,
    runner_for,
)
from repro.workloads import build, fuzz_campaign

# ----------------------------------------------------------------------
# Test-only job kinds.  Registered at import time so fork()ed pool
# workers inherit them; attempt counters live in module globals, which
# works in both serial and pool modes because all attempts of one job
# run in the same process.
# ----------------------------------------------------------------------
_FLAKY_ATTEMPTS = {}


def _passing_summary() -> RunSummary:
    return RunSummary(passed=True, exit_code=0, cycles=10, instructions=5)


@register_runner("test-pass")
def _run_pass(params):
    return _passing_summary()


@register_runner("test-fail")
def _run_fail(params):
    return RunSummary(passed=False, exit_code=1, cycles=10, instructions=5)


@register_runner("test-hang")
def _run_hang(params):
    time.sleep(params.get("sleep", 60))
    return _passing_summary()


@register_runner("test-boom")
def _run_boom(params):
    raise ValueError("deliberate runner explosion")


@register_runner("test-flaky")
def _run_flaky(params):
    key = params["key"]
    _FLAKY_ATTEMPTS[key] = _FLAKY_ATTEMPTS.get(key, 0) + 1
    if _FLAKY_ATTEMPTS[key] < params["succeed_on"]:
        raise RuntimeError("not yet")
    return _passing_summary()


def _specs(kind, count, **params):
    return [JobSpec(kind=kind, label=f"{kind} {i}", params=dict(params))
            for i in range(count)]


# ----------------------------------------------------------------------
# Protocol
# ----------------------------------------------------------------------
class TestJobProtocol:
    def test_spec_and_result_pickle_roundtrip(self):
        spec = JobSpec(kind="fuzz", label="seed 7",
                       params={"seed": 7, "length": 40,
                               "dut": XIANGSHAN_DEFAULT,
                               "config": CONFIG_BNSD})
        assert pickle.loads(pickle.dumps(spec)) == spec
        campaign = CampaignExecutor(workers=1).run([spec])
        job = campaign.jobs[0]
        assert pickle.loads(pickle.dumps(job)) == job

    def test_summary_to_dict_is_json_safe_and_complete(self):
        registry = MetricRegistry()
        registry.counter("run.cycles").inc(10)
        summary = RunSummary(
            passed=False, exit_code=1, cycles=10, instructions=5,
            mismatch=MismatchSummary(
                core_id=0, slot=1, event_type="InstrCommit",
                field_name="pc", expected="0x80000000",
                actual="0x80000004", component="rob", cycle=42,
                description="pc mismatch at cycle 42"),
            metrics=registry.snapshot())
        doc = summary_to_dict(summary)
        assert json.loads(json.dumps(doc)) == doc
        assert set(doc) == {f.name for f in fields(RunSummary)}
        assert doc["mismatch"]["cycle"] == 42
        assert doc["metrics"] == summary.metrics.to_dicts()

    def test_run_summary_matches_run_result(self):
        workload = build("microbench")
        result = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD, workload.image,
                           max_cycles=workload.max_cycles)
        summary = result.summarize()
        assert summary.passed == result.passed
        assert summary.cycles == result.cycles
        assert summary.instructions == result.instructions
        assert summary.counters == result.stats.counters
        assert summary.invokes_per_cycle == pytest.approx(
            result.stats.invokes_per_cycle)
        # The summary reproduces the modeled breakdown exactly.
        from repro.comm import PALLADIUM
        gates = XIANGSHAN_DEFAULT.gates_millions
        assert (summary.breakdown(PALLADIUM, gates, True).total_us
                == result.breakdown(PALLADIUM, gates, True).total_us)
        assert pickle.loads(pickle.dumps(summary)) == summary

    def test_mismatch_summary_is_plain_and_picklable(self):
        from repro.core import CoSimulation
        from repro.dut import fault_by_name
        workload = build("microbench")
        cosim = CoSimulation(XIANGSHAN_DEFAULT, CONFIG_BNSD, workload.image)
        fault_by_name("store_queue_mismatch").install(
            cosim.dut.cores[0], 300)
        result = cosim.run(max_cycles=workload.max_cycles)
        assert result.mismatch is not None
        summary = result.summarize()
        assert summary.mismatch.event_type
        assert summary.mismatch.description == result.mismatch.describe()
        assert summary.debug_report_text == result.debug_report.render()
        assert pickle.loads(pickle.dumps(summary.mismatch)) == \
            summary.mismatch

    def test_unknown_kind_raises(self):
        with pytest.raises(KeyError, match="unknown job kind"):
            runner_for("no-such-kind")


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
@pytest.mark.campaign
class TestDeterminism:
    def test_fuzz_campaign_byte_identical_across_worker_counts(self):
        seeds = range(8)
        serial = fuzz_campaign(seeds, length=40, workers=1)
        parallel = fuzz_campaign(seeds, length=40, workers=4)
        assert serial.render() == parallel.render()
        # Not just the rendering: the full summaries agree value-for-value.
        assert [job.summary for job in serial.jobs] == \
            [job.summary for job in parallel.jobs]
        assert serial.aggregate_counters() == parallel.aggregate_counters()

    def test_on_result_fires_in_submission_order(self):
        seen = []
        executor = CampaignExecutor(workers=4)
        executor.run(_specs("test-pass", 8),
                     on_result=lambda job: seen.append(job.index))
        assert seen == list(range(8))

    def test_on_result_order_survives_staggered_completion(self):
        """The hard case for callback ordering: the *first* submitted
        job finishes last (its sleep dwarfs the others), so a
        completion-order implementation would fire callbacks 1..5
        before 0.  The consumer must still fold in submission order."""
        specs = [JobSpec(kind="test-hang", label=f"job {i}",
                         params={"sleep": 0.4 if i == 0 else 0.01})
                 for i in range(6)]
        seen = []
        campaign = CampaignExecutor(workers=4).run(
            specs, on_result=lambda job: seen.append(job.index))
        assert seen == list(range(6))
        assert campaign.passed

    def test_on_result_sees_results_before_aggregation(self):
        """Each callback's JobResult is final (summary attached) and the
        callback list equals the aggregated campaign.jobs list."""
        streamed = []
        campaign = CampaignExecutor(workers=4).run(
            _specs("test-pass", 5), on_result=streamed.append)
        assert streamed == campaign.jobs
        assert all(job.summary is not None for job in streamed)

    def test_render_has_no_wallclock(self):
        campaign = CampaignExecutor(workers=1).run(_specs("test-pass", 2))
        rendered = campaign.render()
        assert "jobs/s" not in rendered
        assert "aggregate: 2/2 passed" in rendered
        # Timing lives in the separate rollup instead.
        assert "jobs/s" in campaign.stats.rollup()


# ----------------------------------------------------------------------
# Timeout / retry / error paths
# ----------------------------------------------------------------------
class TestFailurePaths:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_hanging_job_times_out_and_retries(self, workers):
        if workers > 1:
            pytest.importorskip("multiprocessing")
        executor = CampaignExecutor(workers=workers, job_timeout=0.2,
                                    retries=1)
        campaign = executor.run(_specs("test-hang", 1, sleep=60))
        (job,) = campaign.jobs
        assert not job.ok
        assert job.timed_out
        assert job.attempts == 2
        assert campaign.stats.jobs_broken == 1
        assert campaign.stats.jobs_timed_out == 1
        assert campaign.stats.retries_used == 1
        assert "TIMEOUT" in campaign.render()

    def test_exception_captured_with_traceback(self):
        campaign = CampaignExecutor(workers=1, retries=0).run(
            _specs("test-boom", 1))
        (job,) = campaign.jobs
        assert not job.ok and not job.timed_out
        assert "deliberate runner explosion" in job.error
        assert job.attempts == 1

    def test_retry_recovers_flaky_job(self):
        _FLAKY_ATTEMPTS.clear()
        executor = CampaignExecutor(workers=1, retries=2)
        campaign = executor.run(
            [JobSpec(kind="test-flaky", label="flaky",
                     params={"key": "a", "succeed_on": 3})])
        (job,) = campaign.jobs
        assert job.ok and job.attempts == 3
        assert campaign.stats.retries_used == 2
        assert campaign.stats.jobs_ok == 1

    def test_mismatch_is_not_retried(self):
        executor = CampaignExecutor(workers=1, retries=3)
        campaign = executor.run(_specs("test-fail", 1))
        (job,) = campaign.jobs
        assert job.ok and not job.passed
        assert job.attempts == 1  # a failing run is a completed job
        assert campaign.stats.jobs_failed == 1


# ----------------------------------------------------------------------
# First-failure short-circuit
# ----------------------------------------------------------------------
@pytest.mark.campaign
class TestShortCircuit:
    def _mixed_specs(self):
        specs = _specs("test-pass", 6)
        specs[2] = JobSpec(kind="test-fail", label="test-fail 2")
        return specs

    @pytest.mark.parametrize("workers", [1, 4])
    def test_stops_at_first_failure_in_submission_order(self, workers):
        executor = CampaignExecutor(workers=workers, short_circuit=True)
        campaign = executor.run(self._mixed_specs())
        assert len(campaign.jobs) == 3
        assert [job.passed for job in campaign.jobs] == [True, True, False]
        assert campaign.stats.short_circuited

    def test_serial_and_parallel_reports_identical(self):
        serial = CampaignExecutor(workers=1, short_circuit=True).run(
            self._mixed_specs())
        parallel = CampaignExecutor(workers=4, short_circuit=True).run(
            self._mixed_specs())
        assert serial.render() == parallel.render()

    def test_no_short_circuit_runs_everything(self):
        campaign = CampaignExecutor(workers=1).run(self._mixed_specs())
        assert len(campaign.jobs) == 6
        assert not campaign.stats.short_circuited


# ----------------------------------------------------------------------
# Stats rollup
# ----------------------------------------------------------------------
class TestStatsRollup:
    def test_rollup_counts_and_throughput(self):
        campaign = CampaignExecutor(workers=1).run(_specs("test-pass", 5))
        stats = campaign.stats
        assert stats.jobs_total == stats.jobs_ok == 5
        assert stats.wall_time_s > 0
        assert stats.jobs_per_sec > 0
        assert 0.0 <= stats.worker_utilization <= 1.0
        assert "5 jobs on 1 worker(s)" in stats.rollup()

    def test_aggregate_counters_sum_runs(self):
        campaign = fuzz_campaign(range(2), length=30, workers=1)
        total = campaign.aggregate_counters()
        per_job = [job.summary.counters for job in campaign.jobs]
        assert total.cycles == sum(c.cycles for c in per_job)
        assert total.bytes_sent == sum(c.bytes_sent for c in per_job)

    def test_workers_default_to_cpu_count(self):
        import os
        executor = CampaignExecutor()
        assert executor.workers == (os.cpu_count() or 1)


def test_attempt_with_timeout_falls_back_off_main_thread():
    """SIGALRM is only armed on the main thread; elsewhere the attempt
    runs unbounded instead of crashing."""
    from repro.parallel.executor import _attempt_with_timeout

    outcome = {}

    def worker():
        outcome["value"] = _attempt_with_timeout(
            lambda params: params["x"] + 1, {"x": 41}, timeout=0.001)

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join()
    assert outcome["value"] == 42


def test_attempt_with_timeout_fires_on_main_thread():
    from repro.parallel.executor import JobTimeout, _attempt_with_timeout

    with pytest.raises(JobTimeout):
        _attempt_with_timeout(lambda params: time.sleep(5), {},
                              timeout=0.05)
