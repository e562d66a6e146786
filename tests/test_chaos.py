"""Process-chaos tests: the supervised executor under real failure.

Every test here injects genuine process-level failure — SIGKILLed
workers, hung workers with their watchdog defeated, simulated OOM —
through the deterministic :mod:`repro.toolkit.chaos` harness, and pins
the recovered-or-reported contract:

* transient faults recover with reports **value-identical** to a
  fault-free run (the supervisor is invisible when it wins),
* permanent faults end **explicitly reported** — quarantined by the
  executor with a CRASH line in the campaign report, or
  ``SliceExecutionError`` from the slicer — never silently lost, never
  misattributed to a DUT mismatch.

The chaos matrix at the bottom covers {kill, hang, poison} x
{fuzz campaign, sliced run}.

All tests fork worker pools and kill them on purpose, so they carry the
``chaos`` marker; CI runs them in a separate, non-gating lane
(``pytest -m chaos``).
"""

import threading
import time

import pytest

from repro.cli import render_fuzz
from repro.core import CONFIG_BNSD
from repro.core.summary import RunSummary
from repro.dut import NUTSHELL, XIANGSHAN_DEFAULT
from repro.parallel import (
    CampaignExecutor,
    JobSpec,
    SliceExecutionError,
    SupervisionPolicy,
    register_runner,
    sliced_run,
)
from repro.parallel.executor import JobTimeout, _attempt_with_timeout
from repro.toolkit import POISON, ChaosExecutor, ChaosFault, ChaosPlan
from repro.toolkit.chaos import chaos_specs
from repro.workloads import build
from repro.workloads.fuzz import fuzz_specs

pytestmark = [pytest.mark.chaos, pytest.mark.campaign]


# ----------------------------------------------------------------------
# Tiny deterministic job kinds (registered at import time so fork()ed
# pool workers inherit them).
# ----------------------------------------------------------------------
@register_runner("chaos-base")
def _run_base(params):
    return RunSummary(passed=True, exit_code=0, cycles=10,
                      instructions=5 + params.get("index", 0))


def _base_specs(count):
    return [JobSpec(kind="chaos-base", label=f"job {i}",
                    params={"index": i}) for i in range(count)]


#: Fast supervision for tests: tiny backoff, short parent grace.
def _policy(**overrides):
    defaults = dict(backoff_base_s=0.01, backoff_cap_s=0.05,
                    parent_grace_s=1.0)
    defaults.update(overrides)
    return SupervisionPolicy(**defaults)


def _summaries(campaign):
    return [job.summary for job in campaign.jobs]


# ----------------------------------------------------------------------
# Plan mechanics (no pool involved)
# ----------------------------------------------------------------------
class TestChaosPlan:
    def test_seeded_plan_is_reproducible(self, tmp_path):
        one = ChaosPlan.seeded(7, jobs=50, rate=0.3,
                               scratch_dir=str(tmp_path))
        two = ChaosPlan.seeded(7, jobs=50, rate=0.3,
                               scratch_dir=str(tmp_path))
        assert one.faults == two.faults
        assert one.faults  # 50 jobs at 30%: statistically certain
        different = ChaosPlan.seeded(8, jobs=50, rate=0.3,
                                     scratch_dir=str(tmp_path))
        assert different.faults != one.faults

    def test_fault_validation_is_loud(self):
        with pytest.raises(ValueError):
            ChaosFault(kind="meteor")
        with pytest.raises(ValueError):
            ChaosFault(kind="kill", times=0)

    def test_wrap_preserves_labels_order_and_clean_specs(self, tmp_path):
        plan = ChaosPlan({1: ChaosFault("oom")},
                         scratch_dir=str(tmp_path))
        specs = _base_specs(3)
        wrapped = list(chaos_specs(specs, plan))
        assert [spec.label for spec in wrapped] == \
            [spec.label for spec in specs]
        assert wrapped[0] is specs[0]  # unfaulted specs pass through
        assert wrapped[2] is specs[2]
        assert wrapped[1].kind == "chaos"
        assert wrapped[1].params["inner_kind"] == "chaos-base"

    def test_reset_forgets_attempt_counters(self, tmp_path):
        plan = ChaosPlan({0: ChaosFault("oom")},
                         scratch_dir=str(tmp_path))
        with open(plan.token(0), "w") as handle:
            handle.write("3")
        plan.reset()
        import os
        assert not os.path.exists(plan.token(0))


# ----------------------------------------------------------------------
# Supervisor units: one failure mode at a time
# ----------------------------------------------------------------------
class TestKill:
    def test_transient_kill_recovers_value_identically(self, tmp_path):
        clean = CampaignExecutor(workers=2, retries=1,
                                 supervision=_policy())
        reference = clean.run(_base_specs(4))
        plan = ChaosPlan({1: ChaosFault("kill", times=1)},
                         scratch_dir=str(tmp_path))
        chaotic = ChaosExecutor(plan, workers=2, retries=1,
                                supervision=_policy())
        campaign = chaotic.run(_base_specs(4))
        assert all(job.ok for job in campaign.jobs)
        assert _summaries(campaign) == _summaries(reference)
        assert campaign.stats.pool_restarts >= 1
        assert campaign.stats.requeues >= 1
        assert campaign.stats.poison_quarantined == 0

    def test_poison_job_is_quarantined_and_reported(self, tmp_path):
        plan = ChaosPlan({2: ChaosFault("kill", times=POISON)},
                         scratch_dir=str(tmp_path))
        executor = ChaosExecutor(
            plan, workers=2, retries=1,
            supervision=_policy(poison_threshold=2))
        campaign = executor.run(_base_specs(4))
        poisoned = campaign.jobs[2]
        assert poisoned.verdict() == "CRASH"
        assert poisoned.quarantined and poisoned.crashed
        assert poisoned.attempts == 2
        assert "poison job" in poisoned.error
        assert campaign.quarantined == [poisoned]
        assert campaign.stats.poison_quarantined == 1
        assert campaign.stats.jobs_crashed == 1
        # the render names the quarantined job explicitly
        assert "quarantined: job 2 (broke the pool 2x)" \
            in campaign.render()

    def test_healthy_jobs_are_never_misattributed(self, tmp_path):
        """Satellite: a pool break must charge only the breaking job —
        every other job recovers ok, uncharged."""
        plan = ChaosPlan({0: ChaosFault("kill", times=POISON)},
                         scratch_dir=str(tmp_path))
        clean = CampaignExecutor(workers=2, retries=1,
                                 supervision=_policy())
        reference = clean.run(_base_specs(6))
        executor = ChaosExecutor(
            plan, workers=2, retries=1,
            supervision=_policy(poison_threshold=2))
        campaign = executor.run(_base_specs(6))
        survivors = [job for job in campaign.jobs if job.index != 0]
        assert all(job.ok and not job.crashed and not job.timed_out
                   for job in survivors)
        assert [job.summary for job in survivors] == \
            [job.summary for job in reference.jobs if job.index != 0]

    def test_supervision_rollup_line(self, tmp_path):
        plan = ChaosPlan({1: ChaosFault("kill", times=1)},
                         scratch_dir=str(tmp_path))
        executor = ChaosExecutor(plan, workers=2, retries=1,
                                 supervision=_policy())
        campaign = executor.run(_base_specs(3))
        rollup = campaign.stats.rollup()
        assert "supervision:" in rollup
        assert "pool restart(s)" in rollup


class TestOom:
    def test_oom_is_an_ordinary_error_no_pool_restart(self, tmp_path):
        """MemoryError in a runner is survivable in-process: the normal
        retry/ERROR path handles it and the pool must stay up."""
        plan = ChaosPlan({1: ChaosFault("oom", times=POISON)},
                         scratch_dir=str(tmp_path))
        executor = ChaosExecutor(plan, workers=2, retries=0,
                                 supervision=_policy())
        campaign = executor.run(_base_specs(3))
        assert campaign.jobs[1].verdict() == "ERROR"
        assert not campaign.jobs[1].crashed
        assert "MemoryError" in campaign.jobs[1].error
        assert campaign.stats.pool_restarts == 0
        assert campaign.jobs[0].ok and campaign.jobs[2].ok

    def test_transient_oom_recovers_via_worker_retry(self, tmp_path):
        plan = ChaosPlan({0: ChaosFault("oom", times=1)},
                         scratch_dir=str(tmp_path))
        executor = ChaosExecutor(plan, workers=2, retries=1,
                                 supervision=_policy())
        campaign = executor.run(_base_specs(2))
        assert all(job.ok for job in campaign.jobs)
        assert campaign.stats.pool_restarts == 0
        assert campaign.jobs[0].attempts == 2


class TestHang:
    def test_hung_worker_is_killed_and_job_retried(self, tmp_path):
        plan = ChaosPlan(
            {1: ChaosFault("hang", times=1, hang_s=30.0)},
            scratch_dir=str(tmp_path))
        executor = ChaosExecutor(
            plan, workers=2, job_timeout=0.5, retries=1,
            supervision=_policy(parent_grace_s=0.5))
        campaign = executor.run(_base_specs(3))
        assert all(job.ok for job in campaign.jobs)
        assert campaign.stats.pool_restarts >= 1

    def test_hang_exhaustion_is_timeout_not_crash(self, tmp_path):
        plan = ChaosPlan(
            {1: ChaosFault("hang", times=POISON, hang_s=30.0)},
            scratch_dir=str(tmp_path))
        executor = ChaosExecutor(
            plan, workers=2, job_timeout=0.25, retries=0,
            supervision=_policy(parent_grace_s=0.5))
        campaign = executor.run(_base_specs(3))
        hung = campaign.jobs[1]
        assert hung.verdict() == "TIMEOUT"
        assert hung.timed_out and not hung.crashed
        assert "parent-side budget" in hung.error
        assert campaign.jobs[0].ok and campaign.jobs[2].ok


class TestDeterminism:
    def test_backoff_is_seeded_and_reproducible(self, tmp_path):
        """Same plan, same policy seed: the supervision telemetry —
        including the jittered backoff total — is bit-identical across
        runs.  max_inflight_per_worker=0 forces a one-deep window so
        every pool break is unambiguous (deterministic backoff keys)."""
        policy = _policy(poison_threshold=2, max_inflight_per_worker=0)

        def run(tag):
            plan = ChaosPlan({1: ChaosFault("kill", times=POISON)},
                             scratch_dir=str(tmp_path / tag))
            executor = ChaosExecutor(plan, workers=2, retries=1,
                                     supervision=policy)
            return executor.run(_base_specs(3))

        one, two = run("one"), run("two")
        assert one.stats.backoff_s == two.stats.backoff_s > 0
        assert one.stats.requeues == two.stats.requeues
        assert one.stats.pool_restarts == two.stats.pool_restarts
        assert [j.verdict() for j in one.jobs] == \
            [j.verdict() for j in two.jobs]

    def test_inflight_window_is_bounded(self):
        executor = CampaignExecutor(
            workers=2, supervision=_policy(max_inflight_per_worker=2))
        campaign = executor.run(_base_specs(12))
        assert 1 <= campaign.stats.max_inflight <= 4


# ----------------------------------------------------------------------
# Watchdog fallback (satellite: timeouts without SIGALRM)
# ----------------------------------------------------------------------
class TestWatchdogFallback:
    """Off the main thread SIGALRM is unusable; the watchdog-thread
    fallback must enforce the same budget."""

    def _run_in_thread(self, runner, params, timeout):
        box = {}

        def target():
            try:
                box["result"] = _attempt_with_timeout(runner, params,
                                                      timeout)
            except BaseException as exc:  # noqa: E722 - captured below
                box["error"] = exc

        thread = threading.Thread(target=target)
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        return box

    def test_watchdog_raises_jobtimeout_off_main_thread(self):
        box = self._run_in_thread(
            lambda params: time.sleep(10), {}, timeout=0.2)
        assert isinstance(box.get("error"), JobTimeout)

    def test_watchdog_passes_results_through(self):
        box = self._run_in_thread(
            lambda params: params["x"] + 1, {"x": 41}, timeout=5.0)
        assert box.get("result") == 42


# ----------------------------------------------------------------------
# The chaos matrix: {kill, hang, poison} x {fuzz, sliced run}
# ----------------------------------------------------------------------
FUZZ_SEEDS = range(4)
FUZZ_LEN = 20


def _fuzz_reference():
    executor = CampaignExecutor(workers=2, retries=1,
                                supervision=_policy())
    campaign = executor.run(fuzz_specs(FUZZ_SEEDS, length=FUZZ_LEN,
                                       dut_config=XIANGSHAN_DEFAULT,
                                       diff_config=CONFIG_BNSD))
    return render_fuzz(campaign, 0, len(FUZZ_SEEDS))


def _fuzz_under_chaos(plan, **executor_kwargs):
    executor_kwargs.setdefault("workers", 2)
    executor_kwargs.setdefault("retries", 1)
    executor_kwargs.setdefault("supervision", _policy())
    executor = ChaosExecutor(plan, **executor_kwargs)
    campaign = executor.run(fuzz_specs(FUZZ_SEEDS, length=FUZZ_LEN,
                                       dut_config=XIANGSHAN_DEFAULT,
                                       diff_config=CONFIG_BNSD))
    return campaign, render_fuzz(campaign, 0, len(FUZZ_SEEDS))


class TestMatrixFuzz:
    def test_kill_report_byte_identical(self, tmp_path):
        reference = _fuzz_reference()
        plan = ChaosPlan({1: ChaosFault("kill", times=1)},
                         scratch_dir=str(tmp_path))
        campaign, report = _fuzz_under_chaos(plan)
        assert report == reference
        assert campaign.stats.pool_restarts >= 1

    def test_hang_report_byte_identical(self, tmp_path):
        reference = _fuzz_reference()
        plan = ChaosPlan(
            {2: ChaosFault("hang", times=1, hang_s=30.0)},
            scratch_dir=str(tmp_path))
        campaign, report = _fuzz_under_chaos(
            plan, job_timeout=2.0,
            supervision=_policy(parent_grace_s=1.0))
        assert report == reference
        assert campaign.stats.pool_restarts >= 1

    def test_poison_quarantined_survivors_identical(self, tmp_path):
        reference = _fuzz_reference()
        plan = ChaosPlan({1: ChaosFault("kill", times=POISON)},
                         scratch_dir=str(tmp_path))
        campaign, report = _fuzz_under_chaos(
            plan, supervision=_policy(poison_threshold=2))
        ref_lines = reference.splitlines()
        got_lines = report.splitlines()
        # survivors' per-seed lines are value-identical
        assert got_lines[0] == ref_lines[0]
        assert "seed      1: CRASH" in got_lines[1]
        assert got_lines[3] == "seed      2: ok  (114 instr)"
        # and the failure is explicitly reported, never silent
        assert "3/4 passed" in report
        assert "1 poison job(s) quarantined: seed 1" in report
        assert len(campaign.jobs) == 4  # nothing lost


class TestMatrixSliced:
    WORKLOAD = build("memory_churn", array_kb=8, passes=1)
    MAX = 4500

    def _sliced(self, **kwargs):
        return sliced_run(NUTSHELL, CONFIG_BNSD, self.WORKLOAD.image,
                          max_cycles=self.MAX, slices=3, seed=2025,
                          uart_input=self.WORKLOAD.uart_input, **kwargs)

    def test_kill_stitches_byte_identically(self, tmp_path):
        reference = self._sliced(workers=2, retries=1,
                                 supervision=_policy())
        plan = ChaosPlan({1: ChaosFault("kill", times=1)},
                         scratch_dir=str(tmp_path))
        chaotic = self._sliced(workers=2, retries=1,
                               supervision=_policy(),
                               spec_wrapper=plan.wrap)
        assert chaotic.summary == reference.summary
        assert chaotic.stats.counters == reference.stats.counters
        assert chaotic.campaign.stats.pool_restarts >= 1

    def test_hang_stitches_byte_identically(self, tmp_path):
        reference = self._sliced(workers=2, retries=1,
                                 supervision=_policy())
        plan = ChaosPlan(
            {2: ChaosFault("hang", times=1, hang_s=30.0)},
            scratch_dir=str(tmp_path))
        chaotic = self._sliced(
            workers=2, retries=1, job_timeout=5.0,
            supervision=_policy(parent_grace_s=1.0),
            spec_wrapper=plan.wrap)
        assert chaotic.summary == reference.summary
        assert chaotic.stats.counters == reference.stats.counters

    def test_poison_slice_is_reported_not_lost(self, tmp_path):
        plan = ChaosPlan({0: ChaosFault("kill", times=POISON)},
                         scratch_dir=str(tmp_path))
        with pytest.raises(SliceExecutionError, match="poison job"):
            self._sliced(workers=2, retries=1,
                         supervision=_policy(poison_threshold=2),
                         spec_wrapper=plan.wrap)
