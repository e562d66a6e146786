"""The campaign executor: many independent co-simulations, all cores.

DiffTest-H hides per-run checking cost behind hardware/software
pipelining (NonBlock); this module applies the same shape one level up.
A *campaign* — hundreds of fuzz seeds, the Table 6 fault catalogue, a
workload x config matrix — is embarrassingly parallel across runs, so
:class:`CampaignExecutor` fans :class:`~repro.parallel.jobs.JobSpec`\\ s
out over a :class:`concurrent.futures.ProcessPoolExecutor` and folds the
:class:`~repro.parallel.jobs.JobResult`\\ s back **in submission order**.

Determinism guarantee
---------------------
Aggregation never depends on completion order: results are consumed
strictly in submission order, per-result callbacks fire in submission
order, and :meth:`CampaignResult.render` contains no wall-clock values.
A campaign run with ``workers=4`` therefore produces a byte-identical
aggregated report to ``workers=1`` — timing lives only in the separate
:class:`CampaignStats` rollup.

Failure handling
----------------
Each job gets a wall-clock ``job_timeout`` (enforced in the worker via
``SIGALRM`` where the platform and thread allow it, and via a watchdog
thread otherwise — see :func:`_attempt_with_timeout`) and up to
``retries`` extra attempts after a timeout or runner exception.  A run
that merely *fails verification* (mismatch, bad exit code) is a
completed job and is never retried.  With ``short_circuit=True`` the
campaign stops at the first failing job in submission order — later
jobs may already have executed in parallel mode, but their results are
discarded, so the report still matches serial execution.

Supervision
-----------
Pool mode is run by a supervisor loop (:class:`_PoolSupervisor`) that
keeps the campaign alive across *worker-process* failure, not just
runner exceptions:

* Submissions are bounded (``workers x max_inflight_per_worker``)
  instead of being enqueued all upfront, so a pool rebuild only ever has
  a bounded set of in-flight jobs to re-queue.
* A worker crash (segfault, OOM kill) breaks the whole
  ``ProcessPoolExecutor``; the supervisor rebuilds the pool and
  re-queues the in-flight jobs instead of misreporting them all as
  broken.  When exactly one job was in flight the crash is attributed to
  it (a *strike*); an ambiguous multi-job break puts the in-flight set
  on probation and re-runs the suspects one at a time until the culprit
  breaks a pool alone.
* A job whose strike count reaches
  :attr:`SupervisionPolicy.poison_threshold` is *quarantined*: it gets a
  synthesised ``crashed`` result, is listed in the report, and the rest
  of the campaign proceeds — one poison spec cannot wedge a 10k-job
  campaign.
* Re-queues are spaced by seeded exponential backoff with deterministic
  jitter, charged to ``CampaignStats.backoff_s``.
* A job that produces no result within the parent-side budget
  (``job_timeout x (retries+1) + parent_grace_s``) has its worker
  killed; the hang is charged to that job as a timeout attempt and the
  other in-flight jobs are re-queued uncharged.

On the fault-free path the supervisor degenerates to bounded submission
plus in-order folding, so reports stay byte-identical with the serial
mode (what it costs is ``parallel.executor.overhead_s`` on
``fuzz_campaign_w2`` in ``benchmarks/e2e``).

``workers=1`` runs every job in-process (no pool, no fork): the mode to
use under a debugger or when a worker-side crash needs a real traceback.
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set

from ..comm.loggp import CommCounters
from ..obs import MetricsSnapshot, ObsContext, record_supervision
from .jobs import JobResult, JobSpec, runner_for


class JobTimeout(Exception):
    """Raised inside a worker when a job attempt exceeds its budget."""


def _alarm(_signum, _frame):
    raise JobTimeout()


#: SIGALRM/setitimer only exist on POSIX — Windows' signal module has
#: neither, and some embedded Pythons strip setitimer.  Checked once at
#: import so every attempt takes the same, cheap branch.
_ALARM_CAPABLE = (hasattr(signal, "SIGALRM")
                  and hasattr(signal, "setitimer"))


def _async_raise(thread_ident: int, exc_type) -> None:
    """Best-effort: raise ``exc_type`` inside another Python thread.

    Fires between bytecodes only — a runner stuck inside a C call will
    not see it.  That is acceptable: the attempt is charged either way
    and the runner thread is a daemon, so it cannot block process exit.
    """
    try:
        import ctypes

        ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(thread_ident), ctypes.py_object(exc_type))
    except Exception:
        pass


def _attempt_with_watchdog(runner, params, timeout: float):
    """Timeout enforcement without SIGALRM: run the attempt in a daemon
    thread and give up on it after ``timeout`` seconds.

    This is the fallback for non-main-thread and non-POSIX hosts (an
    executor driven from a worker thread, Windows).  On expiry a
    :class:`JobTimeout` is injected into the runner thread so pure-Python
    runners unwind, and the attempt is charged as timed out regardless.
    """
    outcome: Dict[str, object] = {}

    def run_attempt():
        try:
            outcome["summary"] = runner(params)
        except BaseException as exc:  # re-raised in the caller below
            outcome["error"] = exc

    worker = threading.Thread(target=run_attempt, daemon=True,
                              name="job-attempt-watchdog")
    worker.start()
    worker.join(timeout)
    if worker.is_alive():
        _async_raise(worker.ident, JobTimeout)
        raise JobTimeout()
    if "error" in outcome:
        raise outcome["error"]  # type: ignore[misc]
    return outcome["summary"]


def _attempt_with_timeout(runner, params, timeout: Optional[float]):
    """Run one attempt, bounded by ``timeout`` seconds of wall clock.

    Prefers ``SIGALRM``, which requires a POSIX platform *and* the main
    thread of the process; pool workers and the serial in-process mode
    both qualify.  Anywhere else (an executor driven from a worker
    thread, non-POSIX platforms) the attempt runs under a watchdog thread
    instead — see :func:`_attempt_with_watchdog` — so a ``job_timeout``
    is enforced on every platform.  Only a ``timeout=None`` attempt runs
    unbounded.
    """
    if timeout is None:
        return runner(params)
    use_alarm = (_ALARM_CAPABLE
                 and threading.current_thread() is threading.main_thread())
    if not use_alarm:
        return _attempt_with_watchdog(runner, params, timeout)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return runner(params)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_job(spec: JobSpec, index: int, timeout: Optional[float],
                retries: int) -> JobResult:
    """Run one job (with retry-on-timeout/-error) and summarise it.

    This is the function shipped to worker processes; it must stay
    importable at module top level so it pickles by reference.
    """
    start = time.perf_counter()
    attempts = 0
    error: Optional[str] = None
    timed_out = False
    runner = runner_for(spec.kind)
    while attempts <= retries:
        attempts += 1
        try:
            summary = _attempt_with_timeout(runner, dict(spec.params),
                                            timeout)
        except JobTimeout:
            timed_out = True
            error = (f"attempt {attempts} timed out after {timeout:.3g}s")
            continue
        except Exception:
            timed_out = False
            error = traceback.format_exc(limit=10)
            continue
        return JobResult(index=index, label=spec.label, kind=spec.kind,
                         ok=True, summary=summary, attempts=attempts,
                         duration_s=time.perf_counter() - start)
    return JobResult(index=index, label=spec.label, kind=spec.kind,
                     ok=False, error=error, timed_out=timed_out,
                     attempts=attempts,
                     duration_s=time.perf_counter() - start)


@dataclass(frozen=True)
class SupervisionPolicy:
    """Knobs of the pool supervisor (all deterministic given a seed).

    The defaults favour production campaigns: three strikes before a job
    is declared poison, two in-flight jobs per worker (enough to hide
    spec-production latency without ballooning the re-queue set), and
    sub-second backoff so transient crashes cost little wall clock.
    """

    #: Pool breaks attributed to one job before it is quarantined.
    poison_threshold: int = 3
    #: In-flight submission bound, per pool worker.
    max_inflight_per_worker: int = 2
    #: First re-queue backoff; doubles per strike.  ``0`` disables
    #: backoff sleeps entirely (useful in tests).
    backoff_base_s: float = 0.05
    #: Ceiling on a single backoff sleep.
    backoff_cap_s: float = 1.0
    #: Seed of the deterministic backoff jitter.
    backoff_seed: int = 2025
    #: Parent-side safety margin (seconds) on top of the worker-side
    #: per-attempt budget, covering process start-up and result pickling.
    parent_grace_s: float = 30.0


@dataclass
class CampaignStats:
    """The timing/throughput rollup of one campaign (not deterministic)."""

    jobs_total: int = 0
    jobs_ok: int = 0
    jobs_failed: int = 0  # completed runs that failed verification
    jobs_broken: int = 0  # jobs that errored/timed out/crashed after retries
    jobs_timed_out: int = 0
    jobs_crashed: int = 0  # jobs charged with killing their worker process
    retries_used: int = 0
    short_circuited: bool = False
    workers: int = 1
    wall_time_s: float = 0.0
    busy_time_s: float = 0.0
    # -- supervision telemetry (pool mode only) ------------------------
    pool_restarts: int = 0
    requeues: int = 0
    poison_quarantined: int = 0
    backoff_s: float = 0.0
    max_inflight: int = 0

    @property
    def jobs_per_sec(self) -> float:
        return self.jobs_total / max(self.wall_time_s, 1e-9)

    @property
    def worker_utilization(self) -> float:
        """Fraction of worker-seconds spent inside jobs."""
        capacity = self.workers * max(self.wall_time_s, 1e-9)
        return min(self.busy_time_s / capacity, 1.0)

    def rollup(self) -> str:
        text = (
            f"campaign: {self.jobs_total} jobs on {self.workers} worker(s) "
            f"in {self.wall_time_s:.2f}s ({self.jobs_per_sec:.2f} jobs/s, "
            f"utilization {self.worker_utilization:.0%}); "
            f"{self.jobs_ok} ok, {self.jobs_failed} failed, "
            f"{self.jobs_broken} broken "
            f"({self.jobs_timed_out} timeouts, {self.jobs_crashed} crashes, "
            f"{self.retries_used} retries)"
        )
        if self.pool_restarts or self.requeues or self.poison_quarantined:
            text += (
                f"; supervision: {self.pool_restarts} pool restart(s), "
                f"{self.requeues} requeue(s), "
                f"{self.poison_quarantined} quarantined, "
                f"{self.backoff_s:.2f}s backoff"
            )
        return text


@dataclass
class CampaignResult:
    """All job results (submission order) plus the aggregate rollups."""

    jobs: List[JobResult] = field(default_factory=list)
    stats: CampaignStats = field(default_factory=CampaignStats)

    @property
    def passed(self) -> bool:
        return all(job.passed for job in self.jobs)

    @property
    def failures(self) -> List[JobResult]:
        return [job for job in self.jobs if not job.passed]

    @property
    def quarantined(self) -> List[JobResult]:
        """Jobs the supervisor declared poison (submission order)."""
        return [job for job in self.jobs if job.quarantined]

    def aggregate_counters(self) -> CommCounters:
        """Sum of the measured communication counters across all runs."""
        total = CommCounters()
        for job in self.jobs:
            if job.summary is not None:
                total.merge(job.summary.counters)
        return total

    def aggregate_metrics(self) -> MetricsSnapshot:
        """Merge per-job registry snapshots into one campaign snapshot.

        Jobs that ran without observability contribute nothing.  Merge
        rules are commutative and associative, so the aggregate is
        independent of worker count and completion order.
        """
        return MetricsSnapshot.merge_all(
            job.summary.metrics for job in self.jobs
            if job.summary is not None)

    def render(self) -> str:
        """The deterministic aggregated report.

        Contains only values derived from the runs themselves (never
        wall-clock time or worker count), in submission order — the
        byte-identical artifact the determinism guarantee covers.  The
        quarantine footer appears only when the supervisor actually
        quarantined jobs, so fault-free reports are unchanged.
        """
        lines = []
        for job in self.jobs:
            suffix = ""
            if job.summary is not None:
                suffix = (f"  cycles={job.summary.cycles}"
                          f" instr={job.summary.instructions}")
                if job.summary.mismatch is not None:
                    suffix += f"\n    {job.summary.mismatch.describe()}"
            elif job.error is not None:
                suffix = f"  [{job.error.strip().splitlines()[-1]}]"
            lines.append(f"{job.label:24s} {job.verdict():7s}{suffix}")
        counters = self.aggregate_counters()
        ok = sum(1 for job in self.jobs if job.passed)
        lines.append(
            f"aggregate: {ok}/{len(self.jobs)} passed  "
            f"cycles={counters.cycles} instr={counters.instructions} "
            f"invokes={counters.invokes} bytes={counters.bytes_sent} "
            f"events={counters.sw_events_checked}"
        )
        quarantined = self.quarantined
        if quarantined:
            lines.append(
                "quarantined: "
                + ", ".join(f"{job.label} (broke the pool {job.attempts}x)"
                            for job in quarantined)
            )
        return "\n".join(lines)


class CampaignExecutor:
    """Deterministic fan-out of campaign jobs over a process pool."""

    def __init__(self, workers: Optional[int] = None,
                 job_timeout: Optional[float] = None, retries: int = 1,
                 short_circuit: bool = False,
                 collect_metrics: bool = False,
                 obs: Optional[ObsContext] = None,
                 supervision: Optional[SupervisionPolicy] = None) -> None:
        self.workers = max(1, workers if workers is not None
                           else (os.cpu_count() or 1))
        self.job_timeout = job_timeout
        self.retries = max(0, retries)
        self.short_circuit = short_circuit
        #: Ask each runner to build its run under an enabled registry so
        #: job summaries carry mergeable MetricsSnapshots.
        self.collect_metrics = collect_metrics
        #: Parent-side observability: each consumed job is recorded as a
        #: ``job:<label>`` span (one trace lane per worker slot).
        self.obs = obs
        self.supervision = supervision if supervision is not None \
            else SupervisionPolicy()

    # ------------------------------------------------------------------
    def run(self, specs: Iterable[JobSpec],
            on_result: Optional[Callable[[JobResult], None]] = None
            ) -> CampaignResult:
        """Execute all jobs; fold results in submission order.

        ``on_result`` is invoked once per consumed job, in submission
        order regardless of worker count (this is what lets the CLI
        stream identical per-job lines in serial and parallel modes).

        ``specs`` may be a lazy iterable: specs are submitted as they
        are produced, so a producer that does real work per spec (the
        checkpoint slicer fast-forwarding to boundaries) overlaps with
        job execution in pool mode.
        """
        spec_iter: Iterable[JobSpec] = iter(specs)
        if self.collect_metrics:
            spec_iter = (
                JobSpec(kind=spec.kind, label=spec.label,
                        params={**spec.params, "collect_metrics": True})
                for spec in spec_iter
            )
        start = time.perf_counter()
        consume = self._wrap_on_result(on_result, start)
        supervisor: Optional[_PoolSupervisor] = None
        if self.workers == 1:
            jobs, submitted = self._run_serial(spec_iter, consume)
        else:
            supervisor = _PoolSupervisor(self)
            jobs, submitted = supervisor.run(spec_iter, consume)
        wall = time.perf_counter() - start
        stats = self._rollup(submitted, jobs, wall)
        if supervisor is not None:
            stats.pool_restarts = supervisor.pool_restarts
            stats.requeues = supervisor.requeues
            stats.poison_quarantined = supervisor.poison_quarantined
            stats.backoff_s = supervisor.backoff_s
            stats.max_inflight = supervisor.max_inflight
        if self.obs is not None and self.obs.enabled:
            record_supervision(self.obs.registry, stats)
        return CampaignResult(jobs=jobs, stats=stats)

    def _wrap_on_result(self, on_result, start: float):
        """Chain parent-side job-span recording in front of the user's
        callback.  Spans are placed at consumption time minus the job's
        measured duration — an approximation of the worker's schedule
        that keeps the trace meaningful without shipping clocks across
        the process boundary."""
        if self.obs is None or not self.obs.enabled:
            return on_result
        tracer = self.obs.tracer

        def consume(result):
            dur_us = result.duration_s * 1e6
            now_us = (time.perf_counter() - start) * 1e6
            tracer.add_complete(f"job:{result.label}",
                                ts_us=max(now_us - dur_us, 0.0),
                                dur_us=dur_us,
                                tid=result.index % self.workers)
            if on_result is not None:
                on_result(result)

        return consume

    # ------------------------------------------------------------------
    def _run_serial(self, specs, on_result):
        jobs: List[JobResult] = []
        submitted: List[JobSpec] = []
        spec_iter = iter(specs)
        for index, spec in enumerate(spec_iter):
            submitted.append(spec)
            result = execute_job(spec, index, self.job_timeout, self.retries)
            jobs.append(result)
            if on_result is not None:
                on_result(result)
            if self.short_circuit and not result.passed:
                # Peek: the rollup reports a short circuit only when
                # jobs were actually left unconsumed.
                leftover = next(spec_iter, None)
                if leftover is not None:
                    submitted.append(leftover)
                break
        return jobs, submitted

    # ------------------------------------------------------------------
    def _rollup(self, specs, jobs, wall: float) -> CampaignStats:
        stats = CampaignStats(workers=self.workers, wall_time_s=wall)
        stats.jobs_total = len(jobs)
        stats.short_circuited = (self.short_circuit
                                 and len(jobs) < len(specs))
        for job in jobs:
            stats.busy_time_s += job.duration_s
            stats.retries_used += job.attempts - 1
            if not job.ok:
                stats.jobs_broken += 1
                if job.timed_out:
                    stats.jobs_timed_out += 1
                if job.crashed:
                    stats.jobs_crashed += 1
            elif job.passed:
                stats.jobs_ok += 1
            else:
                stats.jobs_failed += 1
        return stats


class _PoolSupervisor:
    """One campaign's pool-mode execution under supervision.

    Owns the (rebuildable) process pool plus four index sets that
    partition the not-yet-consumed jobs:

    * ``pending`` — drawn from the spec iterator but not currently
      submitted (initial state after a re-queue),
    * ``inflight`` — submitted to the live pool, future outstanding,
    * ``done`` — results buffered until their submission-order turn,
    * quarantined/synthesised results go straight to ``done``.

    The consumption pointer walks ``done`` in submission order, so the
    folding contract of :meth:`CampaignExecutor.run` (callbacks in
    submission order, short-circuit semantics identical to serial
    mode) is preserved no matter how often the pool is rebuilt.
    """

    def __init__(self, executor: CampaignExecutor) -> None:
        self.executor = executor
        self.policy = executor.supervision
        self.workers = executor.workers
        self.parent_timeout: Optional[float] = None
        if executor.job_timeout is not None:
            self.parent_timeout = (
                executor.job_timeout * (executor.retries + 1)
                + self.policy.parent_grace_s)
        self.pool: Optional[ProcessPoolExecutor] = None
        self.submitted: List[JobSpec] = []
        self.pending: Set[int] = set()
        self.inflight: Dict[int, object] = {}
        self.done: Dict[int, JobResult] = {}
        self.strikes: Dict[int, int] = {}
        self.parent_attempts: Dict[int, int] = {}
        self.suspects: Set[int] = set()
        self.exhausted = False
        self.spec_iter = iter(())
        # telemetry folded into CampaignStats by the executor
        self.pool_restarts = 0
        self.requeues = 0
        self.poison_quarantined = 0
        self.backoff_s = 0.0
        self.max_inflight = 0

    # -- lifecycle -----------------------------------------------------
    def run(self, specs, on_result):
        self.spec_iter = iter(specs)
        jobs: List[JobResult] = []
        try:
            while True:
                # Fold every result whose submission-order turn has come.
                while len(jobs) in self.done:
                    result = self.done.pop(len(jobs))
                    jobs.append(result)
                    if on_result is not None:
                        on_result(result)
                    if self.executor.short_circuit and not result.passed:
                        self._note_leftover()
                        return jobs, self.submitted
                self._top_up()
                if not self.inflight:
                    if self.done:
                        continue
                    break
                self._wait_step()
        finally:
            self._close()
        return jobs, self.submitted

    # -- submission ----------------------------------------------------
    def _top_up(self) -> None:
        """Fill the in-flight window, lowest index first.

        During probation (non-empty suspect set after an ambiguous pool
        break) the window shrinks to one: suspects run alone so the next
        break is unambiguous and healthy jobs can never be charged.
        """
        while True:
            # Recomputed every pass: a submission-time pool break can
            # start probation mid-top-up, shrinking the window to one.
            bound = 1 if self.suspects else max(
                1, self.workers * self.policy.max_inflight_per_worker)
            if len(self.inflight) >= bound:
                break
            if self.pending:
                index = min(self.pending)
                self.pending.discard(index)
            else:
                if self.exhausted:
                    break
                try:
                    spec = next(self.spec_iter)
                except StopIteration:
                    self.exhausted = True
                    break
                self.submitted.append(spec)
                index = len(self.submitted) - 1
            self._submit(index)
        self.max_inflight = max(self.max_inflight, len(self.inflight))

    def _submit(self, index: int) -> None:
        if self.pool is None:
            self.pool = ProcessPoolExecutor(max_workers=self.workers)
        executor = self.executor
        try:
            future = self.pool.submit(
                execute_job, self.submitted[index], index,
                executor.job_timeout, executor.retries)
        except BrokenProcessPool:
            # The pool broke asynchronously — a worker died while the
            # parent was producing specs, before any future raised.
            # Route through the normal break path (it charges whoever
            # is in flight and rebuilds); the job we were about to
            # submit never ran, so it goes back to pending uncharged.
            self.pending.add(index)
            self._on_pool_break()
            return
        self.inflight[index] = future

    def _note_leftover(self) -> None:
        """Make ``submitted`` longer than the consumed prefix when work
        was actually left behind, so the short-circuit rollup matches
        serial mode's peek semantics."""
        if self.pending or self.inflight or self.done:
            return
        if not self.exhausted:
            try:
                self.submitted.append(next(self.spec_iter))
            except StopIteration:
                self.exhausted = True

    # -- waiting and failure handling ----------------------------------
    def _wait_step(self) -> None:
        index = min(self.inflight)
        future = self.inflight[index]
        try:
            result = future.result(timeout=self.parent_timeout)
        except FuturesTimeout:
            self._on_parent_timeout(index)
        except BrokenProcessPool:
            self._on_pool_break()
        except Exception:
            # The pool is intact but the result could not be produced
            # in-process (e.g. the summary failed to unpickle): charge
            # the job, keep the pool.
            spec = self.submitted[index]
            del self.inflight[index]
            self.suspects.discard(index)
            self.done[index] = JobResult(
                index=index, label=spec.label, kind=spec.kind,
                ok=False, error=traceback.format_exc(limit=5),
                attempts=1)
        else:
            del self.inflight[index]
            self.suspects.discard(index)
            self.done[index] = result

    def _on_parent_timeout(self, index: int) -> None:
        """The lowest in-flight job produced no result within the
        parent-side budget: its worker is hung (or the worker-side alarm
        was defeated).  Kill the pool, charge the hang to this job, and
        re-queue the other in-flight jobs uncharged."""
        attempts = self.parent_attempts.get(index, 0) + 1
        self.parent_attempts[index] = attempts
        requeue = sorted(self.inflight)
        self.inflight.clear()
        self._kill_pool()
        self.pool_restarts += 1
        for other in requeue:
            if other != index:
                self.pending.add(other)
                self.requeues += 1
        if attempts > self.executor.retries:
            spec = self.submitted[index]
            self.done[index] = JobResult(
                index=index, label=spec.label, kind=spec.kind,
                ok=False, timed_out=True, attempts=attempts,
                error=(f"job hung: no result within the parent-side "
                       f"budget of {self.parent_timeout:.3g}s "
                       f"(worker killed)"))
        else:
            self.pending.add(index)
            self.requeues += 1
            self._backoff(index, attempts)

    def _on_pool_break(self) -> None:
        """A worker died hard enough to break the pool.  Re-queue every
        in-flight job; charge a strike only when the break is
        unambiguous (exactly one job in flight), otherwise put the
        in-flight set on probation."""
        broken = sorted(self.inflight)
        self.inflight.clear()
        self._kill_pool()
        self.pool_restarts += 1
        for index in broken:
            self.pending.add(index)
            self.requeues += 1
        if len(broken) == 1:
            index = broken[0]
            strikes = self.strikes.get(index, 0) + 1
            self.strikes[index] = strikes
            if strikes >= self.policy.poison_threshold:
                self._quarantine(index, strikes)
                return
            self.suspects.add(index)
            self._backoff(index, strikes)
        else:
            self.suspects.update(broken)
            self._backoff(-1, self.pool_restarts)

    def _quarantine(self, index: int, strikes: int) -> None:
        spec = self.submitted[index]
        self.pending.discard(index)
        self.suspects.discard(index)
        self.poison_quarantined += 1
        self.done[index] = JobResult(
            index=index, label=spec.label, kind=spec.kind,
            ok=False, crashed=True, quarantined=True, attempts=strikes,
            error=(f"poison job: broke the worker pool {strikes} time(s) "
                   f"(threshold {self.policy.poison_threshold}); "
                   f"quarantined"))

    def _backoff(self, key: int, attempt: int) -> None:
        """Seeded exponential backoff with deterministic jitter.

        The jitter RNG is derived per ``(seed, key, attempt)``, so the
        total ``backoff_s`` charged to the stats is reproducible for a
        given policy seed regardless of completion order.
        """
        base = self.policy.backoff_base_s
        if base <= 0:
            return
        delay = min(self.policy.backoff_cap_s,
                    base * (2.0 ** max(0, attempt - 1)))
        rng = random.Random(f"{self.policy.backoff_seed}:{key}:{attempt}")
        delay *= 0.5 + rng.random()  # jitter in [0.5x, 1.5x)
        self.backoff_s += delay
        time.sleep(delay)

    # -- pool plumbing -------------------------------------------------
    def _kill_pool(self) -> None:
        """Tear the pool down without waiting on possibly-hung workers."""
        pool, self.pool = self.pool, None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:
                pass
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def _close(self) -> None:
        if self.pool is None:
            return
        for future in self.inflight.values():
            try:
                future.cancel()
            except Exception:
                pass
        self.pool.shutdown(wait=True, cancel_futures=True)
        self.pool = None
