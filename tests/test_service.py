"""Tests for the campaign service: fingerprints, store, scheduler,
protocol.

The asyncio tests drive real event loops via ``asyncio.run`` (no
pytest-asyncio dependency).  Tests that execute real campaigns use tiny
fuzz submissions so they stay fast; scheduler-mechanics tests (cancel,
shutdown re-queue) substitute blocking stub executors through the
``executor_factory`` seam instead of burning simulation time.
"""

import asyncio
import threading
import time
from dataclasses import replace

import pytest

from repro.cli import main as cli_main
from repro.core import CONFIG_B, CONFIG_BNSD
from repro.core.summary import (
    MismatchSummary,
    RunSummary,
    summary_from_dict,
    summary_to_dict,
)
from repro.dut import XIANGSHAN_DEFAULT
from repro.obs import MetricsSnapshot
from repro.parallel import CampaignResult, CampaignStats, JobResult
from repro.service import (
    CampaignService,
    InProcessClient,
    RateLimited,
    ServiceClient,
    ServiceError,
    ServiceServer,
    ServiceStore,
    TokenBucket,
    build_submission,
    canonical_document,
    config_fingerprint,
)

pytestmark = pytest.mark.service


# ----------------------------------------------------------------------
# Canonical fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_param_order_independent(self):
        forward = config_fingerprint(XIANGSHAN_DEFAULT, CONFIG_BNSD,
                                     seeds=4, length=30, kind="fuzz")
        reordered = config_fingerprint(XIANGSHAN_DEFAULT, CONFIG_BNSD,
                                       kind="fuzz", length=30, seeds=4)
        assert forward == reordered

    def test_default_equal_configs_hash_identically(self):
        # A config rebuilt with every field value spelled out explicitly
        # must hash like the original that relied on defaults: the
        # fingerprint walks resolved values, not construction syntax.
        explicit = replace(CONFIG_BNSD)
        assert explicit is not CONFIG_BNSD
        assert (config_fingerprint(XIANGSHAN_DEFAULT, explicit)
                == config_fingerprint(XIANGSHAN_DEFAULT, CONFIG_BNSD))

    def test_submission_defaults_hash_identically(self):
        bare = build_submission("fuzz", {})
        spelled = build_submission("fuzz", {
            "seeds": 10, "start": 0, "length": 100, "fail_fast": False,
            "dut": "xiangshan", "config": "EBINSD"})
        assert bare.fingerprint == spelled.fingerprint
        assert bare.params == spelled.params

    def test_different_configs_differ(self):
        assert (config_fingerprint(XIANGSHAN_DEFAULT, CONFIG_BNSD)
                != config_fingerprint(XIANGSHAN_DEFAULT, CONFIG_B))
        assert (config_fingerprint(XIANGSHAN_DEFAULT, CONFIG_BNSD,
                                   seeds=1)
                != config_fingerprint(XIANGSHAN_DEFAULT, CONFIG_BNSD,
                                      seeds=2))

    def test_canonical_document_tags_types_and_bytes(self):
        doc = canonical_document(CONFIG_BNSD)
        assert doc["__type__"] == type(CONFIG_BNSD).__name__
        assert canonical_document(b"\x01\xff") == {"__bytes__": "01ff"}
        # dict keys are sorted, so insertion order cannot leak in
        assert (list(canonical_document({"b": 1, "a": 2}))
                == ["a", "b"])

    def test_unfingerprintable_value_is_loud(self):
        with pytest.raises(TypeError):
            canonical_document(object())


# ----------------------------------------------------------------------
# Submission catalogue
# ----------------------------------------------------------------------
class TestSubmissions:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown submission kind"):
            build_submission("frobnicate", {})

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="unknown fuzz parameter"):
            build_submission("fuzz", {"bogus": 1})

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown dut"):
            build_submission("fuzz", {"dut": "cray-1"})
        with pytest.raises(ValueError, match="unknown config"):
            build_submission("ladder", {"configs": ["Z", "WAT"]})
        with pytest.raises(ValueError, match="unknown workload"):
            build_submission("fault", {"workload": "solitaire"})

    def test_fault_selection_expands_all(self):
        submission = build_submission("fault", {})
        assert len(submission.params["faults"]) > 1
        # the expanded list is part of the canonical params, so "all"
        # and the explicit list fingerprint identically
        explicit = build_submission(
            "fault", {"faults": submission.params["faults"]})
        assert explicit.fingerprint == submission.fingerprint

    def test_specs_round_trip_from_stored_params(self):
        submission = build_submission("fuzz", {"seeds": 3, "length": 25})
        rebuilt = build_submission(submission.kind, submission.params)
        assert rebuilt.fingerprint == submission.fingerprint
        assert ([spec.label for spec in rebuilt.specs()]
                == [spec.label for spec in submission.specs()])


# ----------------------------------------------------------------------
# Store: durability, dedup, round-trip, crash recovery
# ----------------------------------------------------------------------
def _summary(passed=True, with_mismatch=False, with_metrics=False):
    mismatch = None
    if with_mismatch:
        mismatch = MismatchSummary(
            core_id=0, slot=1, event_type="InstrCommit",
            field_name="pc", expected="0x80000000", actual="0x80000004",
            component="rob", cycle=42,
            description="pc mismatch at cycle 42")
    metrics = None
    if with_metrics:
        metrics = MetricsSnapshot.from_dicts([
            {"name": "run.cycles", "kind": "counter", "value": 10},
            {"name": "comm.bytes_sent", "kind": "counter", "value": 640},
        ])
    return RunSummary(passed=passed, exit_code=0 if passed else 1,
                      cycles=10, instructions=5, mismatch=mismatch,
                      metrics=metrics)


class TestServiceStore:
    def test_wal_pragmas_on_file_store(self, tmp_path):
        store = ServiceStore(str(tmp_path / "svc.db"))
        (journal,) = store.db.execute("PRAGMA journal_mode").fetchone()
        (sync,) = store.db.execute("PRAGMA synchronous").fetchone()
        store.close()
        assert journal == "wal"
        assert sync == 1  # NORMAL

    def test_context_manager_closes(self, tmp_path):
        with ServiceStore(str(tmp_path / "svc.db")) as store:
            store.submit(build_submission("fuzz", {}))
        with pytest.raises(Exception):
            store.db.execute("SELECT 1")
        store.close()  # idempotent

    def test_submissions_survive_restart(self, tmp_path):
        path = str(tmp_path / "svc.db")
        submission = build_submission("fuzz", {"seeds": 2})
        with ServiceStore(path) as store:
            campaign_id, cached = store.submit(submission)
            assert not cached
        with ServiceStore(path) as store:
            row = store.campaign(campaign_id)
            assert row.state == "queued"
            assert row.kind == "fuzz"
            assert row.submission().fingerprint == submission.fingerprint

    def test_dedup_coalesces_and_caches(self):
        with ServiceStore() as store:
            submission = build_submission("fuzz", {"seeds": 2})
            first, cached_first = store.submit(submission)
            second, cached_second = store.submit(submission)
            assert (first, cached_first) == (second, False)
            assert not cached_second  # queued, not finished: coalesced
            store.store_result(
                first, CampaignResult(jobs=[], stats=CampaignStats()),
                "report")
            third, cached_third = store.submit(submission)
            assert third == first
            assert cached_third

    def test_failed_submission_requeues(self):
        with ServiceStore() as store:
            submission = build_submission("fuzz", {"seeds": 2})
            campaign_id, _ = store.submit(submission)
            store.set_state(campaign_id, "failed", error="boom")
            requeued, cached = store.submit(submission)
            assert requeued == campaign_id and not cached
            row = store.campaign(campaign_id)
            assert row.state == "queued"
            assert row.error is None

    def test_result_round_trip_is_value_identical(self):
        jobs = [
            JobResult(index=0, label="seed 0", kind="fuzz", ok=True,
                      summary=_summary(with_metrics=True)),
            JobResult(index=1, label="seed 1", kind="fuzz", ok=True,
                      summary=_summary(passed=False, with_mismatch=True,
                                       with_metrics=True)),
            JobResult(index=2, label="seed 2", kind="fuzz", ok=False,
                      error="Traceback ...\nboom", timed_out=True,
                      attempts=2),
        ]
        campaign = CampaignResult(
            jobs=jobs, stats=CampaignStats(short_circuited=True))
        with ServiceStore() as store:
            campaign_id, _ = store.submit(
                build_submission("fuzz", {"seeds": 3}))
            store.store_result(campaign_id, campaign, "the report")
            loaded = store.load_result(campaign_id)
            assert store.report(campaign_id) == "the report"
            aggregate = store.aggregate_metrics(campaign_id)
        assert loaded.jobs == jobs  # frozen dataclasses: value equality
        assert loaded.stats.short_circuited
        assert loaded.stats.jobs_failed == 1
        assert loaded.stats.jobs_broken == 1
        # the aggregate snapshot folded both per-job snapshots
        assert aggregate.value("run.cycles") == 20
        assert aggregate.value("comm.bytes_sent") == 1280

    def test_summary_json_round_trip(self):
        summary = _summary(passed=False, with_mismatch=True,
                           with_metrics=True)
        assert summary_from_dict(summary_to_dict(summary)) == summary

    def test_summary_from_older_document_drops_retired_keys(self):
        """A store written before the link counters were removed still
        loads: their keys are ignored."""
        summary = _summary()
        doc = summary_to_dict(summary)
        doc["counters"]["link_retransmits"] = 0
        assert summary_from_dict(doc) == summary

    def test_recover_orphans_requeues_and_drops_partials(self):
        with ServiceStore() as store:
            campaign_id, _ = store.submit(
                build_submission("fuzz", {"seeds": 2}))
            store.set_state(campaign_id, "running")
            store.db.execute(
                "INSERT INTO jobs (campaign_id, idx, kind, label, ok) "
                "VALUES (?, 0, 'fuzz', 'partial', 1)", (campaign_id,))
            store.db.commit()
            assert store.recover_orphans() == [campaign_id]
            row = store.campaign(campaign_id)
            assert row.state == "queued"
            partials = store.db.execute(
                "SELECT COUNT(*) FROM jobs WHERE campaign_id = ?",
                (campaign_id,)).fetchone()[0]
            assert partials == 0
            assert store.recover_orphans() == []


# ----------------------------------------------------------------------
# Token bucket
# ----------------------------------------------------------------------
class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=1.0, burst=2, clock=clock)
        assert bucket.try_acquire()
        assert bucket.try_acquire()
        assert not bucket.try_acquire()
        clock.now = 0.5
        assert not bucket.try_acquire()
        clock.now = 1.5
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_capacity_caps_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3, clock=clock)
        clock.now = 100.0
        for _ in range(3):
            assert bucket.try_acquire()
        assert not bucket.try_acquire()


# ----------------------------------------------------------------------
# Scheduler: E2E dedup, progress, cancellation, shutdown, recovery
# ----------------------------------------------------------------------
class CountingFactory:
    """Builds real executors but counts calls and consumed jobs — the
    witness that a cache hit runs no executor work at all."""

    def __init__(self) -> None:
        self.calls = 0
        self.jobs_run = 0

    def __call__(self, submission):
        from repro.parallel import CampaignExecutor

        self.calls += 1
        factory = self

        class CountingExecutor(CampaignExecutor):
            def run(self, specs, on_result=None, should_stop=None):
                def counting(job):
                    factory.jobs_run += 1
                    if on_result is not None:
                        on_result(job)

                return super().run(specs, on_result=counting,
                                   should_stop=should_stop)

        return CountingExecutor(
            workers=1, short_circuit=submission.short_circuit,
            collect_metrics=True)


class BlockingExecutor:
    """A stub executor that parks until the service's cancel hook fires
    (exercises cancellation/shutdown without real simulation work)."""

    def __init__(self, started: threading.Event) -> None:
        self.started = started

    def run(self, specs, on_result=None, should_stop=None):
        self.started.set()
        while not should_stop():
            time.sleep(0.005)
        return CampaignResult(jobs=[],
                              stats=CampaignStats(stopped=True))


FUZZ_PARAMS = {"seeds": 2, "length": 30}


@pytest.mark.campaign
def test_duplicate_submission_is_cache_hit_and_matches_cli(tmp_path,
                                                           capsys):
    """The acceptance E2E: submit the same fuzz campaign twice through
    the in-process client — the first populates the store, the second is
    a cache hit (no executor jobs run), and both fetched reports are
    byte-identical to the one-shot CLI render."""
    factory = CountingFactory()

    async def scenario():
        with ServiceStore(str(tmp_path / "svc.db")) as store:
            service = CampaignService(store, executor_factory=factory)
            client = InProcessClient(service)
            await service.start()
            first = await client.submit("fuzz", FUZZ_PARAMS)
            assert first["cached"] is False
            assert await client.wait(first["campaign"]) == "done"
            jobs_after_first = factory.jobs_run
            second = await client.submit("fuzz", FUZZ_PARAMS)
            assert second["cached"] is True
            assert second["campaign"] == first["campaign"]
            one = await client.results(first["campaign"])
            two = await client.results(second["campaign"])
            await service.stop()
            return one["report"], two["report"], jobs_after_first

    report_one, report_two, jobs_after_first = asyncio.run(scenario())
    assert report_one == report_two
    assert factory.calls == 1  # the cache hit built no executor
    assert factory.jobs_run == jobs_after_first == 2

    assert cli_main(["fuzz", "--seeds", "2", "--length", "30",
                     "--workers", "1"]) == 0
    cli_stdout = capsys.readouterr().out
    assert cli_stdout == report_one + "\n"


@pytest.mark.campaign
def test_crash_recovery_requeues_and_matches_uninterrupted_run(tmp_path):
    """Kill a server mid-campaign (simulated by a row left ``running``
    with partial result rows), restart against the same store: the job
    is re-queued and its final stored report matches an uninterrupted
    run's."""
    params = {"seeds": 2, "length": 25}

    async def run_to_completion(path):
        with ServiceStore(path) as store:
            service = CampaignService(store, workers=1)
            client = InProcessClient(service)
            orphans = await service.start()
            reply = await client.submit("fuzz", params)
            assert await client.wait(reply["campaign"]) == "done"
            report = (await client.results(reply["campaign"]))["report"]
            await service.stop()
            return report, orphans

    expected, _ = asyncio.run(run_to_completion(str(tmp_path / "ref.db")))

    # A dead server's leftovers: state='running', one partial job row.
    crash_path = str(tmp_path / "crashed.db")
    with ServiceStore(crash_path) as store:
        campaign_id, _ = store.submit(build_submission("fuzz", params))
        store.set_state(campaign_id, "running")
        store.set_total_jobs(campaign_id, 2)
        store.db.execute(
            "INSERT INTO jobs (campaign_id, idx, kind, label, ok) "
            "VALUES (?, 0, 'fuzz', 'partial', 1)", (campaign_id,))
        store.db.commit()

    async def restart():
        with ServiceStore(crash_path) as store:
            service = CampaignService(store, workers=1)
            client = InProcessClient(service)
            orphans = await service.start()
            assert orphans == [campaign_id]
            assert await client.wait(campaign_id) == "done"
            report = (await client.results(campaign_id))["report"]
            await service.stop()
            return report

    assert asyncio.run(restart()) == expected


@pytest.mark.campaign
def test_progress_events_stream_in_order(tmp_path):
    async def scenario():
        with ServiceStore() as store:
            service = CampaignService(store, workers=1)
            client = InProcessClient(service)
            await service.start()
            reply = await client.submit("fuzz", FUZZ_PARAMS)
            events = []
            async for event in client.watch(reply["campaign"]):
                events.append(event)
            await service.stop()
            return events

    events = asyncio.run(scenario())
    progress = [e for e in events if e["event"] == "progress"]
    states = [e["state"] for e in events if e["event"] == "state"]
    assert states[-1] == "done"
    assert [e["jobs_done"] for e in progress] == \
        list(range(1, len(progress) + 1))
    assert all(e["jobs_total"] == 2 for e in progress)
    # the metrics view carries real counters from the runs
    assert progress[-1]["metrics"]["run.cycles"] > 0


def test_cancel_queued_campaign():
    async def scenario():
        with ServiceStore() as store:
            # no dispatcher started: the submission stays queued
            service = CampaignService(store)
            client = InProcessClient(service)
            reply = await client.submit("fuzz", FUZZ_PARAMS)
            cancelled = await client.cancel(reply["campaign"])
            assert cancelled["state"] == "cancelled"
            with pytest.raises(ServiceError, match="cancelled"):
                await client.results(reply["campaign"])

    asyncio.run(scenario())


def test_cancel_running_campaign_stops_cooperatively():
    started = threading.Event()

    async def scenario():
        with ServiceStore() as store:
            service = CampaignService(
                store, executor_factory=lambda s: BlockingExecutor(started))
            client = InProcessClient(service)
            await service.start()
            reply = await client.submit("fuzz", FUZZ_PARAMS)
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, started.wait, 5.0)
            await client.cancel(reply["campaign"])
            assert await client.wait(reply["campaign"]) == "cancelled"
            await service.stop()

    asyncio.run(scenario())


def test_shutdown_requeues_running_campaign():
    """A non-drain stop must put accepted work back on the queue, not
    discard it — the restart-resume guarantee."""
    started = threading.Event()

    async def scenario():
        with ServiceStore() as store:
            service = CampaignService(
                store, executor_factory=lambda s: BlockingExecutor(started))
            client = InProcessClient(service)
            await service.start()
            reply = await client.submit("fuzz", FUZZ_PARAMS)
            loop = asyncio.get_running_loop()
            assert await loop.run_in_executor(None, started.wait, 5.0)
            await service.stop(drain=False)
            return (await client.status(reply["campaign"]))["state"]

    assert asyncio.run(scenario()) == "queued"


@pytest.mark.campaign
def test_graceful_drain_finishes_queued_work():
    async def scenario():
        with ServiceStore() as store:
            service = CampaignService(store, workers=1)
            client = InProcessClient(service)
            await service.start()
            first = await client.submit("fuzz", {"seeds": 1,
                                                 "length": 20})
            second = await client.submit("fuzz", {"seeds": 1,
                                                  "length": 21})
            await service.stop(drain=True)
            return [(await client.status(r["campaign"]))["state"]
                    for r in (first, second)]

    assert asyncio.run(scenario()) == ["done", "done"]


def test_rate_limit_rejects_then_recovers():
    clock = FakeClock()

    async def scenario():
        with ServiceStore() as store:
            service = CampaignService(store, rate=1.0, burst=2,
                                      clock=clock)
            await service.submit("fuzz", {"seeds": 1}, client="c1")
            await service.submit("fuzz", {"seeds": 2}, client="c1")
            with pytest.raises(RateLimited):
                await service.submit("fuzz", {"seeds": 3}, client="c1")
            # other clients have their own budget
            await service.submit("fuzz", {"seeds": 3}, client="c2")
            clock.now = 1.0
            await service.submit("fuzz", {"seeds": 4}, client="c1")

    asyncio.run(scenario())


def test_failed_submission_surfaces_error():
    """A campaign whose stored params no longer build (service-side
    breakage) ends ``failed`` with the error recorded."""

    async def scenario():
        with ServiceStore() as store:
            campaign_id, _ = store.submit(
                build_submission("fuzz", {"seeds": 1, "length": 20}))
            # corrupt the stored params behind the service's back
            store.db.execute(
                "UPDATE campaigns SET params='{\"seeds\": \"wat\"}' "
                "WHERE id = ?", (campaign_id,))
            store.db.commit()
            service = CampaignService(store)
            client = InProcessClient(service)
            await service.start()
            assert await client.wait(campaign_id) == "failed"
            status = await client.status(campaign_id)
            await service.stop()
            return status

    status = asyncio.run(scenario())
    assert status["state"] == "failed"
    assert status["error"]


# ----------------------------------------------------------------------
# The NDJSON TCP protocol
# ----------------------------------------------------------------------
@pytest.mark.campaign
def test_tcp_protocol_round_trip(tmp_path):
    async def scenario():
        with ServiceStore(str(tmp_path / "svc.db")) as store:
            service = CampaignService(store, workers=1)
            server = ServiceServer(service, port=0)
            await server.start()
            host, port = server.address
            async with ServiceClient(host, port) as client:
                assert await client.ping()
                reply = await client.submit("fuzz", FUZZ_PARAMS)
                campaign_id = reply["campaign"]
                events = []
                async for event in client.watch(campaign_id):
                    events.append(event)
                assert events[-1]["state"] == "done"
                status = await client.status(campaign_id)
                assert status["state"] == "done"
                results = await client.results(campaign_id)
                cached = await client.submit("fuzz", FUZZ_PARAMS)
                assert cached["cached"] is True
                # protocol errors carry the validation message
                with pytest.raises(ServiceError,
                                   match="unknown submission kind"):
                    await client.submit("frobnicate", {})
                with pytest.raises(ServiceError, match="no campaign"):
                    await client.status(999)
                with pytest.raises(ServiceError, match="unknown op"):
                    await client._request({"op": "bogus"})
            await server.stop()
            return results["report"]

    report = asyncio.run(scenario())
    assert report.endswith("2/2 passed")


def test_cli_client_reports_missing_server(capsys):
    assert cli_main(["results", "1", "--port", "1"]) == 1
    out = capsys.readouterr().out
    assert "no service at" in out


# ----------------------------------------------------------------------
# Leases, the runtime reaper, and the dead-letter quarantine
# ----------------------------------------------------------------------
class TestLeases:
    """Store-level lease mechanics (no campaigns actually run)."""

    def _queued(self, store, seeds=2):
        campaign_id, cached = store.submit(
            build_submission("fuzz", {"seeds": seeds, "length": 30}))
        assert not cached
        return campaign_id

    def test_claim_carries_a_lease_and_renew_extends_it(self):
        with ServiceStore() as store:
            campaign_id = self._queued(store)
            assert store.claim_next(lease_s=30.0, now=1000.0) \
                == campaign_id
            row = store.campaign(campaign_id)
            assert row.state == "running"
            assert row.lease_expires == 1030.0
            store.renew_lease(campaign_id, 30.0, now=1100.0)
            assert store.campaign(campaign_id).lease_expires == 1130.0
            # renew is a no-op once the campaign left 'running'
            store.set_state(campaign_id, "done")
            store.renew_lease(campaign_id, 30.0, now=1200.0)
            assert store.campaign(campaign_id).lease_expires is None

    def test_reap_requeues_only_expired_unskipped_leases(self):
        with ServiceStore() as store:
            expired = self._queued(store, seeds=1)
            fresh = self._queued(store, seeds=2)
            mine = self._queued(store, seeds=3)
            assert store.claim_next(lease_s=1.0, now=1000.0) == expired
            assert store.claim_next(lease_s=1000.0, now=1000.0) == fresh
            assert store.claim_next(lease_s=1.0, now=1000.0) == mine
            requeued, dead = store.reap_expired(
                now=2000.0, requeue_budget=3, skip={mine})
            assert requeued == [expired] and dead == []
            row = store.campaign(expired)
            assert row.state == "queued"
            assert row.requeues == 1
            assert row.lease_expires is None
            assert store.campaign(fresh).state == "running"
            assert store.campaign(mine).state == "running"

    def test_lease_lag_reports_most_stale_lease(self):
        with ServiceStore() as store:
            assert store.lease_lag(now=1000.0) == 0.0
            campaign_id = self._queued(store)
            store.claim_next(lease_s=10.0, now=1000.0)
            assert store.lease_lag(now=1005.0) == 0.0
            assert store.lease_lag(now=1017.5) == 7.5
            store.set_state(campaign_id, "done")
            assert store.lease_lag(now=1017.5) == 0.0

    def test_budget_exhaustion_dead_letters(self):
        with ServiceStore() as store:
            campaign_id = self._queued(store)
            store.claim_next(lease_s=1.0, now=1000.0)
            requeued, dead = store.reap_expired(now=2000.0,
                                                requeue_budget=1)
            assert requeued == [campaign_id]
            store.claim_next(lease_s=1.0, now=3000.0)
            requeued, dead = store.reap_expired(now=4000.0,
                                                requeue_budget=1)
            assert requeued == [] and dead == [campaign_id]
            row = store.campaign(campaign_id)
            assert row.state == "dead_letter"
            assert "requeue budget exhausted (1/1 requeues used)" \
                in row.error
            letters = store.dead_letters()
            assert [entry[0] for entry in letters] == [campaign_id]
            assert "lease expired" in letters[0][3]

    def test_dead_letter_is_not_revived_by_resubmission(self):
        with ServiceStore() as store:
            campaign_id = self._queued(store)
            store.claim_next(lease_s=1.0, now=1000.0)
            _, dead = store.reap_expired(now=2000.0, requeue_budget=0)
            assert dead == [campaign_id]
            submission = build_submission("fuzz",
                                          {"seeds": 2, "length": 30})
            resubmitted, cached = store.submit(submission)
            assert resubmitted == campaign_id and not cached
            assert store.campaign(campaign_id).state == "dead_letter"

    def test_operator_revival_clears_the_quarantine(self):
        with ServiceStore() as store:
            campaign_id = self._queued(store)
            store.claim_next(lease_s=1.0, now=1000.0)
            store.reap_expired(now=2000.0, requeue_budget=0)
            store.requeue_dead_letter(campaign_id)
            row = store.campaign(campaign_id)
            assert row.state == "queued"
            assert row.requeues == 0 and row.error is None
            assert store.dead_letters() == []
            # revival is only for dead letters
            with pytest.raises(ValueError, match="not dead_letter"):
                store.requeue_dead_letter(campaign_id)

    def test_migration_upgrades_an_old_schema_store(self, tmp_path):
        """A store created before leases/dead-letters existed must come
        up with the new columns patched in and old rows intact."""
        import sqlite3

        path = str(tmp_path / "old.db")
        old = sqlite3.connect(path)
        old.executescript("""
            CREATE TABLE campaigns (
                id INTEGER PRIMARY KEY AUTOINCREMENT,
                fingerprint TEXT NOT NULL UNIQUE,
                kind TEXT NOT NULL,
                params TEXT NOT NULL,
                state TEXT NOT NULL DEFAULT 'queued',
                short_circuited INTEGER NOT NULL DEFAULT 0,
                stopped INTEGER NOT NULL DEFAULT 0,
                total_jobs INTEGER NOT NULL DEFAULT 0,
                error TEXT,
                progress TEXT NOT NULL DEFAULT '{}',
                report TEXT
            );
            CREATE TABLE jobs (
                campaign_id INTEGER NOT NULL,
                idx INTEGER NOT NULL,
                kind TEXT NOT NULL,
                label TEXT NOT NULL,
                ok INTEGER NOT NULL,
                timed_out INTEGER NOT NULL DEFAULT 0,
                attempts INTEGER NOT NULL DEFAULT 1,
                error TEXT,
                PRIMARY KEY (campaign_id, idx)
            );
            INSERT INTO campaigns (fingerprint, kind, params)
                VALUES ('abc', 'fuzz', '{}');
        """)
        old.commit()
        old.close()
        with ServiceStore(path) as store:
            row = store.campaigns()[0]
            assert row.fingerprint == "abc"
            assert row.lease_expires is None and row.requeues == 0
            # the patched columns are fully functional
            assert store.claim_next(lease_s=5.0, now=1000.0) == row.id
            assert store.campaign(row.id).lease_expires == 1005.0
            store.db.execute(
                "INSERT INTO jobs (campaign_id, idx, kind, label, ok, "
                "crashed, quarantined) VALUES (?, 0, 'fuzz', 'j', 0, "
                "1, 1)", (row.id,))
            store.db.commit()


@pytest.mark.campaign
def test_runtime_lease_expiry_reaper_requeues_and_rerun_is_identical(
        tmp_path):
    """Satellite 4: a sibling dispatcher claims a campaign and dies
    (simulated: a ``running`` row with a lapsed lease and partial job
    rows, injected while the service is live).  The runtime reaper must
    notice without a restart, re-queue, and the re-run's stored report
    must be byte-identical to an uninterrupted run's."""
    params = {"seeds": 2, "length": 25}

    async def uninterrupted(path):
        with ServiceStore(path) as store:
            service = CampaignService(store, workers=1)
            client = InProcessClient(service)
            await service.start()
            reply = await client.submit("fuzz", params)
            assert await client.wait(reply["campaign"]) == "done"
            report = (await client.results(reply["campaign"]))["report"]
            await service.stop()
            return report

    expected = asyncio.run(uninterrupted(str(tmp_path / "ref.db")))

    async def interrupted(path):
        with ServiceStore(path) as store:
            service = CampaignService(store, workers=1, lease_s=30.0,
                                      requeue_budget=3,
                                      reap_interval=0.02)
            client = InProcessClient(service)
            await service.start()
            # Inject the dead sibling's leftovers while the service is
            # idle: claimed straight on the store (the local dispatcher
            # never saw it), lease long lapsed, one partial job row.
            campaign_id, _ = store.submit(
                build_submission("fuzz", params))
            assert store.claim_next(lease_s=1.0,
                                    now=time.time() - 60) == campaign_id
            store.set_total_jobs(campaign_id, 2)
            store.db.execute(
                "INSERT INTO jobs (campaign_id, idx, kind, label, ok) "
                "VALUES (?, 0, 'fuzz', 'partial', 1)", (campaign_id,))
            store.db.commit()
            assert await client.wait(campaign_id) == "done"
            report = (await client.results(campaign_id))["report"]
            health = await service.health()
            row = store.campaign(campaign_id)
            await service.stop()
            return report, row, health

    report, row, health = asyncio.run(
        interrupted(str(tmp_path / "reaped.db")))
    assert report == expected
    assert row.requeues == 1  # exactly one lease reap, then success
    assert health["supervision"]["lease_reaps"] >= 1
    assert health["supervision"]["requeues"] >= 1
    assert health["states"]["dead_letter"] == 0


def test_overload_rejects_new_campaigns_but_not_coalesces():
    async def scenario():
        with ServiceStore() as store:
            # dispatcher never started: the queue cannot drain
            service = CampaignService(store, max_queue=1)
            client = InProcessClient(service)
            first = await client.submit("fuzz", {"seeds": 1})
            assert first["state"] == "queued"
            with pytest.raises(ServiceError, match="queue full") as exc:
                await client.submit("fuzz", {"seeds": 2})
            assert exc.value.overloaded
            # coalescing onto the queued row adds no work: exempt
            again = await client.submit("fuzz", {"seeds": 1})
            assert again["campaign"] == first["campaign"]
            assert not again["cached"]

    asyncio.run(scenario())


@pytest.mark.campaign
def test_health_verb_over_tcp(tmp_path):
    async def scenario():
        with ServiceStore(str(tmp_path / "svc.db")) as store:
            service = CampaignService(store, workers=1)
            server = ServiceServer(service, port=0)
            await server.start()
            host, port = server.address
            async with ServiceClient(host, port) as client:
                reply = await client.submit("fuzz", FUZZ_PARAMS)
                assert await client.wait(reply["campaign"]) == "done"
                health = await client.health()
            await server.stop()
            return health

    health = asyncio.run(scenario())
    assert health["queue_depth"] == 0
    assert health["states"]["done"] == 1
    assert health["lease_lag_s"] == 0.0
    assert health["dead_letters"] == 0
    assert set(health["supervision"]) == {
        "pool_restarts", "requeues", "poison_quarantined",
        "lease_reaps", "dead_letters"}
