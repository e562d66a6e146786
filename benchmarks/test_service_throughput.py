"""Campaign-service throughput: queue ingest rate and cache-hit latency.

Verification-as-a-service only pays off if the control plane stays out
of the way: accepting a submission must cost milliseconds (it is one
durable SQLite insert plus a fingerprint hash), and a cache hit must
return a finished campaign's report orders of magnitude faster than
re-running it.  This bench records both into
``benchmarks/results/service_throughput.txt``:

* **store ingest** — distinct submissions/sec into the WAL-mode queue
  (fingerprint + INSERT per call), and dedup lookups/sec for repeat
  submissions that coalesce onto existing rows;
* **cache-hit latency** — median wall time of submit→results for a
  campaign that already finished, versus the wall time of actually
  running it the first time.
"""

import asyncio
import statistics
import time

import pytest
from conftest import write_result

from repro.service import (
    CampaignService,
    InProcessClient,
    ServiceStore,
    build_submission,
)

pytestmark = [pytest.mark.bench, pytest.mark.service]

INGEST_COUNT = 200
CACHE_HIT_SAMPLES = 30
FUZZ_PARAMS = {"seeds": 2, "length": 30}


@pytest.mark.campaign
def test_service_throughput(tmp_path):
    results = {}

    # -- store ingest: distinct submissions, then dedup lookups --------
    submissions = [
        build_submission("fuzz", {"seeds": 1, "start": i, "length": 20})
        for i in range(INGEST_COUNT)
    ]
    with ServiceStore(str(tmp_path / "ingest.db")) as store:
        start = time.perf_counter()
        ids = [store.submit(sub)[0] for sub in submissions]
        ingest_s = time.perf_counter() - start
        assert len(set(ids)) == INGEST_COUNT

        start = time.perf_counter()
        for sub in submissions:
            repeat_id, _ = store.submit(sub)
        dedup_s = time.perf_counter() - start
    results["ingest_submissions_per_sec"] = INGEST_COUNT / ingest_s
    results["dedup_lookups_per_sec"] = INGEST_COUNT / dedup_s

    # -- cache-hit latency vs first-run wall time ----------------------
    async def scenario():
        with ServiceStore(str(tmp_path / "cache.db")) as store:
            service = CampaignService(store, workers=1, rate=1e9,
                                      burst=1e9)
            client = InProcessClient(service)
            await service.start()
            start = time.perf_counter()
            first = await client.submit("fuzz", FUZZ_PARAMS)
            assert await client.wait(first["campaign"]) == "done"
            await client.results(first["campaign"])
            first_run_s = time.perf_counter() - start

            latencies = []
            for _ in range(CACHE_HIT_SAMPLES):
                start = time.perf_counter()
                reply = await client.submit("fuzz", FUZZ_PARAMS)
                assert reply["cached"] is True
                await client.results(reply["campaign"])
                latencies.append(time.perf_counter() - start)
            await service.stop()
            return first_run_s, latencies

    first_run_s, latencies = asyncio.run(scenario())
    hit_ms = statistics.median(latencies) * 1e3
    results["first_run_s"] = first_run_s
    results["cache_hit_median_ms"] = hit_ms
    results["cache_hit_speedup"] = first_run_s / (hit_ms / 1e3)

    text = "\n".join([
        "Campaign service throughput",
        f"  queue ingest   : "
        f"{results['ingest_submissions_per_sec']:10,.0f} "
        f"submissions/s ({INGEST_COUNT} distinct)",
        f"  dedup lookups  : "
        f"{results['dedup_lookups_per_sec']:10,.0f} lookups/s",
        f"  first run      : {first_run_s * 1e3:10,.1f} ms "
        f"({FUZZ_PARAMS['seeds']}-seed fuzz campaign)",
        f"  cache hit      : {hit_ms:10,.2f} ms median "
        f"(submit + results, {CACHE_HIT_SAMPLES} samples)",
        f"  hit speedup    : {results['cache_hit_speedup']:10,.1f}x",
    ])
    write_result("service_throughput", text)

    # sanity floors, far below any real machine's numbers
    assert results["ingest_submissions_per_sec"] > 50
    assert hit_ms < first_run_s * 1e3
