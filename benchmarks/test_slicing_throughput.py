"""Sliced-run throughput: the modeled parallel speedup of checkpoint
slicing, recorded in ``BENCH_slicing.json`` (repo root) plus
``benchmarks/results/slicing_throughput.txt``.

The measurement follows the repo's counters-to-modeled-time idiom (see
``benchmarks/conftest.py``): every component cost is *measured* on this
machine — the seeding pass's spec-release times and each slice window's
in-process execution time — and the parallel wall clock is then
*modeled* by list-scheduling those measured jobs onto W workers (job
*i* cannot start before the seeding pass released its spec).  This
keeps the benchmark meaningful on CI boxes with fewer cores than
workers: process-pool wall clock on an oversubscribed host measures the
scheduler, not the slicer.  The model assumes the seeding pass and the
W workers each get a core.

Matrix: slices x workers over {1, 2, 4}^2 with the critical-path
``balanced`` plan, against the measured serial run of the same workload
(plain CONFIG_BNSD, no slice barriers).  The identity guard re-checks
that the stitched pieces reproduce the serial report before any number
is recorded.

Quick mode (the default) runs fewer repeats; set
``SLICING_BENCH_FULL=1`` for the full measurement.

Run with:
``PYTHONPATH=src python -m pytest benchmarks/test_slicing_throughput.py -q``
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import time

import pytest
from conftest import write_result

from repro.core import CONFIG_BNSD, CoSimulation
from repro.core.summary import stitch_slices
from repro.dut import NUTSHELL, DutSystem
from repro.parallel import iter_slice_specs, plan_windows
from repro.parallel.jobs import runner_for
from repro.toolkit import render_report
from repro.workloads import build

pytestmark = pytest.mark.bench

FULL = os.environ.get("SLICING_BENCH_FULL", "") not in ("", "0")
REPEATS = 4 if FULL else 2
ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_slicing.json"

WORKLOAD = build("memory_churn", array_kb=32, passes=2)
PLAN = "balanced"
SLICE_COUNTS = (1, 2, 4)
WORKER_COUNTS = (1, 2, 4)

#: Results accumulated by the tests and flushed once per session.
_RESULTS: dict = {}
_CACHE: dict = {}


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------

def _run_cycles() -> int:
    """The cycle the workload actually finishes at (bare-DUT probe), so
    the slice windows cover the run instead of an unused budget."""
    if "run_cycles" not in _CACHE:
        probe = DutSystem(NUTSHELL, seed=2025)
        probe.load_image(WORKLOAD.image)
        cycles = 0
        while not probe.finished() and cycles < WORKLOAD.max_cycles:
            probe.cycle()
            cycles += 1
        _CACHE["run_cycles"] = cycles
    return _CACHE["run_cycles"]


def _elementwise_min(best, sample):
    if best is None:
        return list(sample)
    return [min(a, b) for a, b in zip(best, sample)]


def _measurements():
    """All timing components, measured in interleaved best-of rounds.

    One round = one serial run + (seed pass + slice runs) for every
    slice count, so a host-contention spike hits one round of *every*
    component instead of sinking a single number and skewing the
    ratios; best-of filters the dip (round 0 is warm-up).

    Returns ``(serial_dt, per_slices)`` where ``per_slices[n]`` is
    ``(avail, durs, pieces, epoch)``: ``avail[i]`` is when the lazy
    spec generator released slice *i*'s job (the seeding pass runs on
    its own core, so this is job *i*'s earliest start), ``durs[i]`` the
    in-process execution time of slice *i*'s window, and ``pieces`` the
    slice summaries for the identity guard.
    """
    if "data" in _CACHE:
        return _CACHE["data"]
    cycles = _run_cycles()
    run_slice = runner_for("slice")
    serial_best = float("inf")
    best_gaps = {n: None for n in SLICE_COUNTS}
    best_durs = {n: None for n in SLICE_COUNTS}
    pieces = {}
    for attempt in range(REPEATS + 1):
        cosim = CoSimulation(NUTSHELL, CONFIG_BNSD, WORKLOAD.image,
                             seed=2025)
        gc.collect()  # GC debt from the previous round's cosims must
        t0 = time.perf_counter()  # not be charged to this component
        result = cosim.run(max_cycles=cycles)
        dt = time.perf_counter() - t0
        assert result.passed
        if attempt:
            serial_best = min(serial_best, dt)
        for slices in SLICE_COUNTS:
            specs = []
            gaps = []
            gc.collect()
            t_prev = time.perf_counter()
            for spec in iter_slice_specs(NUTSHELL, CONFIG_BNSD,
                                         WORKLOAD.image,
                                         max_cycles=cycles, slices=slices,
                                         seed=2025, plan=PLAN):
                now = time.perf_counter()
                gaps.append(now - t_prev)
                t_prev = now
                specs.append(spec)
            durs = []
            summaries = []
            for spec in specs:
                gc.collect()
                t0 = time.perf_counter()
                summaries.append(run_slice(spec.params))
                durs.append(time.perf_counter() - t0)
            if attempt:
                best_gaps[slices] = _elementwise_min(best_gaps[slices],
                                                     gaps)
                best_durs[slices] = _elementwise_min(best_durs[slices],
                                                     durs)
                pieces[slices] = summaries
    per_slices = {}
    for slices in SLICE_COUNTS:
        avail = []
        total = 0.0
        for gap in best_gaps[slices]:
            total += gap
            avail.append(total)
        epoch = plan_windows(cycles, slices, PLAN)[0]
        per_slices[slices] = (avail, best_durs[slices], pieces[slices],
                              epoch)
    _CACHE["data"] = (serial_best, per_slices)
    return _CACHE["data"]


def _makespan(avail, durs, workers: int) -> float:
    """List-schedule the measured jobs onto ``workers`` cores: job *i*
    starts at ``max(avail[i], first free worker)``."""
    free = [0.0] * workers
    span = 0.0
    for released, duration in zip(avail, durs):
        slot = min(range(workers), key=free.__getitem__)
        start = max(released, free[slot])
        free[slot] = start + duration
        span = max(span, free[slot])
    return span


def _flush_results():
    if not _RESULTS:
        return
    existing = {}
    if BENCH_JSON.exists():
        try:
            existing = json.loads(BENCH_JSON.read_text())
        except ValueError:
            existing = {}
    existing.update(_RESULTS)
    existing["mode"] = "full" if FULL else "quick"
    BENCH_JSON.write_text(json.dumps(existing, indent=2, sort_keys=True)
                          + "\n")
    lines = [f"slicing throughput ({existing['mode']} mode, plan "
             f"{existing.get('plan', PLAN)})"]
    serial = existing.get("serial", {})
    if serial:
        lines.append(
            f"  serial: {serial['cycles_per_sec']:,.0f} cyc/s over "
            f"{existing.get('run_cycles', 0):,} cycles "
            f"({existing.get('workload', '?')})")
    matrix = existing.get("matrix", {})
    for slices_key, row in sorted(matrix.items()):
        for workers_key, cell in sorted(row.items()):
            if not workers_key.startswith("workers="):
                continue
            lines.append(
                f"  {slices_key:9s} {workers_key:9s}: "
                f"{cell['modeled_cycles_per_sec']:>9,.0f} cyc/s "
                f"modeled = {cell['modeled_speedup']:.2f}x serial")
    write_result("slicing_throughput", "\n".join(lines))


@pytest.fixture(scope="module", autouse=True)
def _persist_results():
    yield
    _flush_results()


# ----------------------------------------------------------------------
# 1. Identity guard: the measured pieces stitch to the serial report
# ----------------------------------------------------------------------

def test_sliced_pieces_reproduce_serial_report():
    cycles = _run_cycles()
    _, per_slices = _measurements()
    _, _, pieces, epoch = per_slices[4]
    summary, stats = stitch_slices(pieces)
    cosim = CoSimulation(NUTSHELL,
                         CONFIG_BNSD.with_(slice_epoch_cycles=epoch),
                         WORKLOAD.image, seed=2025)
    serial = cosim.run(max_cycles=cycles)
    assert cosim._skipped_barriers == 0
    assert serial.summarize() == summary
    assert render_report(serial.stats) == render_report(stats)
    _RESULTS["identity"] = {
        "slices": len(pieces),
        "epoch_cycles": epoch,
        "byte_identical": True,
    }


# ----------------------------------------------------------------------
# 2. The slices x workers speedup matrix
# ----------------------------------------------------------------------

def test_modeled_speedup_matrix():
    cycles = _run_cycles()
    serial_dt, per_slices = _measurements()
    matrix = {}
    for slices in SLICE_COUNTS:
        avail, durs, pieces, epoch = per_slices[slices]
        row = {
            "epoch_cycles": epoch,
            "windows": [piece.end_cycle - piece.start_cycle
                        for piece in pieces],
            "spec_release_seconds": [round(t, 4) for t in avail],
            "slice_run_seconds": [round(t, 4) for t in durs],
        }
        for workers in WORKER_COUNTS:
            span = _makespan(avail, durs, workers)
            row[f"workers={workers}"] = {
                "modeled_seconds": round(span, 4),
                "modeled_cycles_per_sec": round(cycles / span),
                "modeled_speedup": round(serial_dt / span, 3),
            }
        matrix[f"slices={slices}"] = row
    _RESULTS.update({
        "workload": "memory_churn(array_kb=32, passes=2)",
        "dut": "nutshell",
        "config": CONFIG_BNSD.name,
        "plan": PLAN,
        "run_cycles": cycles,
        "serial": {
            "seconds": round(serial_dt, 4),
            "cycles_per_sec": round(cycles / serial_dt),
        },
        "matrix": matrix,
    })
    # Degenerate cells must not model phantom speedup: one slice on one
    # worker is the serial run plus slicing overhead.
    solo = matrix["slices=1"]["workers=1"]["modeled_speedup"]
    assert 0.7 <= solo <= 1.1, matrix["slices=1"]
    # Workers beyond slices change nothing.
    assert (matrix["slices=2"]["workers=2"]["modeled_seconds"]
            == matrix["slices=2"]["workers=4"]["modeled_seconds"])
    # The headline number: 4 slices on 4 workers must clear 1.5x.
    headline = matrix["slices=4"]["workers=4"]["modeled_speedup"]
    assert headline >= 1.5, matrix["slices=4"]
