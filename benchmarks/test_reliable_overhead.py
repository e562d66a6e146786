"""Reliability-layer overhead: the default path must stay free.

The resilient-transport PR adds framing (CRC32, sequence numbers) and a
retransmit buffer behind ``ReliabilityConfig(reliable=True)``.  The
contract is that ``reliable=False`` — the default — is *off the fast
path entirely*: the plain :class:`~repro.comm.channel.Channel` is
constructed and the wire format is byte-identical to the pre-PR format.

One deterministic guard enforces that contract: a default-config run
adds zero framing bytes and zero extra channel invokes (asserted
exactly, immune to host noise).  What the default path costs in wall
clock is the end-to-end benchmark's business (``benchmarks/e2e``).

The reliable path itself is also measured and recorded — it *is* allowed
to cost (CRC32 per frame, retransmit bookkeeping), and the measured
overhead lands in ``benchmarks/results/reliable_overhead.txt``
(``RELIABLE_BENCH_FULL=1`` doubles the repeats).

Run with:
``PYTHONPATH=src python -m pytest benchmarks/test_reliable_overhead.py -q``
"""

from __future__ import annotations

import os
import time

import pytest
from conftest import write_result

from repro.comm.framing import HEADER_SIZE
from repro.core import CONFIG_BNSD, CoSimulation, ReliabilityConfig
from repro.dut import XIANGSHAN_DEFAULT
from repro.workloads import build

pytestmark = pytest.mark.bench

FULL = os.environ.get("RELIABLE_BENCH_FULL", "") not in ("", "0")
REPEATS = 4 if FULL else 2
E2E_CYCLES = 500_000

CONFIG_RELIABLE = CONFIG_BNSD.with_(
    name="EBINSD-R", reliability=ReliabilityConfig(reliable=True))

#: Snapshot recovery points force a packer flush at each quiescent
#: boundary, which perturbs batching; turn them off to isolate the pure
#: framing cost for the byte-accounting identity below.
CONFIG_RELIABLE_NOSNAP = CONFIG_BNSD.with_(
    name="EBINSD-Rn",
    reliability=ReliabilityConfig(reliable=True, snapshot_recovery=False))


def _timed_run(config, image):
    cosim = CoSimulation(XIANGSHAN_DEFAULT, config, image)
    t0 = time.perf_counter()
    result = cosim.run(E2E_CYCLES)
    dt = time.perf_counter() - t0
    assert result.passed
    return result.cycles / dt


def _best_of(config, image, repeats=REPEATS):
    _timed_run(config, image)  # warm-up
    return max(_timed_run(config, image) for _ in range(repeats))


# ----------------------------------------------------------------------
# 1. Deterministic guard: the default wire format is untouched.
# ----------------------------------------------------------------------

def test_default_path_wire_format_unchanged():
    image = build("memory_churn", array_kb=32, passes=2).image
    plain = CoSimulation(XIANGSHAN_DEFAULT, CONFIG_BNSD, image)
    reliable = CoSimulation(XIANGSHAN_DEFAULT, CONFIG_RELIABLE_NOSNAP, image)
    # reliable=False constructs the plain Channel, not a subclass.
    assert type(plain.channel).__name__ == "Channel"
    assert type(reliable.channel).__name__ == "ReliableChannel"
    a = plain.run(E2E_CYCLES)
    b = reliable.run(E2E_CYCLES)
    ca, cb = a.stats.counters, b.stats.counters
    # Zero framing bytes on the default path; the reliable path pays
    # exactly one header per invoke and nothing else.
    assert cb.invokes == ca.invokes
    assert cb.bytes_sent == ca.bytes_sent + ca.invokes * HEADER_SIZE
    assert ca.link_crc_errors == ca.link_retransmits == 0
    assert (a.cycles, a.instructions, a.uart_output) == \
        (b.cycles, b.instructions, b.uart_output)
    # With recovery points on, each quiescent boundary flushes the
    # packer; the run outcome is unchanged, only batching granularity.
    c = CoSimulation(XIANGSHAN_DEFAULT, CONFIG_RELIABLE, image).run(
        E2E_CYCLES)
    assert (c.cycles, c.instructions, c.uart_output) == \
        (a.cycles, a.instructions, a.uart_output)
    assert c.stats.counters.invokes >= ca.invokes


# ----------------------------------------------------------------------
# 2. What the reliable path costs
# ----------------------------------------------------------------------

def test_reliable_path_overhead_is_bounded():
    """reliable=True may cost, but CRC32+bookkeeping on an in-process
    queue must stay modest; both sides measured back-to-back here."""
    image = build("memory_churn", array_kb=32, passes=2).image
    plain_cps = _best_of(CONFIG_BNSD, image)
    reliable_cps = _best_of(CONFIG_RELIABLE, image)
    overhead = (plain_cps - reliable_cps) / plain_cps * 100.0
    write_result("reliable_overhead", "\n".join([
        f"reliability overhead ({'full' if FULL else 'quick'} mode)",
        f"  reliable=True:  {reliable_cps:,.0f} cyc/s "
        f"= {overhead:.1f}% overhead, "
        f"+{HEADER_SIZE} B/invoke framing"]))
    # Generous bound: the reliable path does strictly more work, but a
    # CRC over ~100-byte frames must not halve throughput.
    assert reliable_cps >= plain_cps * 0.5, (plain_cps, reliable_cps)
