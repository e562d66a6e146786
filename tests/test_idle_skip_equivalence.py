"""Idle-cycle skipping vs the per-cycle-stepped reference.

``CoSimulation.run`` lets ``DutCore.cycle`` consume the cycles in which
nothing commits; ``advance(_cycle + 1)`` pins the loop's horizon one
cycle ahead, so every trip has ``limit == 1`` and the run is stepped one
cycle at a time — the reference, with no knob to select it.  Both must
agree on everything simulated: wire bytes, summary, rendered report, UART
text, every ``CommCounters`` field and each core's final ``cycle_count``,
``_stall`` and RNG state.  Only ``RunStats.idle_cycles_skipped`` (and the
host-side span/dispatch bookkeeping of an observed run) may differ.

Every axis is a parametrisation of one case function, so each can move
into the generative oracle (ROADMAP item 5) as one more random choice.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.core import (
    CONFIG_BNSD,
    CONFIG_Z,
    CoSimulation,
    SnapshotCoSimulation,
)
from repro.dut import (
    NUTSHELL,
    XIANGSHAN_DEFAULT,
    XIANGSHAN_DUAL,
    fault_by_name,
)
from repro.obs import ObsContext
from repro.toolkit import render_report
from repro.workloads import build
from repro.workloads.fuzz import fuzz_workload

from tests.conftest import tap_wire

#: Cycle budget per run: past the first 997-cycle epoch barrier and the
#: first 500-cycle images, short enough for the cross-product.
BUDGET = 1_500

PROGRAMS = {
    "memory_churn": lambda: build("memory_churn", array_kb=8, passes=2),
    "linux_boot_like": lambda: build("linux_boot_like"),
    "alu_hotloop": lambda: build("alu_hotloop", iterations=300),
    "mini_os": lambda: build("mini_os", timeslices=2),
}
PROGRAMS.update({f"fuzz_{seed}": (lambda seed=seed: fuzz_workload(seed, 40))
                 for seed in range(20)})

DUTS = (NUTSHELL, XIANGSHAN_DEFAULT, XIANGSHAN_DUAL)
CONFIGS = (CONFIG_BNSD, CONFIG_Z)

#: A batch frame this small closes every few events, so frame boundaries
#: fall inside and beside the skipped idle spans; under ``CONFIG_Z`` the
#: variant is also the one blocking batch cell of the matrix.
FRAME256 = 256

@functools.lru_cache(maxsize=None)
def _workload(program):
    """Each program is assembled once for the whole matrix."""
    return PROGRAMS[program]()


def _plain(dut, config, workload, **kwargs):
    return CoSimulation(dut, config, workload.image,
                        uart_input=workload.uart_input, **kwargs)


def _armed(dut, config, workload):
    cosim = _plain(dut, config, workload)
    fault_by_name("store_queue_mismatch").install(cosim.dut.cores[0], 120)
    return cosim


#: variant -> builder(dut, config, workload) of a fresh co-simulation.
VARIANTS = {
    "default": _plain,
    "nojit": lambda d, c, w: _plain(d, c.with_(jit=False), w),
    "armed_fault": _armed,
    "epoch997": lambda d, c, w: _plain(
        d, c.with_(slice_epoch_cycles=997), w),
    "fixed_packing": lambda d, c, w: _plain(d, c.with_(packing="fixed"), w),
    "frame256": lambda d, c, w: _plain(
        d, c.with_(packing="batch", frame_size=FRAME256), w),
    "obs": lambda d, c, w: _plain(d, c, w, obs=ObsContext()),
    "snapshot500": lambda d, c, w: SnapshotCoSimulation(
        d, c, w.image, uart_input=w.uart_input, snapshot_interval=500),
}


def _alive(cosim) -> bool:
    return cosim.mismatch is None and not cosim.dut.finished()


def _run_stepped(cosim, max_cycles):
    """``run()`` with the horizon pinned one cycle ahead of the loop."""
    cosim._select_capture()
    while cosim._cycle < max_cycles and _alive(cosim):
        cosim.advance(cosim._cycle + 1)
    cosim._settle()
    return cosim._finish()


def _count_trips(cosim) -> dict:
    """Count hardware-half trips and the cycles they advanced."""
    seen = {"trips": 0, "advanced": 0}

    def counting(half):
        def trip(limit):
            before = cosim._cycle
            try:
                return half(limit)
            finally:
                seen["trips"] += 1
                seen["advanced"] += cosim._cycle - before
        return trip

    cosim._hardware_cycle = counting(cosim._hardware_cycle)
    cosim._hardware_cycle_fast = counting(cosim._hardware_cycle_fast)
    return seen


def _end_state(cosim):
    clint = cosim.dut.clint
    return [(clint.mtime, clint._subticks, clint.mtimecmp, clint.msip)] + [
        (core.cycle_count, core._stall, core._rng.getstate(), core.retired,
         core.finished, core.state.csr._version, core._irq_lines)
        for core in cosim.dut.cores]


def _simulated_metrics(snapshot):
    """An observed run's records minus what counts loop trips, not
    simulation: the skipped-cycle counter."""
    return [record for record in snapshot.records()
            if record.name != "dut.idle_cycles_skipped"]


def _assert_equivalent(build_cosim, max_cycles=BUDGET):
    skipping, stepped = build_cosim(), build_cosim()
    wire, reference_wire = tap_wire(skipping), tap_wire(stepped)
    trips = _count_trips(skipping)
    result = skipping.run(max_cycles)
    reference = _run_stepped(stepped, max_cycles)

    assert wire == reference_wire
    assert result.uart_output == reference.uart_output
    assert result.stats.counters == reference.stats.counters
    assert _end_state(skipping) == _end_state(stepped)
    assert render_report(result.stats) == render_report(reference.stats)
    assert result.stats == reference.stats
    assert result.stats.idle_cycles_skipped == \
        trips["advanced"] - trips["trips"]
    assert trips["advanced"] == result.cycles
    assert reference.stats.idle_cycles_skipped == 0
    summary, reference_summary = result.summarize(), reference.summarize()
    if result.metrics is not None:
        assert _simulated_metrics(result.metrics) == \
            _simulated_metrics(reference.metrics)
        # Folded only when nonzero, like ``jit.*``.
        for run in (result, reference):
            skipped = run.stats.idle_cycles_skipped
            assert run.metrics.value("dut.idle_cycles_skipped") == skipped
            assert ("dut.idle_cycles_skipped" in run.metrics.metrics) == \
                bool(skipped)
        summary = dataclasses.replace(summary, metrics=None)
        reference_summary = dataclasses.replace(reference_summary,
                                                metrics=None)
    assert summary == reference_summary
    if result.debug_report is not None:
        assert result.debug_report.render() == \
            reference.debug_report.render()
    return result, skipping


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.name)
@pytest.mark.parametrize("dut", DUTS, ids=lambda d: d.name)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_skipping_matches_per_cycle_stepping(program, dut, config, variant):
    workload = _workload(program)
    _assert_equivalent(lambda: VARIANTS[variant](dut, config, workload))


# ----------------------------------------------------------------------
# The axes do what their names say (one cell each)
# ----------------------------------------------------------------------

def test_stall_heavy_run_skips_most_cycles():
    workload = _workload("memory_churn")
    result, _ = _assert_equivalent(
        lambda: _plain(NUTSHELL, CONFIG_BNSD, workload), max_cycles=20_000)
    assert result.stats.idle_cycles_skipped > result.cycles // 2


FULL_LENGTH = {"linux_boot_like": lambda: build("linux_boot_like"),
               "mini_os": lambda: build("mini_os", timeslices=3)}


@pytest.mark.parametrize("dut", (NUTSHELL, XIANGSHAN_DEFAULT),
                         ids=lambda d: d.name)
@pytest.mark.parametrize("program", sorted(FULL_LENGTH))
def test_full_length_run_with_timer_interrupts(program, dut):
    """The budgeted cells end before the first timer tick; run the two
    interrupt-driven programs to their good trap, so the CLINT edge is
    reached through stall jumps and zero-budget cycles."""
    from repro.events import ArchInterrupt

    workload = FULL_LENGTH[program]()
    result, _ = _assert_equivalent(
        lambda: _plain(dut, CONFIG_BNSD, workload),
        max_cycles=workload.max_cycles)
    assert result.passed
    assert result.stats.profile.counts[ArchInterrupt.DESCRIPTOR.event_id] > 0


def test_packing_axes_change_the_wire():
    """``fixed_packing`` swaps the packer, and ``frame256`` closes frames
    that the default 4 KiB frame would have kept open."""
    from repro.comm.packing import FixedPacker

    workload = _workload("memory_churn")
    fixed, cosim = _assert_equivalent(
        lambda: VARIANTS["fixed_packing"](NUTSHELL, CONFIG_BNSD, workload))
    assert isinstance(cosim.packer, FixedPacker)
    default, _ = _assert_equivalent(
        lambda: _plain(NUTSHELL, CONFIG_BNSD, workload))
    small, cosim = _assert_equivalent(
        lambda: VARIANTS["frame256"](NUTSHELL, CONFIG_BNSD, workload))
    assert cosim.packer.frame_size == FRAME256
    assert small.stats.counters.invokes > default.stats.counters.invokes
    assert fixed.stats.counters.bytes_sent != \
        default.stats.counters.bytes_sent


def test_armed_fault_axis_reports_a_mismatch():
    workload = _workload("memory_churn")
    result, _ = _assert_equivalent(
        lambda: _armed(XIANGSHAN_DEFAULT, CONFIG_BNSD, workload))
    assert result.mismatch is not None and result.debug_report is not None


def test_snapshot_axis_images_on_schedule_and_reruns_within_budget():
    """Images land on the interval (the horizon clamp), and the
    re-execution after a mismatch counts simulated cycles, bounded by
    the budget clamp."""
    workload = _workload("memory_churn")

    def build_cosim():
        cosim = SnapshotCoSimulation(XIANGSHAN_DEFAULT, CONFIG_BNSD,
                                     workload.image, snapshot_interval=500)
        fault_by_name("store_queue_mismatch").install(
            cosim.dut.cores[0], 900)
        return cosim

    result, cosim = _assert_equivalent(build_cosim, max_cycles=20_000)
    assert result.mismatch is not None
    taken = [seed.snapshot.cycle_taken for seed in cosim._snapshots]
    assert taken[0] == 500 and len(taken) > 2
    # Overdue images retry every cycle, so none is later than it must be.
    assert all(later - earlier >= 500
               for earlier, later in zip(taken, taken[1:]))
    costs = cosim.costs
    budget = result.mismatch.cycle - taken[-1] + 10_000
    assert 0 < costs.rerun_cycles <= budget
    assert costs.rerun_cycles == \
        cosim.dut.cores[0].cycle_count - taken[-1]


def test_epoch_axis_barriers_fire_on_every_multiple():
    workload = _workload("alu_hotloop")
    config = CONFIG_BNSD.with_(slice_epoch_cycles=997)
    fired = []

    def build_cosim():
        cosim = _plain(XIANGSHAN_DEFAULT, config, workload)
        barrier = cosim._epoch_barrier
        cosim._epoch_barrier = lambda: (fired.append(cosim._cycle),
                                        barrier())[1]
        return cosim

    result, _ = _assert_equivalent(build_cosim, max_cycles=4_200)
    multiples = list(range(997, result.cycles + 1, 997))
    assert len(multiples) == 4
    assert fired == multiples * 2  # the skipping run, then the stepped one
