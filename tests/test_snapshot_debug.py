"""Tests for DUT snapshot/restore and snapshot-based debugging."""


from repro.core import CONFIG_BNSD, SnapshotCoSimulation
from repro.dut import (
    XIANGSHAN_DEFAULT,
    DutSystem,
    fault_by_name,
    restore_snapshot,
    take_snapshot,
)
from repro.isa import assemble

PROGRAM = """
_start:
    li sp, 0x80100000
    li t0, 600
    li t1, 0
loop:
    add t1, t1, t0
    sd t1, -8(sp)
    ld t2, -8(sp)
    add t1, t1, t2
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    ebreak
"""


class TestSnapshotRestore:
    def _run_cycles(self, system, n):
        events = []
        for _ in range(n):
            for bundle in system.cycle():
                events.extend(bundle.events)
        return events

    def test_reexecution_is_bit_identical(self):
        """Restore + re-run reproduces the exact same event stream."""
        system = DutSystem(XIANGSHAN_DEFAULT)
        system.load_image(assemble(PROGRAM))
        self._run_cycles(system, 300)
        snapshot = take_snapshot(system)
        first = self._run_cycles(system, 300)
        restore_snapshot(system, snapshot)
        second = self._run_cycles(system, 300)
        assert first == second

    def test_restore_rewinds_architectural_state(self):
        system = DutSystem(XIANGSHAN_DEFAULT)
        system.load_image(assemble(PROGRAM))
        self._run_cycles(system, 200)
        snapshot = take_snapshot(system)
        regs_at_snap = list(system.cores[0].state.xregs)
        retired_at_snap = system.cores[0].retired
        self._run_cycles(system, 400)
        assert system.cores[0].retired > retired_at_snap
        restore_snapshot(system, snapshot)
        assert system.cores[0].state.xregs == regs_at_snap
        assert system.cores[0].retired == retired_at_snap

    def test_restore_rewinds_memory(self):
        system = DutSystem(XIANGSHAN_DEFAULT)
        system.load_image(assemble(PROGRAM))
        self._run_cycles(system, 200)
        snapshot = take_snapshot(system)
        value_at_snap = system.memory.load(0x800FFFF8, 8)
        self._run_cycles(system, 300)
        restore_snapshot(system, snapshot)
        assert system.memory.load(0x800FFFF8, 8) == value_at_snap

    def test_snapshot_size_accounting(self):
        system = DutSystem(XIANGSHAN_DEFAULT)
        system.load_image(assemble(PROGRAM))
        self._run_cycles(system, 100)
        snapshot = take_snapshot(system)
        assert snapshot.size_bytes() >= system.memory.allocated_bytes()

    def test_fault_refires_after_restore(self):
        """Positional faults reproduce on re-execution, like real bugs."""
        system = DutSystem(XIANGSHAN_DEFAULT)
        system.load_image(assemble(PROGRAM))
        fault_by_name("control_flow_wdata").install(system.cores[0], 500)
        self._run_cycles(system, 100)
        snapshot = take_snapshot(system)
        first = self._run_cycles(system, 600)
        restore_snapshot(system, snapshot)
        second = self._run_cycles(system, 600)
        assert first == second  # includes the corrupted event both times


class TestSnapshotCoSimulation:
    def _run(self, fault=None, trigger=2500, interval=600):
        cosim = SnapshotCoSimulation(
            XIANGSHAN_DEFAULT, CONFIG_BNSD, assemble(PROGRAM),
            snapshot_interval=interval)
        if fault:
            fault_by_name(fault).install(cosim.dut.cores[0], trigger)
        result = cosim.run(max_cycles=100_000)
        return cosim, result

    def test_clean_run_passes_with_snapshots(self):
        cosim, result = self._run()
        assert result.passed
        assert len(cosim._snapshots) >= 1

    def test_recovery_localizes_same_bug(self):
        cosim, result = self._run(fault="store_queue_mismatch")
        assert result.mismatch is not None
        report = result.debug_report
        assert report is not None
        assert report.localized is not None
        assert report.localized.component == "store_queue"

    def test_recovery_costs_measured(self):
        cosim, result = self._run(fault="store_queue_mismatch")
        costs = cosim.costs
        assert costs is not None
        # The Fig. 10 cost numbers for this program and DUT seed.
        assert (costs.snapshots_taken, costs.restore_bytes,
                costs.rerun_cycles, costs.rerun_events) == (3, 14848, 36, 152)
        # The run goes through capture selection like any other, and an
        # armed fault is no reason to leave straight-to-wire capture.
        assert result.stats.capture_fallbacks == ()

    def test_replay_avoids_dut_reexecution(self):
        """The head-to-head of Figure 10: Replay reprocesses buffered
        events (zero DUT cycles); snapshots re-execute the DUT."""
        from repro.core import CoSimulation

        snap_cosim, snap_result = self._run(fault="store_queue_mismatch")
        replay_cosim = CoSimulation(XIANGSHAN_DEFAULT, CONFIG_BNSD,
                                    assemble(PROGRAM))
        fault_by_name("store_queue_mismatch").install(
            replay_cosim.dut.cores[0], 2500)
        replay_result = replay_cosim.run(max_cycles=100_000)
        assert replay_result.mismatch is not None
        # Both localise the same defect...
        assert (replay_result.debug_report.localized.component
                == snap_result.debug_report.localized.component)
        # ...but snapshotting re-ran the DUT while Replay did not.
        assert snap_cosim.costs.rerun_cycles > 0
        assert replay_result.debug_report.reverted_records >= 0
