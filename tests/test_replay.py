"""Tests for Replay: token-managed buffering, revert, reprocessing."""

import pytest

import repro.events as EV
from repro.core import CONFIG_BNSD, CONFIG_Z, CoSimulation
from repro.core.replay import ReplayBuffer
from repro.core.snapshot import SnapshotDebugger
from repro.dut import XIANGSHAN_DEFAULT, fault_by_name
from repro.isa import assemble

# Every written register is live (feeds the accumulator), so ANY
# single-write corruption propagates to the final architectural state and
# survives fusion windows.
WORKLOAD = """
_start:
    li sp, 0x80100000
    li t0, 200
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


class TestReplayBuffer:
    def _event(self, tag):
        return EV.InstrCommit(order_tag=tag, pc=tag, fused_count=1)

    def test_fetch_range_filters_by_token(self):
        buffer = ReplayBuffer()
        buffer.push([self._event(t) for t in range(10)])
        fetched = buffer.fetch_range(3, 6)
        assert [e.order_tag for e in fetched] == [3, 4, 5, 6]

    def test_irrelevant_later_events_filtered(self):
        buffer = ReplayBuffer()
        buffer.push([self._event(t) for t in range(10)])
        # Events 7..9 arrived between failure (token 5) and the replay
        # request; tokens keep them out.
        assert all(e.order_tag <= 5 for e in buffer.fetch_range(0, 5))

    def test_trim_below_checkpoint(self):
        buffer = ReplayBuffer()
        buffer.push([self._event(t) for t in range(10)])
        buffer.trim_below(5)
        assert len(buffer) == 5
        assert buffer.fetch_range(0, 10)[0].order_tag == 5

    def test_capacity_drops_whole_old_slots(self):
        buffer = ReplayBuffer(capacity_slots=4)
        for tag in range(10):
            buffer.push([self._event(tag), self._event(tag)])
        assert buffer.dropped_slots > 0
        tags = {e.order_tag for e in buffer.fetch_range(0, 100)}
        assert max(tags) - min(tags) <= 4

    def test_raw_records_trim_bound_and_fetch_like_events(self):
        """A straight-to-wire run appends ``(tag, class, units)`` records;
        the same bound, trim and fetch serve them, and ``fetch_range``
        materialises them into the events object capture would hold."""
        objects = ReplayBuffer(capacity_slots=4, core_id=1)
        raw = ReplayBuffer(capacity_slots=4, core_id=1)
        mixed = ReplayBuffer(capacity_slots=4, core_id=1)
        for tag in range(10):
            events = [EV.InstrCommit(core_id=1, order_tag=tag, pc=tag,
                                     fused_count=1),
                      EV.IntWriteback(core_id=1, order_tag=tag, addr=5,
                                      data=tag)]
            records = [(tag, type(e), tuple(e.to_units())) for e in events]
            held = objects.push(events)
            raw.records.extend(records)
            assert raw.enforce_bound() == held
            # A run that switched capture paths holds both forms.
            mixed.records.extend(records if tag < 5 else events)
            assert mixed.enforce_bound() == held
        for buffer in (raw, mixed):
            assert buffer.dropped_slots == objects.dropped_slots > 0
            assert buffer.fetch_range(0, 100) == objects.fetch_range(0, 100)
            assert buffer.fetch_range(7, 8) == objects.fetch_range(7, 8)
        for buffer in (objects, raw, mixed):
            buffer.trim_below(8)
            assert len(buffer) == 4
        assert raw.fetch_range(0, 100) == objects.fetch_range(0, 100)
        assert all(e.core_id == 1 for e in raw.fetch_range(0, 100))


def run_with_fault(fault_name: str, trigger: int = 300,
                   config=CONFIG_BNSD, source: str = WORKLOAD):
    cosim = CoSimulation(XIANGSHAN_DEFAULT, config, assemble(source))
    fault_by_name(fault_name).install(cosim.dut.cores[0], trigger)
    return cosim.run(max_cycles=60_000)


class TestEndToEndReplay:
    def test_mismatch_triggers_replay_report(self):
        result = run_with_fault("control_flow_wdata")
        assert result.mismatch is not None
        assert result.debug_report is not None
        report = result.debug_report
        assert report.replayed_events > 0
        assert report.reverted_records >= 0
        assert "debug report" in report.render()

    def test_replay_localizes_to_instruction(self):
        result = run_with_fault("store_queue_mismatch")
        report = result.debug_report
        assert report.localized is not None
        # The fused trigger can only say "this window"; replay pinpoints a
        # single slot at or before the fused mismatch.
        assert report.localized.slot <= report.trigger.slot

    def test_replay_identifies_component(self):
        result = run_with_fault("store_queue_mismatch")
        assert result.debug_report.component == "store_queue"

    def test_replay_window_bounded_by_checkpoint(self):
        result = run_with_fault("control_flow_wdata")
        report = result.debug_report
        assert report.replay_slots <= CONFIG_BNSD.checkpoint_interval * 2

    def test_detection_without_replay_when_disabled(self):
        config = CONFIG_BNSD.with_(replay=False)
        result = run_with_fault("control_flow_wdata", config=config)
        assert result.mismatch is not None
        assert result.debug_report is None

    def test_unfaulted_run_has_no_report(self):
        cosim = CoSimulation(XIANGSHAN_DEFAULT, CONFIG_BNSD,
                             assemble(WORKLOAD))
        result = cosim.run(max_cycles=60_000)
        assert result.passed
        assert result.debug_report is None

    #: FP workload where the corrupted f-register bits feed back into the
    #: integer accumulator exactly (fmv, not a rounding conversion).
    FP_WORKLOAD = WORKLOAD.replace(
        "add t1, t1, t2",
        "fmv.d.x f1, t2\n    fmv.x.d t3, f1\n    add t1, t1, t3")

    @pytest.mark.parametrize("fault_name", [
        "misaligned_wakeup",  # integer write corruption, live accumulator
        "sbuffer_lost_bytes",  # store corruption read back by the load
    ])
    def test_integer_faults_detected(self, fault_name):
        result = run_with_fault(fault_name, source=WORKLOAD)
        assert result.mismatch is not None

    def test_fp_fault_detected(self):
        result = run_with_fault("fp_writeback_corrupt",
                                source=self.FP_WORKLOAD)
        assert result.mismatch is not None

    def test_dead_corruption_invisible_to_fused_checks(self):
        """A transient writeback corruption that is overwritten *within a
        fusion window* is fused away by ACCUMULATE (the documented fusion
        trade-off); the unfused per-write check still sees it.

        Built directly on the fuser/checker so the window alignment is
        deterministic."""
        import repro.events as EV
        from repro.comm.fusion import Completer, SquashFuser

        def commits(corrupt_mid: bool):
            # Three writes to x5 in one window; the middle one corrupted.
            events = []
            values = [10, 20, 30]
            for tag, value in enumerate(values):
                reported = value ^ (1 if corrupt_mid and tag == 1 else 0)
                events.append(EV.IntWriteback(order_tag=tag, addr=5,
                                              data=reported))
                events.append(EV.InstrCommit(
                    order_tag=tag, pc=0x80000000 + 4 * tag,
                    instr=0x13, wdata=value, rd=5,
                    flags=EV.FLAG_RF_WEN, fused_count=1))
            return events

        class FakeRef:
            """Minimal REF: x5 follows the clean value sequence."""

            def __init__(self):
                from repro.core.framework import REF_MMIO_RANGES
                from repro.isa import assemble
                from repro.ref import RefModel

                source = ("li t0, 10\nli t0, 20\nli t0, 30\n"
                          "li a0, 0\nebreak")
                self.ref = RefModel(mmio_ranges=REF_MMIO_RANGES)
                self.ref.load_image(assemble(source))

        from repro.core.checker import Checker

        def check(fused: bool):
            ref = FakeRef().ref
            checker = Checker(ref)
            events = commits(corrupt_mid=True)
            if fused:
                fuser = SquashFuser(window=16, differencing=False)
                completer = Completer()
                items = fuser.on_cycle(events) + fuser.flush()
                stream = [completer.complete(item) for item in items]
            else:
                stream = events
            for event in stream:
                mismatch = checker.process(event)
                if mismatch is not None:
                    return mismatch
            return None

        assert check(fused=False) is not None  # raw per-write check fires
        assert check(fused=True) is None  # ACCUMULATE keeps only the last

    def test_baseline_config_also_detects(self):
        result = run_with_fault("control_flow_wdata", config=CONFIG_Z)
        assert result.mismatch is not None

    def test_fused_and_raw_detect_same_fault(self):
        fused = run_with_fault("store_queue_mismatch", config=CONFIG_BNSD)
        raw = run_with_fault("store_queue_mismatch", config=CONFIG_Z)
        assert fused.mismatch is not None and raw.mismatch is not None


class TestSnapshotBaseline:
    def test_snapshot_cost_grows_with_interval(self):
        debugger = SnapshotDebugger(interval_cycles=100)
        for cycle in range(0, 1000, 10):
            debugger.on_cycle(cycle, cycle)
        assert len(debugger.snapshots) >= 9
        assert debugger.total_snapshot_bytes() > 9 * 64 << 20

    def test_recovery_reruns_from_nearest_snapshot(self):
        debugger = SnapshotDebugger(interval_cycles=100)
        for cycle in range(0, 1000, 10):
            debugger.on_cycle(cycle, cycle)
        cost = debugger.recovery_cost(555)
        assert 0 <= cost["rerun_cycles"] <= 100
        assert cost["restore_bytes"] > 0

    def test_replay_cheaper_than_snapshots(self):
        """The Figure 10 comparison: Replay's buffered events and
        compensation log are orders of magnitude smaller than full-DUT
        snapshots for the same failure."""
        result = run_with_fault("control_flow_wdata")
        report = result.debug_report
        debugger = SnapshotDebugger(interval_cycles=100)
        for cycle in range(0, result.cycles, 10):
            debugger.on_cycle(cycle, cycle)
        replay_bytes = report.replayed_events * 64  # generous estimate
        assert replay_bytes < debugger.total_snapshot_bytes() / 100
