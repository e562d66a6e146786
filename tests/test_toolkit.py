"""Tests for the tuning toolkit: counters, SQL traces, trace dump/reload."""

import io

import pytest

import repro.events as EV
from repro.core import CONFIG_BNSD, run_cosim
from repro.dut import XIANGSHAN_DEFAULT, DutSystem
from repro.toolkit import (
    TraceDb,
    TraceReader,
    TraceWriter,
    render_event_profile,
    render_report,
    replay_trace,
)


def collect_trace(image: bytes, max_cycles=40_000):
    """Run the DUT alone and collect (cycle, events) pairs."""
    system = DutSystem(XIANGSHAN_DEFAULT)
    system.load_image(image)
    out = []
    for _ in range(max_cycles):
        (bundle,) = system.cycle()
        if bundle.events:
            out.append((bundle.cycle, bundle.events))
        if system.finished():
            break
    return out


class TestPerfCounters:
    def test_report_renders_all_counters(self, small_image):
        result = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD, small_image,
                           max_cycles=60_000)
        report = render_report(result.stats)
        for needle in ("fusion ratio", "packet utilization", "REF steps",
                       "bytes on the wire"):
            assert needle in report

    def test_event_profile_table(self, small_image):
        result = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD, small_image,
                           max_cycles=60_000)
        table = render_event_profile(result.stats)
        assert "InstrCommit" in table
        assert "VecRegState" in table

    def test_event_profile_top_filter(self, small_image):
        result = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD, small_image,
                           max_cycles=60_000)
        table = render_event_profile(result.stats, top=3)
        assert len(table.splitlines()) == 4  # header + 3


class TestSqlTrace:
    @pytest.fixture()
    def db(self, small_image):
        with TraceDb() as db:
            for cycle, events in collect_trace(small_image):
                db.record_cycle(cycle, events)
            yield db

    def test_file_backed_db_uses_wal(self, tmp_path):
        # WAL journaling with synchronous=NORMAL (fsync on checkpoint,
        # not on every commit)
        with TraceDb(str(tmp_path / "trace.db")) as db:
            (journal,) = db._db.execute("PRAGMA journal_mode").fetchone()
            (sync,) = db._db.execute("PRAGMA synchronous").fetchone()
            assert journal == "wal"
            assert sync == 1  # NORMAL

    def test_close_is_idempotent(self, small_image):
        db = TraceDb()
        for cycle, events in collect_trace(small_image, max_cycles=500):
            db.record_cycle(cycle, events)
        db.close()
        db.close()  # second close must be a no-op, not an error
        with pytest.raises(Exception):
            db.volume_by_type()

    def test_context_manager_closes_on_exit(self):
        with TraceDb() as db:
            pass
        with pytest.raises(Exception):
            db._db.execute("SELECT 1")

    def test_volume_by_type(self, db):
        rows = db.volume_by_type()
        names = [row[0] for row in rows]
        assert "IntRegState" in names
        assert rows == sorted(rows, key=lambda r: -r[2])

    def test_nde_fraction(self, db):
        assert 0.0 <= db.nde_fraction() < 0.5

    def test_events_per_cycle(self, db):
        assert db.events_per_cycle() > 0

    def test_cycle_reload_preserves_events(self, db, small_image):
        original = collect_trace(small_image)
        reloaded = db.cycles()
        assert len(reloaded) == len(original)
        assert reloaded[0][1] == original[0][1]

    def test_whatif_fusion_strategies(self, db):
        fused = db.simulate_fusion(window=32, differencing=True)
        coupled = db.simulate_fusion(window=32, differencing=True,
                                     order_coupled=True)
        nodiff = db.simulate_fusion(window=32, differencing=False)
        assert fused["reduction"] > 1
        assert fused["wire_bytes"] <= nodiff["wire_bytes"]
        assert fused["fusion_ratio"] >= coupled["fusion_ratio"]

    def test_window_sweep_monotone_reduction(self, db):
        small = db.simulate_fusion(window=4, differencing=False)
        large = db.simulate_fusion(window=64, differencing=False)
        assert large["fusion_ratio"] >= small["fusion_ratio"]


class TestTraceDump:
    def test_roundtrip_in_memory(self, small_image):
        trace = collect_trace(small_image)
        sink = io.BytesIO()
        writer = TraceWriter(sink)
        for cycle, events in trace:
            writer.write_cycle(cycle, events)
        reloaded = list(TraceReader(sink.getvalue()))
        assert len(reloaded) == len(trace)
        assert reloaded[3][1] == trace[3][1]

    def test_file_roundtrip(self, small_image, tmp_path):
        path = str(tmp_path / "dut.trace")
        trace = collect_trace(small_image)
        with TraceWriter(path) as writer:
            for cycle, events in trace:
                writer.write_cycle(cycle, events)
        with TraceReader(path) as reader:
            assert sum(len(events) for _, events in reader) == \
                sum(len(events) for _, events in trace)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="not a DiffTest-H trace"):
            TraceReader(b"XXXX\x01\x00\x00\x00")

    def test_empty_file_rejected(self):
        with pytest.raises(ValueError, match=r"trace header at byte "
                                             r"offset 0"):
            TraceReader(b"")

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError, match=r"truncated trace: expected "
                                             r"8 bytes for trace header"):
            TraceReader(b"DTHT\x01")

    def test_truncated_cycle_header_rejected(self, small_image):
        trace = collect_trace(small_image)
        sink = io.BytesIO()
        writer = TraceWriter(sink)
        for cycle, events in trace:
            writer.write_cycle(cycle, events)
        # Chop mid-way through the last cycle record's header.
        blob = sink.getvalue()[:-1]
        reader = TraceReader(blob)
        with pytest.raises(ValueError, match="byte offset"):
            list(reader)

    def test_truncated_event_payload_rejected(self, small_image):
        trace = collect_trace(small_image)
        sink = io.BytesIO()
        writer = TraceWriter(sink)
        cycle, events = next((c, e) for c, e in trace if e)
        writer.write_cycle(cycle, events)
        # Drop the tail of the final event's payload: the reader must
        # name the event and the offset, not raise a bare struct.error.
        blob = sink.getvalue()[:-3]
        reader = TraceReader(blob)
        with pytest.raises(ValueError,
                           match=rf"event {len(events)}/{len(events)} "
                                 rf"payload of cycle {cycle} at byte "
                                 rf"offset \d+"):
            list(reader)

    def test_truncated_event_length_rejected(self, small_image):
        trace = collect_trace(small_image)
        cycle, events = next((c, e) for c, e in trace if e)
        sink = io.BytesIO()
        writer = TraceWriter(sink)
        writer.write_cycle(cycle, [])
        # Claim one event but provide only half its length prefix.
        blob = sink.getvalue()
        import struct
        blob = (blob[:8] + struct.pack("<IH", cycle, 1) + b"\x05")
        with pytest.raises(ValueError, match="event 1/1 length of cycle"):
            list(TraceReader(blob))

    def test_replay_trace_drives_checker(self, small_image):
        trace = collect_trace(small_image)
        sink = io.BytesIO()
        writer = TraceWriter(sink)
        for cycle, events in trace:
            writer.write_cycle(cycle, events)
        result = replay_trace(sink.getvalue(), small_image)
        assert result.passed
        assert result.events > 0

    def test_replay_trace_detects_corruption(self, small_image):
        trace = collect_trace(small_image)
        # Corrupt one commit's wdata mid-trace (a verification-logic bug
        # reproduced without re-running the DUT).
        corrupted = []
        armed = True
        for cycle, events in trace:
            new_events = []
            for event in events:
                if (armed and isinstance(event, EV.InstrCommit)
                        and event.order_tag > 20
                        and event.flags & EV.FLAG_RF_WEN):
                    armed = False
                    event = EV.InstrCommit(
                        core_id=event.core_id, order_tag=event.order_tag,
                        pc=event.pc, instr=event.instr,
                        wdata=event.wdata ^ 2, rd=event.rd,
                        flags=event.flags, fused_count=event.fused_count)
                new_events.append(event)
            corrupted.append((cycle, new_events))
        sink = io.BytesIO()
        writer = TraceWriter(sink)
        for cycle, events in corrupted:
            writer.write_cycle(cycle, events)
        result = replay_trace(sink.getvalue(), small_image)
        assert not result.passed
        assert result.mismatch is not None


class TestCompare:
    @pytest.fixture(scope="class")
    def two_runs(self, small_image):
        from repro.core import CONFIG_Z

        before = run_cosim(XIANGSHAN_DEFAULT, CONFIG_Z, small_image,
                           max_cycles=60_000)
        after = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD, small_image,
                          max_cycles=60_000)
        return before.stats, after.stats

    def test_json_roundtrip(self, two_runs):
        from repro.toolkit import load_stats_dict, stats_to_dict, stats_to_json

        before, _after = two_runs
        text = stats_to_json(before)
        assert load_stats_dict(text) == stats_to_dict(before)

    def test_compare_renders_changes(self, two_runs):
        from repro.toolkit import compare_runs

        before, after = two_runs
        table = compare_runs(before, after, "Z", "EBINSD")
        assert "invokes" in table
        assert "%" in table  # relative changes rendered
        lines = table.splitlines()
        assert len(lines) > 15

    def test_compare_shows_byte_reduction(self, two_runs):
        from repro.toolkit import stats_to_dict

        before, after = two_runs
        assert stats_to_dict(after)["bytes_sent"] < \
            stats_to_dict(before)["bytes_sent"] / 5

    def test_load_rejects_non_dict(self):
        from repro.toolkit import load_stats_dict

        with pytest.raises(ValueError):
            load_stats_dict("[1, 2]")
