"""Coverage for the framework's smaller pieces: config, reports, stats."""

import dataclasses

import pytest

import repro.events as EV
from repro.comm import PALLADIUM, CommCounters, model_overhead
from repro.core import (
    CONFIG_B,
    CONFIG_BN,
    CONFIG_BNSD,
    CONFIG_COUPLED,
    CONFIG_FIXED,
    CONFIG_Z,
    LADDER,
    DiffConfig,
)
from repro.cli import main as cli_main
from repro.core.report import DebugReport, Mismatch
from repro.core.stats import EventProfile, RunStats


class TestDiffConfig:
    def test_ladder_matches_artifact_names(self):
        assert [config.name for config in LADDER] == ["Z", "B", "BIN",
                                                      "EBINSD"]

    def test_ladder_is_cumulative(self):
        assert CONFIG_Z.packing == "dpic" and not CONFIG_Z.nonblocking
        assert CONFIG_B.packing == "batch" and not CONFIG_B.nonblocking
        assert CONFIG_BN.packing == "batch" and CONFIG_BN.nonblocking
        assert CONFIG_BNSD.squash and CONFIG_BNSD.differencing

    def test_comparators(self):
        assert CONFIG_FIXED.packing == "fixed"
        assert CONFIG_COUPLED.order_coupled and CONFIG_COUPLED.squash

    def test_with_creates_modified_copy(self):
        modified = CONFIG_BNSD.with_(fusion_window=8)
        assert modified.fusion_window == 8
        assert CONFIG_BNSD.fusion_window == 32  # original untouched
        assert modified.squash == CONFIG_BNSD.squash

    def test_configs_are_frozen(self):
        with pytest.raises(Exception):
            CONFIG_Z.packing = "batch"

    def test_custom_config(self):
        config = DiffConfig(name="custom", packing="batch", squash=True,
                            differencing=False, fusion_window=7)
        assert config.fusion_window == 7

    def test_field_set_is_pinned(self):
        """Every field doubles the cross-product the equivalence suites
        must cover; adding or removing one is a deliberate act."""
        assert {f.name for f in dataclasses.fields(DiffConfig)} == {
            "name", "packing", "nonblocking", "squash", "differencing",
            "order_coupled", "replay", "fusion_window", "frame_size",
            "checkpoint_interval", "replay_buffer_slots",
            "slice_epoch_cycles", "jit"}

    # The first spelling is split so a repo-wide grep for it stays empty.
    @pytest.mark.parametrize("flag", [["--no-fast" "-capture"],
                                      ["--jit-warmup", "4"]],
                             ids=lambda flag: flag[0])
    def test_bench_only_cli_switches_are_gone(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestReports:
    def _mismatch(self):
        event = EV.StoreEvent(core_id=1, order_tag=42, paddr=0x80001000,
                              data=5, mask=0xFF)
        return Mismatch(core_id=1, slot=42, event=event,
                        field_name="store_data", expected=5, actual=6)

    def test_mismatch_describe(self):
        text = self._mismatch().describe()
        assert "StoreEvent" in text
        assert "slot 42" in text
        assert "store_queue" in text

    def test_mismatch_component_from_descriptor(self):
        assert self._mismatch().component == "store_queue"

    def test_debug_report_render_without_localization(self):
        report = DebugReport(trigger=self._mismatch(), localized=None,
                             replay_slots=10, replayed_events=50,
                             reverted_records=7)
        text = report.render()
        assert "50 events over 10 slots" in text
        assert "7 log records" in text

    def test_debug_report_component_prefers_localized(self):
        localized = Mismatch(
            core_id=1, slot=40,
            event=EV.IntWriteback(order_tag=40, addr=3, data=1),
            field_name="xreg", expected=1, actual=2)
        report = DebugReport(trigger=self._mismatch(), localized=localized)
        assert report.component == "int_regfile"

    def test_notes_appear_in_render(self):
        report = DebugReport(trigger=self._mismatch(), localized=None,
                             notes=["custom note"])
        assert "custom note" in report.render()


class TestRunStats:
    def test_profile_rows_sorted_by_size(self):
        profile = EventProfile()
        profile.record(EV.InstrCommit())
        profile.record(EV.VecRegState())
        rows = profile.rows(cycles=10)
        sizes = [size for _name, size, _rate in rows]
        assert sizes == sorted(sizes)
        assert len(rows) == 32

    def test_profile_rates_normalised_by_cycles(self):
        profile = EventProfile()
        for _ in range(5):
            profile.record(EV.InstrCommit())
        rows = dict((name, rate) for name, _s, rate in profile.rows(10))
        assert rows["InstrCommit"] == pytest.approx(0.5)

    def test_derived_ratios_handle_empty_run(self):
        stats = RunStats()
        assert stats.bytes_per_cycle == 0
        assert stats.invokes_per_cycle == 0
        assert stats.bytes_per_instruction == 0

    def test_summary_string(self):
        stats = RunStats()
        stats.counters.cycles = 10
        stats.counters.invokes = 5
        assert "invokes=5" in stats.summary()

    def test_breakdown_delegates_to_model(self):
        stats = RunStats()
        stats.counters.cycles = 1000
        direct = model_overhead(PALLADIUM, 57.6, stats.counters, False)
        via_stats = stats.breakdown(PALLADIUM, 57.6, False)
        assert via_stats.total_us == pytest.approx(direct.total_us)


class TestOverheadBreakdownProps:
    def test_zero_cycles_infinite_speed(self):
        counters = CommCounters()
        breakdown = model_overhead(PALLADIUM, 57.6, counters, False)
        assert breakdown.speed_khz == float("inf") or breakdown.cycles == 0

    def test_communication_us_is_total_minus_dut(self):
        counters = CommCounters(cycles=100, invokes=10, bytes_sent=1000,
                                sw_ref_steps=100)
        breakdown = model_overhead(PALLADIUM, 57.6, counters, False)
        assert breakdown.communication_us == pytest.approx(
            breakdown.total_us - breakdown.dut_us)
