"""Tests for the LogGP model, platforms, channel, and prior-work models."""

import pytest

from repro.comm import (
    FPGA_VU19P,
    PALLADIUM,
    VERILATOR_16T,
    Channel,
    CommCounters,
    model_overhead,
)
from repro.comm.packing.base import Transfer
from repro.comm.prior import FROMAJO, IBI_CHECK, PRIOR_SCHEMES, SBS_CHECK


class TestLogGpModel:
    def _counters(self, **kw):
        base = dict(cycles=1000, instructions=1200, invokes=2000,
                    bytes_sent=100_000, sw_dispatches=2000,
                    sw_events_checked=3000, sw_bytes_checked=200_000,
                    sw_ref_steps=1200)
        base.update(kw)
        return CommCounters(**base)

    def test_blocking_sums_phases(self):
        counters = self._counters()
        result = model_overhead(FPGA_VU19P, 57.6, counters, nonblocking=False)
        assert result.total_us == pytest.approx(
            result.dut_us + result.startup_us + result.transmission_us
            + result.software_us)

    def test_nonblocking_takes_max(self):
        counters = self._counters()
        result = model_overhead(FPGA_VU19P, 57.6, counters, nonblocking=True)
        hw_link = (result.startup_us + result.transmission_us)
        assert result.total_us == pytest.approx(
            max(result.dut_us, hw_link, result.software_us))

    def test_nonblocking_never_slower(self):
        counters = self._counters()
        blocking = model_overhead(PALLADIUM, 57.6, counters, False)
        nonblocking = model_overhead(PALLADIUM, 57.6, counters, True)
        assert nonblocking.total_us <= blocking.total_us

    def test_gate_cycles_charged_only_when_blocking(self):
        counters = self._counters(invokes=0, bytes_sent=0, sw_dispatches=0,
                                  sw_events_checked=0, sw_bytes_checked=0,
                                  sw_ref_steps=0)
        blocking = model_overhead(PALLADIUM, 57.6, counters, False)
        nonblocking = model_overhead(PALLADIUM, 57.6, counters, True)
        assert blocking.startup_us > 0  # per-cycle gate
        assert nonblocking.total_us == pytest.approx(nonblocking.dut_us)

    def test_speed_khz(self):
        counters = CommCounters(cycles=1000)
        result = model_overhead(FPGA_VU19P, 0.0, counters, False)
        assert result.speed_khz == pytest.approx(
            FPGA_VU19P.dut_clock_khz(0.0))

    def test_phase_fractions_sum_to_one(self):
        result = model_overhead(PALLADIUM, 57.6, self._counters(), False)
        assert sum(result.phase_fractions().values()) == pytest.approx(1.0)

    def test_communication_fraction(self):
        result = model_overhead(PALLADIUM, 57.6, self._counters(), False)
        assert 0 < result.communication_fraction < 1

    def test_counters_merge(self):
        a = self._counters()
        b = self._counters()
        a.merge(b)
        assert a.cycles == 2000
        assert a.bytes_sent == 200_000


class TestPlatforms:
    def test_clock_decreases_with_design_size(self):
        for platform in (PALLADIUM, FPGA_VU19P, VERILATOR_16T):
            assert platform.dut_clock_khz(0.6) > platform.dut_clock_khz(57.6)

    def test_table2_anchor_speeds(self):
        # Table 2: RTL sim ~3 KHz, emulator ~500 KHz, FPGA ~50 MHz for a
        # large design (XiangShan Default, 57.6 M gates).
        assert 2 <= VERILATOR_16T.dut_clock_khz(57.6) <= 8
        assert 300 <= PALLADIUM.dut_clock_khz(57.6) <= 700
        assert 30_000 <= FPGA_VU19P.dut_clock_khz(57.6) <= 60_000

    def test_fpga_higher_startup_lower_transmission_than_palladium(self):
        # Section 3.2: PCIe shows higher handshake latency but more
        # bandwidth than Palladium's internal link (per data transfer,
        # relative to the platform's cycle time).
        assert FPGA_VU19P.bw_bytes_per_us > PALLADIUM.bw_bytes_per_us
        pldm_cycle = 1000 / PALLADIUM.dut_clock_khz(57.6)
        fpga_cycle = 1000 / FPGA_VU19P.dut_clock_khz(57.6)
        assert (FPGA_VU19P.t_sync_us / fpga_cycle
                > PALLADIUM.t_sync_us / pldm_cycle)


class TestChannel:
    def test_counters(self):
        channel = Channel()
        channel.send(Transfer(b"abc", items=1))
        channel.send(Transfer(b"defg", items=2))
        assert channel.invokes == 2
        assert channel.bytes_sent == 7

    def test_fifo_order(self):
        channel = Channel()
        channel.send(Transfer(b"1"))
        channel.send(Transfer(b"2"))
        assert channel.receive().data == b"1"
        assert channel.receive().data == b"2"
        assert channel.receive() is None

    def test_occupancy_tracking(self):
        channel = Channel(nonblocking=True, queue_depth=2)
        for i in range(4):
            channel.send(Transfer(bytes([i])))
        assert channel.max_occupancy == 4
        # Sends landing at occupancy 2 (exactly full), 3 and 4 all stall.
        assert channel.backpressure_events == 3

    def test_backpressure_fires_exactly_at_depth(self):
        channel = Channel(nonblocking=True, queue_depth=3)
        for i in range(3):
            channel.send(Transfer(bytes([i])))
        assert channel.backpressure_events == 1

    def test_blocking_mode_ignores_queue_depth(self):
        channel = Channel(nonblocking=False, queue_depth=1)
        for i in range(5):
            channel.send(Transfer(bytes([i])))
        assert channel.backpressure_events == 0

    def test_receive_empties_queue_in_order(self):
        channel = Channel()
        channel.send(Transfer(b"x"))
        channel.send(Transfer(b"y"))
        assert channel.receive().data == b"x"
        assert channel.receive().data == b"y"
        assert channel.receive() is None
        assert len(channel) == 0


class TestPriorWork:
    def test_table7_anchors(self):
        ibi = IBI_CHECK.evaluate(100_000, 1.0)
        sbs = SBS_CHECK.evaluate(100_000, 1.0)
        fromajo = FROMAJO.evaluate(100_000, 1.0)
        # IBI-check: ~80 KHz at ~20% overhead on a 100 KHz emulator.
        assert 60 <= ibi.cosim_speed_khz <= 95
        assert 0.10 <= ibi.comm_overhead <= 0.30
        # SBS-check: ~98 KHz at ~2% overhead.
        assert 95 <= sbs.cosim_speed_khz <= 100
        assert sbs.comm_overhead <= 0.05
        # Fromajo: ~1 MHz on a 100 MHz FPGA (=99% overhead).
        assert 500 <= fromajo.cosim_speed_khz <= 2000
        assert fromajo.comm_overhead >= 0.95

    def test_scheme_coverage_metadata(self):
        assert IBI_CHECK.state_types == 2
        assert FROMAJO.state_types == 7
        assert len(PRIOR_SCHEMES) == 3
