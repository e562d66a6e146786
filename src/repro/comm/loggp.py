"""The analytical overhead model of Section 3 (Equation 1).

The co-simulation time of a run decomposes into the DUT's own emulation
time plus three communication phases:

* **communication startup** — ``N_invokes * T_sync``;
* **data transmission** — ``N_bytes / BW``;
* **software processing** — dispatch + REF execution + comparison work.

Counts (``N_invokes``, ``N_bytes``, software work) are *measured* by the
real packing/fusion/checking machinery; this module only converts them to
modeled time using the platform constants of
:mod:`repro.comm.platform`.

Blocking (step-and-compare) execution serialises the phases::

    T_cycle = T_dut + T_startup + T_transmission + T_software

Non-blocking execution pipelines hardware, link and software (the DUT
speculatively runs ahead, Section 4.5), so steady-state throughput is set
by the slowest stage, and the per-invocation cost drops to an asynchronous
enqueue (no round-trip handshake)::

    T_cycle = max(T_dut, nb_factor * T_startup + T_transmission, T_software)
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CommCounters:
    """Raw measurements of one co-simulation run."""

    cycles: int = 0
    instructions: int = 0
    invokes: int = 0  # hardware->software transfers initiated
    bytes_sent: int = 0  # total bytes across the interface
    sw_dispatches: int = 0  # transfer receptions the software must dispatch
    sw_events_checked: int = 0  # verification events processed
    sw_bytes_checked: int = 0  # payload bytes compared against the REF
    sw_ref_steps: int = 0  # REF instructions stepped

    def merge(self, other: "CommCounters") -> None:
        self.cycles += other.cycles
        self.instructions += other.instructions
        self.invokes += other.invokes
        self.bytes_sent += other.bytes_sent
        self.sw_dispatches += other.sw_dispatches
        self.sw_events_checked += other.sw_events_checked
        self.sw_bytes_checked += other.sw_bytes_checked
        self.sw_ref_steps += other.sw_ref_steps


@dataclass(frozen=True)
class OverheadBreakdown:
    """Modeled time of one run, split by phase (all microseconds)."""

    dut_us: float
    startup_us: float
    transmission_us: float
    software_us: float
    total_us: float
    cycles: int

    @property
    def speed_khz(self) -> float:
        """Modeled co-simulation speed in kilo-cycles per second."""
        if self.total_us <= 0:
            return float("inf")
        return self.cycles * 1000.0 / self.total_us

    @property
    def communication_us(self) -> float:
        return self.total_us - self.dut_us

    @property
    def communication_fraction(self) -> float:
        if self.total_us <= 0:
            return 0.0
        return self.communication_us / self.total_us

    def phase_fractions(self) -> dict:
        """Per-phase share of total time (Figure 2)."""
        total = max(self.total_us, 1e-12)
        return {
            "dut": self.dut_us / total,
            "startup": self.startup_us / total,
            "transmission": self.transmission_us / total,
            "software": self.software_us / total,
        }


def model_overhead(platform, gates_millions: float, counters: CommCounters,
                   nonblocking: bool) -> OverheadBreakdown:
    """Apply Equation 1 to measured counters under ``platform``."""
    cycle_us = 1000.0 / platform.dut_clock_khz(gates_millions)
    dut_us = counters.cycles * cycle_us
    startup_us = counters.invokes * platform.t_sync_us
    if not nonblocking:
        # Step-and-compare clock gating: in blocking mode the platform
        # synchronises with the testbench every cycle, costing a fixed
        # number of extra emulation cycles per DUT cycle.
        startup_us += counters.cycles * platform.gate_cycles * cycle_us
    transmission_us = counters.bytes_sent / platform.bw_bytes_per_us
    software_us = (
        counters.sw_dispatches * platform.dispatch_us
        + counters.sw_ref_steps * platform.ref_step_us
        + counters.sw_events_checked * platform.check_event_us
        + counters.sw_bytes_checked * platform.check_byte_us
    )
    if nonblocking:
        hw_link_us = startup_us * platform.nb_factor + transmission_us
        total_us = max(dut_us, hw_link_us, software_us)
        # Report the phase costs as experienced (post-overlap) for the
        # breakdown: only the critical path shows residual overhead.
        return OverheadBreakdown(
            dut_us=dut_us,
            startup_us=startup_us * platform.nb_factor,
            transmission_us=transmission_us,
            software_us=software_us,
            total_us=total_us,
            cycles=counters.cycles,
        )
    total_us = dut_us + startup_us + transmission_us + software_us
    return OverheadBreakdown(
        dut_us=dut_us,
        startup_us=startup_us,
        transmission_us=transmission_us,
        software_us=software_us,
        total_us=total_us,
        cycles=counters.cycles,
    )
