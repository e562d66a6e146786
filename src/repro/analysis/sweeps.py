"""Analytical sweeps over Equation 1: the Section 3.3 guidance, quantified.

The paper derives three optimisation guidelines from the overhead model
(packing cuts startup, fusion cuts volume, parallelism hides software).
This module explores the model around a measured operating point:

* :func:`speed_vs_parameter` — co-sim speed as one platform constant
  sweeps (bandwidth, sync latency, software cost);
* :func:`nonblocking_gain` — where hardware/software pipelining helps and
  where the software stage becomes the critical path;
* :func:`required_reduction` — how much invocation/volume reduction is
  needed to reach a target fraction of DUT-only speed (the "what do I
  optimise next" question the tuning toolkit answers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..comm.loggp import CommCounters, model_overhead
from ..comm.platform import PlatformSpec

_SWEEPABLE = ("t_sync_us", "bw_bytes_per_us", "ref_step_us",
              "check_event_us", "check_byte_us", "dispatch_us",
              "nb_factor", "gate_cycles")


@dataclass(frozen=True)
class MeasuredPoint:
    """One measured operating point the analytical sweeps explore around."""

    label: str
    workload: str
    config_name: str
    summary: object  # repro.core.summary.RunSummary

    @property
    def counters(self) -> CommCounters:
        return self.summary.counters


def measured_point_specs(cells):
    """The job specs of a measured-point sweep, in cell order.

    Split out of :func:`collect_measured_points` so a caller driving
    its own executor measures the identical cells.
    """
    from ..parallel import JobSpec

    return [
        JobSpec(kind="workload", label=f"{workload}/{config.name}",
                params={"workload": workload, "dut": dut, "config": config})
        for workload, dut, config in cells
    ]


def collect_measured_points(cells, workers: Optional[int] = None,
                            job_timeout: Optional[float] = None,
                            collect_metrics: bool = False, obs=None,
                            supervision=None):
    """Co-simulate every (workload, dut, config) cell; return its counters.

    ``cells`` is a sequence of ``(workload_name, dut_config, diff_config)``
    triples.  Collection fans out over the campaign executor — each cell
    is an independent run — and the returned list preserves cell order,
    so downstream sweep tables are deterministic under any worker count.

    Raises ``RuntimeError`` if any cell fails: an analytical sweep around
    a failed (mismatching) operating point would model garbage.
    """
    from ..parallel import CampaignExecutor

    specs = measured_point_specs(cells)
    executor = CampaignExecutor(workers=workers, job_timeout=job_timeout,
                                retries=0, collect_metrics=collect_metrics,
                                obs=obs, supervision=supervision)
    campaign = executor.run(specs)
    points: List[MeasuredPoint] = []
    for (workload, _dut, config), job in zip(cells, campaign.jobs):
        if not job.passed:
            detail = (job.summary.mismatch.describe()
                      if job.summary is not None and job.summary.mismatch
                      else (job.error or "run failed"))
            raise RuntimeError(
                f"measured point {job.label} failed: {detail}")
        points.append(MeasuredPoint(label=job.label, workload=workload,
                                    config_name=config.name,
                                    summary=job.summary))
    return points


def speed_vs_parameter(platform: PlatformSpec, gates: float,
                       counters: CommCounters, parameter: str,
                       values: Sequence[float],
                       nonblocking: bool = True) -> List[Tuple[float, float]]:
    """Modeled speed (KHz) as one platform constant sweeps over ``values``."""
    if parameter not in _SWEEPABLE:
        raise ValueError(f"cannot sweep {parameter!r}; one of {_SWEEPABLE}")
    out = []
    for value in values:
        spec = replace(platform, **{parameter: value})
        breakdown = model_overhead(spec, gates, counters, nonblocking)
        out.append((value, breakdown.speed_khz))
    return out


def nonblocking_gain(platform: PlatformSpec, gates: float,
                     counters: CommCounters) -> Dict[str, float]:
    """Blocking vs non-blocking speeds and the critical stage after overlap.

    Returns the speeds, the gain factor, and which stage bounds the
    pipelined run ("dut", "link" or "software") — the paper's point that
    parallelism only helps until the slowest stage is exposed.
    """
    blocking = model_overhead(platform, gates, counters, nonblocking=False)
    pipelined = model_overhead(platform, gates, counters, nonblocking=True)
    stages = {
        "dut": pipelined.dut_us,
        "link": pipelined.startup_us + pipelined.transmission_us,
        "software": pipelined.software_us,
    }
    critical = max(stages, key=stages.get)
    return {
        "blocking_khz": blocking.speed_khz,
        "nonblocking_khz": pipelined.speed_khz,
        "gain": pipelined.speed_khz / blocking.speed_khz,
        "critical_stage": critical,
    }


def _scaled(counters: CommCounters, invoke_scale: float,
            byte_scale: float, sw_scale: float) -> CommCounters:
    return CommCounters(
        cycles=counters.cycles,
        instructions=counters.instructions,
        invokes=int(counters.invokes * invoke_scale),
        bytes_sent=int(counters.bytes_sent * byte_scale),
        sw_dispatches=int(counters.sw_dispatches * invoke_scale),
        sw_events_checked=int(counters.sw_events_checked * sw_scale),
        sw_bytes_checked=int(counters.sw_bytes_checked * sw_scale),
        sw_ref_steps=counters.sw_ref_steps,
    )


def required_reduction(platform: PlatformSpec, gates: float,
                       counters: CommCounters, target_fraction: float = 0.9,
                       nonblocking: bool = True) -> Dict[str, float]:
    """Minimum uniform reduction of each phase to reach the target speed.

    For each knob (invocations, bytes, software checking) finds — by
    bisection, holding the others fixed — the scale factor at which the
    modeled speed reaches ``target_fraction`` of DUT-only speed; ``inf``
    means that knob alone cannot get there (another phase dominates).
    """
    target_khz = platform.dut_clock_khz(gates) * target_fraction

    def solve(apply: Callable[[float], CommCounters]) -> float:
        def speed(scale: float) -> float:
            return model_overhead(platform, gates, apply(scale),
                                  nonblocking).speed_khz

        if speed(0.0) < target_khz:
            return float("inf")
        if speed(1.0) >= target_khz:
            return 1.0
        low, high = 0.0, 1.0
        for _ in range(60):
            mid = (low + high) / 2
            if speed(mid) >= target_khz:
                low = mid
            else:
                high = mid
        return 1.0 / max(low, 1e-12)

    return {
        "invokes": solve(lambda s: _scaled(counters, s, 1, 1)),
        "bytes": solve(lambda s: _scaled(counters, 1, s, 1)),
        "software": solve(lambda s: _scaled(counters, 1, 1, s)),
    }
