"""Canned campaign builders on top of the executor.

These wrap the common campaign shapes — the fault-injection catalogue
sweep and the optimisation-ladder matrix — as JobSpec lists plus thin
run helpers.  (The fuzz campaign lives with its generator in
:func:`repro.workloads.fuzz.fuzz_campaign`; the sweep measured-point
collector in :func:`repro.analysis.sweeps.collect_measured_points`.)

Spec building is split from execution (``fault_specs`` /
``ladder_specs``) so a caller that drives its own
:class:`CampaignExecutor` (a custom supervision policy, a chaos-wrapped
executor) runs the exact job definitions of the one-shot run helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from .executor import CampaignExecutor, CampaignResult, SupervisionPolicy
from .jobs import JobResult, JobSpec


@dataclass(frozen=True)
class FaultCase:
    """One fault-injection campaign cell: a fault armed over an image."""

    fault: str
    image: bytes
    trigger: int
    max_cycles: int = 80_000


def fault_specs(cases: Sequence[FaultCase], dut_config,
                diff_config) -> List[JobSpec]:
    """The job specs of a fault campaign, in case order."""
    return [
        JobSpec(kind="fault", label=case.fault,
                params={"dut": dut_config, "config": diff_config,
                        "image": case.image, "fault": case.fault,
                        "trigger": case.trigger,
                        "max_cycles": case.max_cycles})
        for case in cases
    ]


def fault_campaign(cases: Sequence[FaultCase], dut_config, diff_config,
                   workers: Optional[int] = None,
                   job_timeout: Optional[float] = None, retries: int = 1,
                   on_result: Optional[Callable[[JobResult], None]] = None,
                   collect_metrics: bool = False, obs=None,
                   supervision: Optional[SupervisionPolicy] = None
                   ) -> CampaignResult:
    """Inject every fault case in parallel; aggregation is deterministic.

    Fault campaigns never short-circuit: each detected mismatch is a
    *successful* detection, and the campaign's value is the full
    detection matrix.
    """
    specs = fault_specs(cases, dut_config, diff_config)
    executor = CampaignExecutor(workers=workers, job_timeout=job_timeout,
                                retries=retries,
                                collect_metrics=collect_metrics, obs=obs,
                                supervision=supervision)
    return executor.run(specs, on_result=on_result)


def ladder_specs(workload_name: str, dut_config, diff_configs,
                 build_kwargs: Optional[dict] = None) -> List[JobSpec]:
    """The job specs of an optimisation-ladder campaign, in rung order."""
    return [
        JobSpec(kind="workload", label=config.name,
                params={"dut": dut_config, "config": config,
                        "workload": workload_name,
                        "build_kwargs": dict(build_kwargs or {})})
        for config in diff_configs
    ]


def ladder_campaign(workload_name: str, dut_config, diff_configs,
                    workers: Optional[int] = None,
                    job_timeout: Optional[float] = None,
                    build_kwargs: Optional[dict] = None,
                    on_result: Optional[Callable[[JobResult], None]] = None,
                    collect_metrics: bool = False, obs=None,
                    supervision: Optional[SupervisionPolicy] = None
                    ) -> CampaignResult:
    """Measure one workload under each config of an optimisation ladder.

    Rows come back in ladder order (submission order), so the Table 5
    rendering is identical whether the rungs ran serially or fanned out.
    """
    specs = ladder_specs(workload_name, dut_config, diff_configs,
                         build_kwargs=build_kwargs)
    executor = CampaignExecutor(workers=workers, job_timeout=job_timeout,
                                collect_metrics=collect_metrics, obs=obs,
                                supervision=supervision)
    return executor.run(specs, on_result=on_result)
