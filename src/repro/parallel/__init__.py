"""Campaign-level parallelism: fan independent co-simulations out.

The in-run DUT<->REF loop is inherently serial (every checked event
mutates the shared REF state), but a *campaign* of runs is not.  This
package provides the process-pool executor, the picklable job protocol,
and canned campaign builders; see ``docs/architecture.md`` ("Campaign
parallelism") for the determinism guarantee.
"""

from .campaigns import (
    FaultCase,
    fault_campaign,
    fault_specs,
    ladder_campaign,
    ladder_specs,
)
from .executor import (
    CampaignExecutor,
    CampaignResult,
    CampaignStats,
    JobTimeout,
    SupervisionPolicy,
    execute_job,
)
from .jobs import JobResult, JobSpec, register_runner, runner_for
from .slicing import (
    SlicedRunResult,
    SliceExecutionError,
    balanced_cuts,
    epoch_for,
    iter_slice_specs,
    plan_windows,
    sliced_run,
)

__all__ = [
    "CampaignExecutor",
    "CampaignResult",
    "CampaignStats",
    "FaultCase",
    "JobResult",
    "JobSpec",
    "JobTimeout",
    "SliceExecutionError",
    "SlicedRunResult",
    "SupervisionPolicy",
    "balanced_cuts",
    "epoch_for",
    "execute_job",
    "fault_campaign",
    "fault_specs",
    "iter_slice_specs",
    "ladder_campaign",
    "ladder_specs",
    "plan_windows",
    "register_runner",
    "runner_for",
    "sliced_run",
]
