"""The DiffTest-H framework: configuration, checker, replay, orchestration."""

from .checker import Checker, CheckerProtocolError
from .config import (
    CONFIG_B,
    CONFIG_BN,
    CONFIG_BNSD,
    CONFIG_COUPLED,
    CONFIG_FIXED,
    CONFIG_Z,
    LADDER,
    DiffConfig,
)
from .framework import BoundarySeed, CoSimulation, RunResult, run_cosim
from .replay import ReplayBuffer, ReplayUnit
from .report import DebugReport, Mismatch
from .snapshot import (
    SnapshotCoSimulation,
    SnapshotDebugCosts,
    SnapshotDebugger,
    SnapshotRecord,
)
from .stats import EventProfile, RunStats
from .summary import (
    MismatchSummary,
    RunSummary,
    SliceRunSummary,
    stitch_slices,
    summarize_mismatch,
    summarize_result,
    summarize_slice,
)

__all__ = [
    "Checker",
    "CheckerProtocolError",
    "CONFIG_B",
    "CONFIG_BN",
    "CONFIG_BNSD",
    "CONFIG_COUPLED",
    "CONFIG_FIXED",
    "CONFIG_Z",
    "LADDER",
    "DiffConfig",
    "BoundarySeed",
    "CoSimulation",
    "RunResult",
    "run_cosim",
    "ReplayBuffer",
    "ReplayUnit",
    "DebugReport",
    "Mismatch",
    "SnapshotCoSimulation",
    "SnapshotDebugCosts",
    "SnapshotDebugger",
    "SnapshotRecord",
    "EventProfile",
    "RunStats",
    "MismatchSummary",
    "RunSummary",
    "SliceRunSummary",
    "stitch_slices",
    "summarize_mismatch",
    "summarize_result",
    "summarize_slice",
]
