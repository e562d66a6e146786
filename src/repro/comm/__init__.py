"""Communication substrate: LogGP model, platforms, channels, packing, fusion."""

from . import fusion, packing
from .channel import Channel
from .loggp import CommCounters, OverheadBreakdown, model_overhead
from .platform import (
    ALL_PLATFORMS,
    FPGA_VU19P,
    PALLADIUM,
    VERILATOR_16T,
    PlatformSpec,
)

__all__ = [
    "fusion",
    "packing",
    "Channel",
    "CommCounters",
    "OverheadBreakdown",
    "model_overhead",
    "ALL_PLATFORMS",
    "FPGA_VU19P",
    "PALLADIUM",
    "VERILATOR_16T",
    "PlatformSpec",
]
