"""DiffTest-H configuration ladder.

Mirrors the artifact's ``DIFF_CONFIG`` options:

* ``Z``      — baseline: per-event DPI-C, blocking, no fusion.
* ``B``      — +Batch: tight multi-level packing.
* ``BN``     — +NonBlock: non-blocking transmission (Section 4.5).
* ``BINSD``  — +Squash+Differencing: order-decoupled fusion.

``FIXED`` adds the fixed-offset packing comparator of Figure 5.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class DiffConfig:
    """Which communication optimisations are enabled."""

    name: str
    packing: str = "dpic"  # "dpic" | "fixed" | "batch"
    nonblocking: bool = False
    squash: bool = False
    differencing: bool = False
    order_coupled: bool = False  # use the order-coupled fusion baseline
    replay: bool = True
    fusion_window: int = 32
    frame_size: int = 4096
    checkpoint_interval: int = 256  # slots between REF checkpoints
    replay_buffer_slots: int = 4096
    #: Cycles between slice-epoch barriers (0 = none).  At each multiple
    #: the framework flushes and drains the transport, re-keys the
    #: differencing stream and checkpoints the REF, making the cycle a
    #: legal slice boundary: a run resumed there is stream-identical to
    #: the serial run from that barrier on.  Sliced execution requires
    #: the serial reference run to use the same epoch so both sides see
    #: identical barrier effects.
    slice_epoch_cycles: int = 0
    #: Compiled-simulation tier (:mod:`repro.isa.jit`): hot straight-line
    #: superblocks on both the DUT and REF harts run as exec-compiled
    #: code, compiled once per process and bound per run.  On by default;
    #: ``jit=False`` pins both harts to the interpreter, the behavioural
    #: reference the equivalence suite compares against.  Events, wire
    #: bytes, counters and reports are byte-identical either way; traps,
    #: interrupts, translation windows and any cycle an armed fault's
    #: latch can fire in fall back to the interpreter by themselves.
    jit: bool = True

    def with_(self, **changes) -> "DiffConfig":
        return replace(self, **changes)


#: Baseline DiffTest (DIFF_CONFIG=Z).
CONFIG_Z = DiffConfig(name="Z")
#: +Batch (DIFF_CONFIG=B).
CONFIG_B = DiffConfig(name="B", packing="batch")
#: +Batch +NonBlock (DIFF_CONFIG=BIN).
CONFIG_BN = DiffConfig(name="BIN", packing="batch", nonblocking=True)
#: +Batch +NonBlock +Squash +Differencing (DIFF_CONFIG=EBINSD).
CONFIG_BNSD = DiffConfig(
    name="EBINSD", packing="batch", nonblocking=True, squash=True,
    differencing=True)
#: Fixed-offset packing comparator (the "existing scheme" of Figure 5).
CONFIG_FIXED = DiffConfig(name="FIXED", packing="fixed")
#: Order-coupled fusion comparator (the "existing scheme" of Figure 8).
CONFIG_COUPLED = DiffConfig(
    name="COUPLED", packing="batch", nonblocking=True, squash=True,
    differencing=True, order_coupled=True)

LADDER = (CONFIG_Z, CONFIG_B, CONFIG_BN, CONFIG_BNSD)
