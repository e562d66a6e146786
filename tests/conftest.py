"""Shared fixtures: prebuilt workload images and co-simulation helpers."""

from __future__ import annotations

import pytest

from repro.core import CONFIG_BNSD, run_cosim
from repro.dut import XIANGSHAN_DEFAULT
from repro.isa import assemble
from repro.workloads import build

#: A small, fast, deterministic mixed kernel used across many tests.
SMALL_PROGRAM = """
_start:
    li sp, 0x80100000
    li t0, 60
    li t1, 0
    li t2, 7
loop:
    mul t3, t1, t2
    add t1, t1, t0
    sd t1, -8(sp)
    ld t4, -8(sp)
    xor t5, t4, t3
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    ebreak
"""


@pytest.fixture(scope="session")
def small_image() -> bytes:
    return assemble(SMALL_PROGRAM)


@pytest.fixture(scope="session")
def microbench_image() -> bytes:
    return build("microbench", iterations=80).image


@pytest.fixture(scope="session")
def timer_workload():
    return build("timer_interrupt", interrupts=4)


@pytest.fixture(scope="session")
def mmio_workload():
    return build("mmio_echo", repeats=4)


def quick_cosim(image: bytes, diff_config=CONFIG_BNSD,
                dut_config=XIANGSHAN_DEFAULT, max_cycles: int = 60_000,
                seed: int = 2025):
    """Run a small co-simulation and return the RunResult."""
    return run_cosim(dut_config, diff_config, image, max_cycles=max_cycles,
                     seed=seed)


def tap_wire(cosim) -> list:
    """Record the bytes of every transfer ``cosim`` sends from now on;
    returns the (live) list they are appended to."""
    wire = []
    send_all = cosim.channel.send_all

    def tap(transfers):
        wire.extend(bytes(t.data) for t in transfers)
        return send_all(transfers)

    cosim.channel.send_all = tap
    return wire
