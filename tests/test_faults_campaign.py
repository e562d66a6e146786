"""Fault-injection campaign: every Table 6 bug class is detectable.

Each fault is paired with a workload that keeps the corrupted state
architecturally live, then injected into a full co-simulation; the checker
must flag a mismatch and (where applicable) Replay must localize it.
"""

import pytest

from repro.core import CONFIG_BNSD, CoSimulation
from repro.dut import (
    CATEGORY_EXCEPTION,
    CATEGORY_MEMORY,
    CATEGORY_VECTOR,
    FAULT_CATALOGUE,
    XIANGSHAN_DEFAULT,
    fault_by_name,
)
from repro.isa import assemble
from repro.workloads import build

#: Integer accumulator loop: every register is live.
INT_LOOP = """
_start:
    li sp, 0x80100000
    li t0, 150
    li t1, 0
loop:
    add t1, t1, t0
    sd t1, -8(sp)
    ld t2, -8(sp)
    add t1, t1, t2
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    ebreak
"""

#: Trap-heavy loop for exception/interrupt faults.
TRAP_LOOP = """
_start:
    li sp, 0x80100000
    la t0, handler
    csrw mtvec, t0
    li s0, 0
    li s1, 40
loop:
    ecall
    blt s0, s1, loop
    li a0, 0
    ebreak
.align 3
handler:
    addi s0, s0, 1
    csrr t1, mepc
    addi t1, t1, 4
    csrw mepc, t1
    mret
"""

#: A single trap at the very end of a compute loop: nth=1 trap faults
#: corrupt it and the corruption survives to the final fusion window.
TRAP_END = """
_start:
    li sp, 0x80100000
    la t0, handler
    csrw mtvec, t0
    li t0, 60
    li t1, 0
loop:
    add t1, t1, t0
    addi t0, t0, -1
    bnez t0, loop
    ecall
    li a0, 0
    ebreak
.align 3
handler:
    csrr t2, mepc
    addi t2, t2, 4
    csrw mepc, t2
    mret
"""

#: Two back-to-back traps at the end of a compute loop: the second trap's
#: corrupted state survives to the final fusion window (exercising the
#: nth-occurrence fault of PR #3778).
TRAP_TAIL = """
_start:
    li sp, 0x80100000
    la t0, handler
    csrw mtvec, t0
    li t0, 60
    li t1, 0
loop:
    add t1, t1, t0
    addi t0, t0, -1
    bnez t0, loop
    ecall
    ecall
    li a0, 0
    ebreak
.align 3
handler:
    csrr t2, mepc
    addi t2, t2, 4
    csrw mepc, t2
    mret
"""

#: Cache-missing memory walk for hierarchy faults.
MEM_WALK = """
_start:
    li s0, 0x80200000
    li t0, 0
loop:
    add t1, s0, t0
    sd t0, 0(t1)
    ld t2, 0(t1)
    bne t2, t0, bad
    addi t0, t0, 64
    li t3, 40960
    blt t0, t3, loop
    li a0, 0
    ebreak
bad:
    li a0, 1
    ebreak
"""

#: Vector + FP loop whose results feed the integer accumulator losslessly.
VEC_LOOP = """
_start:
    li sp, 0x80100000
    li s0, 0x80200000
    li t0, 4
    vsetvli t1, t0, e64
    li s1, 60
    li t4, 1
    sd t4, 0(s0)
    sd t4, 8(s0)
    sd t4, 16(s0)
    sd t4, 24(s0)
loop:
    vle64.v v1, (s0)
    vadd.vv v2, v1, v1
    vse64.v v2, (s0)
    fmv.d.x f1, t4
    fmv.x.d t5, f1
    add t4, t4, t5
    ld t6, 0(s0)
    add t4, t4, t6
    andi t4, t4, 0xFFF
    ori t4, t4, 1
    sd t4, 0(s0)
    addi s1, s1, -1
    bnez s1, loop
    li a0, 0
    ebreak
"""

#: Which workload exercises each fault, and a trigger point.
_CAMPAIGN = {
    # exception/interrupt category
    "wrong_virtual_address": (TRAP_END, 60),
    "misaligned_wakeup": (INT_LOOP, 200),
    "improper_interrupt_response": (None, 0),  # uses timer workload
    "wrong_exception_cause": (TRAP_END, 60),
    "double_trap_state": (TRAP_TAIL, 60),
    "interrupt_tval_leak": (TRAP_END, 60),
    # memory hierarchy category
    "store_queue_mismatch": (INT_LOOP, 200),
    "cache_line_corruption": (MEM_WALK, 100),
    "icache_refill_corruption": (INT_LOOP, 40),
    "tlb_wrong_permission": (None, 0),  # uses virtual_memory workload
    "sbuffer_lost_bytes": (INT_LOOP, 200),
    "amo_wrong_old_value": (None, 0),  # uses atomics workload
    # vector/control category
    "wrong_vstart_update": (VEC_LOOP, 60),
    "vs_dirty_wrong": (INT_LOOP, 200),
    "vector_lane_corrupt": (VEC_LOOP, 60),
    "vector_exception_track": (VEC_LOOP, 60),
    "fp_flag_corrupt": (INT_LOOP, 200),
    "fp_writeback_corrupt": (VEC_LOOP, 60),
    "control_flow_wdata": (INT_LOOP, 200),
}


def _image_for(name: str):
    source, trigger = _CAMPAIGN[name]
    if source is not None:
        return assemble(source), trigger, 80_000
    if name == "improper_interrupt_response":
        wl = build("timer_interrupt", interrupts=5)
        return wl.image, 100, wl.max_cycles
    if name == "tlb_wrong_permission":
        wl = build("virtual_memory", rounds=8)
        return wl.image, 30, wl.max_cycles
    wl = build("atomics", iterations=60)
    return wl.image, 100, wl.max_cycles


def _run(name: str, config=CONFIG_BNSD):
    image, trigger, budget = _image_for(name)
    cosim = CoSimulation(XIANGSHAN_DEFAULT, config, image)
    fault_by_name(name).install(cosim.dut.cores[0], trigger)
    return cosim.run(max_cycles=budget)


@pytest.mark.parametrize("spec", FAULT_CATALOGUE, ids=lambda s: s.name)
def test_fault_detected(spec):
    result = _run(spec.name)
    assert result.mismatch is not None, f"{spec.name} went undetected"


@pytest.mark.parametrize("spec", FAULT_CATALOGUE, ids=lambda s: s.name)
def test_fault_produces_debug_report(spec):
    result = _run(spec.name)
    assert result.debug_report is not None
    assert result.debug_report.replayed_events >= 0
    rendered = result.debug_report.render()
    assert "component" in rendered


def test_campaign_covers_all_three_categories():
    categories = {spec.category for spec in FAULT_CATALOGUE}
    assert categories == {CATEGORY_EXCEPTION, CATEGORY_MEMORY,
                          CATEGORY_VECTOR}


def test_component_localization_sample():
    """For a probe-level fault the mismatching event directly implicates
    the right microarchitectural component (behavioural semantics)."""
    result = _run("cache_line_corruption")
    assert result.mismatch.component == "dcache"


def test_detection_speed_advantage():
    """Modeled detection time: DiffTest-H on Palladium finds the same bug
    orders of magnitude faster than Verilator (Figure 14 shape)."""
    from repro.comm import PALLADIUM, VERILATOR_16T

    result = _run("store_queue_mismatch")
    assert result.mismatch is not None
    fast = result.breakdown(PALLADIUM, XIANGSHAN_DEFAULT.gates_millions, True)
    slow = result.breakdown(VERILATOR_16T, XIANGSHAN_DEFAULT.gates_millions,
                            False)
    assert fast.total_us < slow.total_us / 20


class TestFaultCatalogueLookup:
    def test_dut_fault_unknown_name_lists_valid(self):
        with pytest.raises(KeyError) as excinfo:
            fault_by_name("nope")
        message = excinfo.value.args[0]
        assert "'nope'" in message
        assert "cache_line_corruption" in message

    def test_dut_fault_known_name_still_resolves(self):
        assert fault_by_name("cache_line_corruption").name == \
            "cache_line_corruption"
