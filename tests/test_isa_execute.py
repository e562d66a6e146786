"""Tests for the functional hart: instruction semantics, traps, interrupts."""

import pytest

from repro.isa import (
    ArchState,
    Bus,
    Hart,
    assemble,
    attach_standard_devices,
)
from repro.isa import csr as CSR
from repro.isa.const import (
    DRAM_BASE,
    EXC_BREAKPOINT,
    EXC_ECALL_M,
    EXC_ECALL_U,
    EXC_ILLEGAL,
    INTERRUPT_BIT,
    IRQ_M_TIMER,
    MASK64,
    PRIV_M,
    PRIV_U,
)
from repro.isa.jit import TraceCache


def make_hart(source: str, devices: bool = False):
    state = ArchState()
    bus = Bus()
    if devices:
        attach_standard_devices(bus)
    bus.memory.store_bytes(DRAM_BASE, assemble(source))
    return Hart(state, bus), state


def run(source: str, steps: int = 10_000, devices: bool = False):
    """Run until ebreak-finish; returns the final state."""
    hart, state = make_hart(source, devices)
    for _ in range(steps):
        result = hart.step()
        if result.trap_finish is not None:
            return state, result
    raise AssertionError(f"did not finish; pc={state.pc:#x}")


def run_expr(body: str, steps: int = 10_000):
    """Run a snippet, then `li a0,0; ebreak`; returns final state."""
    return run(body + "\n li a0, 0\n ebreak")[0]


def step_until(hart, predicate, limit: int = 200):
    """Step until ``predicate(result)`` is true; returns that result."""
    for _ in range(limit):
        result = hart.step()
        if predicate(result):
            return result
    raise AssertionError("condition never reached")


class TestAlu:
    def test_add_sub(self):
        s = run_expr("li t0, 5\n li t1, 7\n add t2, t0, t1\n sub t3, t0, t1")
        assert s.xregs[7] == 12
        assert s.xregs[28] == (5 - 7) & MASK64

    def test_logical(self):
        s = run_expr("li t0, 0xF0\n li t1, 0x0F\n or t2, t0, t1\n"
                     "and t3, t0, t1\n xor t4, t0, t0")
        assert s.xregs[7] == 0xFF
        assert s.xregs[28] == 0
        assert s.xregs[29] == 0

    def test_slt_signed_unsigned(self):
        s = run_expr("li t0, -1\n li t1, 1\n slt t2, t0, t1\n sltu t3, t0, t1")
        assert s.xregs[7] == 1  # -1 < 1 signed
        assert s.xregs[28] == 0  # 0xFFFF.. > 1 unsigned

    def test_shifts_64(self):
        s = run_expr("li t0, 1\n slli t1, t0, 63\n srli t2, t1, 63\n"
                     "srai t3, t1, 63")
        assert s.xregs[6] == 1 << 63
        assert s.xregs[7] == 1
        assert s.xregs[28] == MASK64  # arithmetic shift of sign bit

    def test_w_ops_sign_extend(self):
        s = run_expr("li t0, 0x7FFFFFFF\n addiw t1, t0, 1\n"
                     "li t2, 1\n sllw t3, t2, t0")
        assert s.xregs[6] == 0xFFFFFFFF80000000  # 0x80000000 sext
        assert s.xregs[28] == 0xFFFFFFFF80000000  # shift amount masked to 31

    def test_x0_never_writes(self):
        s = run_expr("li t0, 5\n add x0, t0, t0")
        assert s.xregs[0] == 0


class TestMulDiv:
    def test_mul(self):
        s = run_expr("li t0, -3\n li t1, 7\n mul t2, t0, t1")
        assert s.xregs[7] == (-21) & MASK64

    def test_mulh_signed(self):
        s = run_expr("li t0, -1\n li t1, -1\n mulh t2, t0, t1")
        assert s.xregs[7] == 0  # (-1 * -1) >> 64

    def test_mulhu(self):
        s = run_expr("li t0, -1\n li t1, -1\n mulhu t2, t0, t1")
        assert s.xregs[7] == MASK64 - 1

    def test_div_truncates_toward_zero(self):
        s = run_expr("li t0, -7\n li t1, 2\n div t2, t0, t1\n rem t3, t0, t1")
        assert s.xregs[7] == (-3) & MASK64
        assert s.xregs[28] == (-1) & MASK64

    def test_div_by_zero(self):
        s = run_expr("li t0, 42\n li t1, 0\n div t2, t0, t1\n divu t3, t0, t1\n"
                     "rem t4, t0, t1\n remu t5, t0, t1")
        assert s.xregs[7] == MASK64
        assert s.xregs[28] == MASK64
        assert s.xregs[29] == 42
        assert s.xregs[30] == 42

    def test_div_overflow(self):
        s = run_expr("li t0, 0x8000000000000000\n li t1, -1\n"
                     "div t2, t0, t1\n rem t3, t0, t1")
        assert s.xregs[7] == 1 << 63
        assert s.xregs[28] == 0

    def test_divw(self):
        s = run_expr("li t0, 0x80000000\n li t1, -1\n divw t2, t0, t1")
        assert s.xregs[7] == 0xFFFFFFFF80000000


class TestMemory:
    def test_store_load_widths(self):
        s = run_expr("""
            li sp, 0x80100000
            li t0, 0x1122334455667788
            sd t0, 0(sp)
            lb t1, 0(sp)
            lbu t2, 0(sp)
            lh t3, 0(sp)
            lw t4, 0(sp)
            lwu t5, 0(sp)
            ld t6, 0(sp)
        """)
        assert s.xregs[6] == ((-0x78) & MASK64)  # 0x88 sign-extended
        assert s.xregs[7] == 0x88
        assert s.xregs[28] == 0x7788
        assert s.xregs[29] == 0x55667788
        assert s.xregs[30] == 0x55667788
        assert s.xregs[31] == 0x1122334455667788

    def test_unaligned_access_allowed(self):
        s = run_expr("li sp, 0x80100001\n li t0, 0xABCD\n sh t0, 0(sp)\n"
                     "lhu t1, 0(sp)")
        assert s.xregs[6] == 0xABCD


class TestControlFlow:
    def test_branch_taken_and_not(self):
        s = run_expr("""
            li t0, 1
            li t1, 2
            li t2, 0
            blt t0, t1, taken
            li t2, 99
        taken:
            addi t2, t2, 5
        """)
        assert s.xregs[7] == 5

    def test_jalr_clears_bit0(self):
        s = run_expr("""
            la t0, target
            ori t0, t0, 1
            jalr t1, 0(t0)
        target:
            addi t2, zero, 7
        """)
        assert s.xregs[7] == 7

    def test_call_ret(self):
        s = run_expr("""
            li sp, 0x80100000
            call fn
            j done
        fn:
            li t0, 11
            ret
        done:
            nop
        """)
        assert s.xregs[5] == 11


class TestCsrInstructions:
    def test_csrrw_swaps(self):
        s = run_expr("li t0, 0x123\n csrw mscratch, t0\n csrr t1, mscratch")
        assert s.xregs[6] == 0x123

    def test_csrrs_sets_bits(self):
        s = run_expr("li t0, 0x3\n csrw mscratch, t0\n li t1, 0xC\n"
                     "csrrs t2, mscratch, t1\n csrr t3, mscratch")
        assert s.xregs[7] == 0x3  # old value
        assert s.xregs[28] == 0xF

    def test_csrrc_clears_bits(self):
        s = run_expr("li t0, 0xF\n csrw mscratch, t0\n li t1, 0x3\n"
                     "csrrc t2, mscratch, t1\n csrr t3, mscratch")
        assert s.xregs[28] == 0xC

    def test_csr_immediates(self):
        s = run_expr("csrwi mscratch, 21\n csrr t0, mscratch")
        assert s.xregs[5] == 21

    def test_unimplemented_csr_traps(self):
        hart, state = make_hart("csrr t0, 0x123\n nop")
        result = hart.step()
        assert result.exception is not None
        assert result.exception[0] == EXC_ILLEGAL

    def test_readonly_csr_write_traps(self):
        hart, state = make_hart("csrw mhartid, zero")
        result = hart.step()
        assert result.exception is not None and result.exception[0] == EXC_ILLEGAL

    def test_minstret_counts_retired(self):
        s = run_expr("nop\n nop\n nop")
        # 3 nops + li a0 (1 instr); ebreak does not retire.
        assert s.csr.peek(CSR.MINSTRET) == 4


class TestTraps:
    def test_ecall_from_m(self):
        hart, state = make_hart("""
            la t0, handler
            csrw mtvec, t0
            ecall
        handler:
            nop
        """)
        result = step_until(hart, lambda r: r.exception is not None)
        assert result.exception == (EXC_ECALL_M, 0)
        assert state.csr.peek(CSR.MCAUSE) == EXC_ECALL_M
        assert state.csr.peek(CSR.MEPC) == result.pc

    def test_illegal_instruction_traps_with_tval(self):
        hart, state = make_hart(".word 0xFFFFFFFF")
        result = hart.step()
        assert result.exception[0] == EXC_ILLEGAL
        assert state.csr.peek(CSR.MTVAL) == 0xFFFFFFFF

    def test_mret_restores_priv_and_mie(self):
        s = run_expr("""
            la t0, after
            csrw mepc, t0
            li t0, 0x1888        # MPIE | MPP=M... set MPIE and MPP=11
            csrw mstatus, t0
            mret
        after:
            csrr t1, mstatus
        """)
        assert s.priv == PRIV_M
        assert s.xregs[6] & (1 << 3)  # MIE restored from MPIE

    def test_mret_to_user_mode(self):
        hart, state = make_hart("""
            la t0, target
            csrw mepc, t0
            csrw mstatus, zero   # MPP = U
            mret
        target:
            nop
        """)
        step_until(hart, lambda r: r.name == "mret")
        assert state.priv == PRIV_U

    def test_ecall_from_u_and_s_causes(self):
        # Enter U-mode, ecall -> M handler records cause.
        source = """
            la t0, handler
            csrw mtvec, t0
            la t0, user
            csrw mepc, t0
            csrw mstatus, zero
            mret
        user:
            ecall
        handler:
            csrr t1, mcause
            li a0, 0
            ebreak
        """
        state, _ = run(source)
        assert state.xregs[6] == EXC_ECALL_U

    def test_delegation_to_s_mode(self):
        source = """
            la t0, mhandler
            csrw mtvec, t0
            la t0, shandler
            csrw stvec, t0
            li t0, 0x100          # delegate ecall-from-U
            csrw medeleg, t0
            la t0, user
            csrw mepc, t0
            csrw mstatus, zero
            mret
        user:
            ecall
        shandler:
            csrr t1, scause
            li a0, 0
            ebreak
        mhandler:
            li a0, 1
            ebreak
        """
        state, result = run(source)
        # The S handler ran (t1 = scause = ecall-from-U); its own ebreak
        # then trapped to M as a breakpoint (ebreak only finishes in M).
        assert state.xregs[6] == EXC_ECALL_U
        assert state.csr.peek(CSR.SCAUSE) == EXC_ECALL_U
        assert state.csr.peek(CSR.SEPC) != 0

    def test_breakpoint_in_user_mode(self):
        source = """
            la t0, handler
            csrw mtvec, t0
            la t0, user
            csrw mepc, t0
            csrw mstatus, zero
            mret
        user:
            ebreak
        handler:
            csrr t1, mcause
            li a0, 0
            ebreak
        """
        state, _ = run(source)
        assert state.xregs[6] == EXC_BREAKPOINT

    def test_vectored_interrupt_dispatch(self):
        hart, state = make_hart("""
            la t0, vec
            ori t0, t0, 1        # vectored mode
            csrw mtvec, t0
            nop
        vec:
            nop
        """)
        step_until(hart, lambda r: r.name == "csrrw")
        base = state.csr.peek(CSR.MTVEC) & ~0x3
        assert base != 0
        hart.step(interrupt=IRQ_M_TIMER)
        assert state.pc == base + 4 * IRQ_M_TIMER
        assert state.csr.peek(CSR.MCAUSE) == INTERRUPT_BIT | IRQ_M_TIMER


class TestInterruptArbitration:
    def _hart(self):
        return make_hart("nop\n nop")

    def test_no_interrupt_when_disabled(self):
        hart, state = self._hart()
        hart.set_mip_bit(IRQ_M_TIMER, True)
        state.csr.force(CSR.MIE, 1 << IRQ_M_TIMER)
        # M-mode with MIE=0: masked.
        assert hart.pending_interrupt() is None

    def test_interrupt_when_enabled(self):
        hart, state = self._hart()
        hart.set_mip_bit(IRQ_M_TIMER, True)
        state.csr.force(CSR.MIE, 1 << IRQ_M_TIMER)
        state.csr.force(CSR.MSTATUS, 1 << 3)
        assert hart.pending_interrupt() == IRQ_M_TIMER

    def test_interrupt_needs_mie_bit(self):
        hart, state = self._hart()
        hart.set_mip_bit(IRQ_M_TIMER, True)
        state.csr.force(CSR.MSTATUS, 1 << 3)
        assert hart.pending_interrupt() is None

    def test_lower_priv_always_interruptible(self):
        hart, state = self._hart()
        hart.set_mip_bit(IRQ_M_TIMER, True)
        state.csr.force(CSR.MIE, 1 << IRQ_M_TIMER)
        state.priv = PRIV_U
        assert hart.pending_interrupt() == IRQ_M_TIMER


class TestAtomics:
    def test_amoadd(self):
        s = run_expr("""
            li sp, 0x80100000
            li t0, 10
            sd t0, 0(sp)
            li t1, 5
            amoadd.d t2, t1, (sp)
            ld t3, 0(sp)
        """)
        assert s.xregs[7] == 10  # old value
        assert s.xregs[28] == 15

    def test_amoswap_w_sign_extends(self):
        s = run_expr("""
            li sp, 0x80100000
            li t0, 0x80000001
            sw t0, 0(sp)
            li t1, 3
            amoswap.w t2, t1, (sp)
        """)
        assert s.xregs[7] == 0xFFFFFFFF80000001

    def test_amomax_amomin(self):
        s = run_expr("""
            li sp, 0x80100000
            li t0, -5
            sd t0, 0(sp)
            li t1, 3
            amomax.d t2, t1, (sp)
            ld t3, 0(sp)
        """)
        assert s.xregs[28] == 3  # max(-5, 3) signed

    def test_lr_sc_success(self):
        s = run_expr("""
            li sp, 0x80100000
            li t0, 7
            sd t0, 0(sp)
            lr.d t1, (sp)
            addi t1, t1, 1
            sc.d t2, t1, (sp)
            ld t3, 0(sp)
        """)
        assert s.xregs[7] == 0  # success
        assert s.xregs[28] == 8

    def test_sc_without_reservation_fails(self):
        s = run_expr("""
            li sp, 0x80100000
            li t0, 7
            sd t0, 0(sp)
            sc.d t2, t0, (sp)
        """)
        assert s.xregs[7] == 1  # failure

    def test_misaligned_amo_traps(self):
        hart, state = make_hart(
            "li sp, 0x80100001\n li t0, 1\n amoadd.d t1, t0, (sp)")
        result = step_until(hart, lambda r: r.exception is not None or
                            r.name.startswith("amo"))
        assert result.exception is not None


class TestFloat:
    def test_basic_arith(self):
        s = run_expr("""
            li t0, 3
            fcvt.d.l f0, t0
            li t0, 4
            fcvt.d.l f1, t0
            fadd.d f2, f0, f1
            fmul.d f3, f0, f1
            fcvt.l.d t1, f2
            fcvt.l.d t2, f3
        """)
        assert s.xregs[6] == 7
        assert s.xregs[7] == 12

    def test_fmv_roundtrip(self):
        s = run_expr("li t0, 0x4008000000000000\n fmv.d.x f1, t0\n"
                     "fmv.x.d t1, f1")
        assert s.xregs[6] == 0x4008000000000000  # 3.0

    def test_fld_fsd(self):
        s = run_expr("""
            li sp, 0x80100000
            li t0, 0x3FF0000000000000
            sd t0, 0(sp)
            fld f1, 0(sp)
            fsd f1, 8(sp)
            ld t1, 8(sp)
        """)
        assert s.xregs[6] == 0x3FF0000000000000


class TestVector:
    def test_vsetvli_caps_vl(self):
        s = run_expr("li t0, 100\n vsetvli t1, t0, e64")
        assert s.xregs[6] == 4  # VLEN=256 / SEW=64
        assert s.csr.peek(CSR.VL) == 4

    def test_vector_add(self):
        s = run_expr("""
            li sp, 0x80100000
            li t0, 4
            vsetvli t1, t0, e64
            li t2, 1
            sd t2, 0(sp)
            sd t2, 8(sp)
            sd t2, 16(sp)
            sd t2, 24(sp)
            vle64.v v1, (sp)
            vadd.vv v2, v1, v1
            li a1, 0x80100100
            vse64.v v2, (a1)
            ld t3, 0(a1)
            ld t4, 24(a1)
        """)
        assert s.xregs[28] == 2
        assert s.xregs[29] == 2
        assert s.vregs[2] == [2, 2, 2, 2]

    def test_vxor_zeroes(self):
        s = run_expr("""
            li t0, 4
            vsetvli t1, t0, e64
            vxor.vv v3, v1, v1
        """)
        assert s.vregs[3] == [0, 0, 0, 0]


class TestTrapFinish:
    def test_good_trap(self):
        _, result = run("li a0, 0\n ebreak")
        assert result.trap_finish == 0

    def test_bad_trap_code(self):
        _, result = run("li a0, 3\n ebreak")
        assert result.trap_finish == 3


class TestVectorExtended:
    def test_vmv_broadcast(self):
        s = run_expr("""
            li t0, 4
            vsetvli t1, t0, e64
            li t2, 42
            vmv.v.x v1, t2
            vmv.v.v v2, v1
        """)
        assert s.vregs[1] == [42] * 4
        assert s.vregs[2] == [42] * 4

    def test_vmul(self):
        s = run_expr("""
            li t0, 4
            vsetvli t1, t0, e64
            li t2, 7
            vmv.v.x v1, t2
            li t2, 6
            vmv.v.x v2, t2
            vmul.vv v3, v1, v2
        """)
        assert s.vregs[3] == [42] * 4

    def test_vmin_vmax_signed(self):
        s = run_expr("""
            li t0, 4
            vsetvli t1, t0, e64
            li t2, -5
            vmv.v.x v1, t2
            li t2, 3
            vmv.v.x v2, t2
            vmin.vv v3, v1, v2
            vmax.vv v4, v1, v2
            vminu.vv v5, v1, v2
        """)
        assert s.vregs[3] == [(-5) & ((1 << 64) - 1)] * 4
        assert s.vregs[4] == [3] * 4
        assert s.vregs[5] == [3] * 4  # unsigned: -5 is huge

    def test_vector_shifts(self):
        s = run_expr("""
            li t0, 4
            vsetvli t1, t0, e64
            li t2, 1
            vmv.v.x v1, t2
            li t2, 5
            vmv.v.x v2, t2
            vsll.vv v3, v1, v2
            vsrl.vv v4, v3, v2
        """)
        assert s.vregs[3] == [32] * 4
        assert s.vregs[4] == [1] * 4

    def test_partial_vl_tail_undisturbed(self):
        s = run_expr("""
            li t0, 4
            vsetvli t1, t0, e64
            li t2, 9
            vmv.v.x v1, t2
            li t0, 2
            vsetvli t1, t0, e64
            li t2, 1
            vmv.v.x v1, t2
        """)
        assert s.vregs[1] == [1, 1, 9, 9]


# ----------------------------------------------------------------------
# Ops no workload executes: each edge case through the interpreter and
# through one compiled superblock (both bind the same ALU functions)
# ----------------------------------------------------------------------
INT32_MIN = 0x80000000
SEXT_INT32_MIN = 0xFFFFFFFF80000000


def run_compiled(body: str):
    """Run a straight-line snippet, up to its final ``ebreak``, through
    compiled DUT blocks only."""
    source = body + "\n li a0, 0\n ebreak"
    hart, state = make_hart(source)
    cache = TraceCache(hart.bus, "dut", warmup=0)
    end = DRAM_BASE + len(assemble(source)) - 4
    while state.pc != end:
        results = cache.run_block(hart, state.pc, 1 << 30)
        if results is None:  # the first sighting compiles the block
            results = cache.run_block(hart, state.pc, 1 << 30)
        assert results, f"interpreter fallback at {state.pc:#x}"
    return state


@pytest.fixture(params=["interp", "jit"])
def execute(request):
    return run_expr if request.param == "interp" else run_compiled


class TestUnexecutedOps:
    def test_srlw_shift_amounts(self, execute):
        s = execute(f"li t0, {INT32_MIN}\n li t1, 0\n srlw t2, t0, t1\n"
                    "li t1, 31\n srlw t3, t0, t1\n"
                    "li t1, 32\n srlw t4, t0, t1")
        assert s.xregs[7] == SEXT_INT32_MIN  # shift 0 still sign-extends
        assert s.xregs[28] == 1
        assert s.xregs[29] == SEXT_INT32_MIN  # 32 & 31 == 0

    def test_sraw_shift_amounts(self, execute):
        s = execute(f"li t0, {INT32_MIN}\n li t1, 0\n sraw t2, t0, t1\n"
                    "li t1, 31\n sraw t3, t0, t1\n"
                    "li t1, 32\n sraw t4, t0, t1\n"
                    "li t5, 0x1234567800000010\n li t1, 4\n"
                    "sraw t6, t5, t1")
        assert s.xregs[7] == SEXT_INT32_MIN
        assert s.xregs[28] == MASK64  # the sign bit fills all 32 bits
        assert s.xregs[29] == SEXT_INT32_MIN
        assert s.xregs[31] == 1  # the upper word is ignored

    def test_divuw(self, execute):
        s = execute(f"li t0, {INT32_MIN}\n li t1, 1\n divuw t2, t0, t1\n"
                    "li t1, 0\n divuw t3, t0, t1\n"
                    "li t0, -1\n li t1, 2\n divuw t4, t0, t1\n"
                    "li t0, 0x100000007\n li t1, 0x100000002\n"
                    "divuw t5, t0, t1")
        assert s.xregs[7] == SEXT_INT32_MIN  # the 32-bit quotient sign-extends
        assert s.xregs[28] == MASK64  # divide by zero
        assert s.xregs[29] == 0x7FFFFFFF
        assert s.xregs[30] == 3

    def test_remuw(self, execute):
        s = execute(f"li t0, {INT32_MIN}\n li t1, 0\n remuw t2, t0, t1\n"
                    "li t0, 5\n remuw t3, t0, t1\n"
                    "li t0, -1\n li t1, 16\n remuw t4, t0, t1\n"
                    f"li t0, {INT32_MIN + 1}\n li t1, {INT32_MIN}\n"
                    "remuw t5, t0, t1")
        assert s.xregs[7] == SEXT_INT32_MIN  # by zero: the dividend, sext
        assert s.xregs[28] == 5
        assert s.xregs[29] == 15
        assert s.xregs[30] == 1

    def test_mulhsu_negative_rs1(self, execute):
        s = execute("li t0, -1\n li t1, 1\n mulhsu t2, t0, t1\n"
                    "li t1, 0\n mulhsu t3, t0, t1\n"
                    "li t0, -4\n li t1, 0x8000000000000000\n"
                    "mulhsu t4, t0, t1\n"
                    "li t0, 0x8000000000000000\n li t1, -1\n"
                    "mulhsu t5, t0, t1\n"
                    "li t0, 2\n mulhsu t6, t0, t1")
        assert s.xregs[7] == MASK64  # -1 * 1 = -1: high half all ones
        assert s.xregs[28] == 0
        assert s.xregs[29] == MASK64 - 1  # -4 * 2^63 = -2^65
        # -2^63 * (2^64 - 1), rs2 unsigned (mulh would give 0 here).
        assert s.xregs[30] == 1 << 63
        assert s.xregs[31] == 1  # 2 * (2^64 - 1)

    def test_div_rem_large_dividends_are_exact(self, execute):
        s = execute("li t0, 0x4000000000000001\n li t1, 1\n"
                    "div t2, t0, t1\n rem t3, t0, t1\n"
                    "li t0, 0x7FFFFFFFFFFFFFFF\n li t1, 7\n"
                    "div t4, t0, t1\n rem t5, t0, t1\n"
                    "li t0, -0x4000000000000001\n li t1, 3\n"
                    "div t6, t0, t1\n rem s1, t0, t1")
        assert s.xregs[7] == 0x4000000000000001
        assert s.xregs[28] == 0
        assert s.xregs[29] == 1317624576693539401
        assert s.xregs[30] == 0  # 2^63 - 1 == 7 * 1317624576693539401
        # -(2^62 + 1) / 3 truncates toward zero; the remainder keeps the
        # dividend's sign.
        assert s.xregs[31] == -1537228672809129301 & MASK64
        assert s.xregs[9] == -2 & MASK64


def test_vand_vv_is_interpreted():
    s = run_expr("li t0, 4\n vsetvli t1, t0, e64\n"
                 "li t2, 0xF0F0F0F0F0F0F0F0\n vmv.v.x v1, t2\n"
                 "li t2, 0xFF00FF00FF00FF00\n vmv.v.x v2, t2\n"
                 "vand.vv v3, v2, v1\n"
                 "li t0, 2\n vsetvli t1, t0, e64\n vand.vv v4, v2, v1")
    assert s.vregs[3] == [0xF000F000F000F000] * 4
    # Elements past vl are left as they were.
    assert s.vregs[4] == [0xF000F000F000F000] * 2 + [0, 0]
    # The compiled tier never traces a vector op.
    hart, _ = make_hart("vand.vv v3, v2, v1\n li a0, 0\n ebreak")
    assert TraceCache(hart.bus, "dut", warmup=0)._trace(DRAM_BASE) is None
