"""Instruction execution: a functional RV64 hart.

:class:`Hart` couples an :class:`~repro.isa.state.ArchState` with a
:class:`~repro.isa.memory.Bus` and executes one instruction per
:meth:`Hart.step`.  The same class implements both sides of a
co-simulation:

* the **DUT**'s functional core runs with ``mmio_policy="execute"`` —
  device accesses really happen and their results are non-deterministic
  from the checker's point of view;
* the **REF** runs with ``mmio_policy="skip"`` — it never touches devices;
  MMIO loads take their value from the synchronised DUT event and MMIO
  stores are dropped (the "skip" mechanism of DiffTest).

Fault-injection hooks (used by :mod:`repro.dut.faults`) intercept register
writes, stores and trap entry so an injected bug corrupts the DUT's state
and its emitted events *consistently*, as a real RTL bug would.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from . import csr as CSR
from .const import (
    ACCESS_FETCH,
    ACCESS_LOAD,
    ACCESS_STORE,
    EXC_BREAKPOINT,
    EXC_ECALL_M,
    EXC_ECALL_S,
    EXC_ECALL_U,
    EXC_ILLEGAL,
    EXC_LOAD_MISALIGNED,
    EXC_STORE_MISALIGNED,
    INTERRUPT_BIT,
    IRQ_M_EXT,
    IRQ_M_SOFT,
    IRQ_M_TIMER,
    IRQ_S_EXT,
    IRQ_S_SOFT,
    IRQ_S_TIMER,
    MASK64,
    MSTATUS_MIE,
    MSTATUS_MPIE,
    MSTATUS_MPP_SHIFT,
    MSTATUS_SIE,
    MSTATUS_SPIE,
    MSTATUS_SPP,
    PRIV_M,
    PRIV_S,
    PRIV_U,
    sext,
    to_s64,
    to_u64,
)
from .csr import IllegalCsr
from .compressed import decode_compressed, is_compressed
from .decode import DecodedInstr, IllegalInstruction, decode
from .memory import Bus, MemoryError64
from .mmu import PageFault, Translation, translate, translation_active
from .state import VREG_WORDS, ArchState


class Trap(Exception):
    """Internal signal: the current instruction raises an exception."""

    def __init__(self, cause: int, tval: int = 0) -> None:
        super().__init__(f"trap cause={cause} tval={tval:#x}")
        self.cause = cause
        self.tval = tval


class UnsynchronizedNde(Exception):
    """The REF hit an MMIO load without a synchronised value — a checker
    protocol error (the DUT event stream did not flag the instruction)."""


@dataclass
class MemOp:
    """One memory operation performed by a step (for event generation)."""

    kind: str  # "load" | "store" | "amo"
    vaddr: int
    paddr: int
    size: int
    value: int  # loaded value (load/amo out) or stored value
    store_value: int = 0  # for amo: value written back
    mmio: bool = False


@dataclass
class StepResult:
    """Everything the monitor needs to know about one architectural step."""

    pc: int
    next_pc: int
    instr: int = 0
    name: str = ""
    reg_writes: List[Tuple[str, int, int]] = field(default_factory=list)
    mem_ops: List[MemOp] = field(default_factory=list)
    translations: List[Tuple[int, Translation]] = field(default_factory=list)
    exception: Optional[Tuple[int, int]] = None  # (cause, tval)
    interrupt: Optional[int] = None
    mmio_skip: bool = False
    vconfig: Optional[Tuple[int, int]] = None  # (vl, vtype) after vset*
    lr_sc: Optional[Tuple[int, int]] = None  # (paddr, success)
    trap_finish: Optional[int] = None  # exit code; simulation ends
    is_rvc: bool = False

    @property
    def retired(self) -> bool:
        """True if an instruction architecturally retired this step."""
        return self.interrupt is None and self.trap_finish is None


@dataclass
class FaultHooks:
    """Injection points used by the fault framework (identity by default)."""

    on_reg_write: Optional[Callable[[int, str, int, int], int]] = None
    on_store: Optional[Callable[[int, int, int], int]] = None
    on_trap: Optional[Callable[[int, int], Tuple[int, int]]] = None


def _f2b(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _b2f(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits & MASK64))[0]


class Hart:
    """A functional RV64IMAFD(+minimal V) hart."""

    def __init__(self, state: ArchState, bus: Bus) -> None:
        self.state = state
        self.bus = bus
        self.instret = 0
        self.hooks = FaultHooks()
        self._decode_cache = {}
        #: Optional :class:`repro.isa.jit.TraceCache` (mode="ref") attached
        #: by the framework; :meth:`step` dispatches through it when set.
        self.jit = None
        #: ``(csr_version, priv) -> pending cause`` memo for
        #: :meth:`pending_interrupt` (every mip/mie/mstatus/mideleg write
        #: bumps the CSR version; the hot counters do not).
        self._irq_cache: Optional[Tuple[Tuple[int, int], Optional[int]]] = None

    # ------------------------------------------------------------------
    # Interrupt arbitration
    # ------------------------------------------------------------------
    _IRQ_PRIORITY = (IRQ_M_EXT, IRQ_M_SOFT, IRQ_M_TIMER, IRQ_S_EXT, IRQ_S_SOFT,
                     IRQ_S_TIMER)

    def pending_interrupt(self) -> Optional[int]:
        """The highest-priority enabled pending interrupt, if any.

        Only the DUT calls this (it owns device state and mip); the REF
        takes interrupts exclusively when synchronised from DUT events.
        """
        state = self.state
        key = (state.csr._version, state.priv)
        cached = self._irq_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        cause = self._arbitrate_interrupt()
        self._irq_cache = (key, cause)
        return cause

    def _arbitrate_interrupt(self) -> Optional[int]:
        state = self.state
        pending = state.csr.peek(CSR.MIP) & state.csr.peek(CSR.MIE)
        if not pending:
            return None
        mstatus = state.csr.peek(CSR.MSTATUS)
        mideleg = state.csr.peek(CSR.MIDELEG)
        for cause in self._IRQ_PRIORITY:
            if not pending & (1 << cause):
                continue
            delegated = bool(mideleg & (1 << cause))
            if not delegated:
                enabled = state.priv < PRIV_M or (
                    state.priv == PRIV_M and mstatus & MSTATUS_MIE
                )
            else:
                enabled = state.priv < PRIV_S or (
                    state.priv == PRIV_S and mstatus & MSTATUS_SIE
                )
            if enabled:
                return cause
        return None

    def set_mip_bit(self, cause: int, value: bool) -> None:
        mip = self.state.csr.peek(CSR.MIP)
        new = (mip | (1 << cause)) if value else (mip & ~(1 << cause))
        if new != mip:
            self.state.csr.force(CSR.MIP, new)

    # ------------------------------------------------------------------
    # Trap entry / return
    # ------------------------------------------------------------------
    def enter_trap(self, cause: int, tval: int, is_interrupt: bool) -> None:
        state = self.state
        if self.hooks.on_trap is not None:
            cause, tval = self.hooks.on_trap(cause, tval)
        deleg = state.csr.peek(CSR.MIDELEG if is_interrupt else CSR.MEDELEG)
        to_s = state.priv <= PRIV_S and bool(deleg & (1 << cause))
        mstatus = state.csr.peek(CSR.MSTATUS)
        cause_value = (INTERRUPT_BIT | cause) if is_interrupt else cause
        if to_s:
            state.csr.force(CSR.SEPC, state.pc)
            state.csr.force(CSR.SCAUSE, cause_value)
            state.csr.force(CSR.STVAL, tval)
            new_status = mstatus & ~(MSTATUS_SPIE | MSTATUS_SPP | MSTATUS_SIE)
            if mstatus & MSTATUS_SIE:
                new_status |= MSTATUS_SPIE
            if state.priv == PRIV_S:
                new_status |= MSTATUS_SPP
            state.csr.force(CSR.MSTATUS, new_status)
            state.set_priv(PRIV_S)
            tvec = state.csr.peek(CSR.STVEC)
        else:
            state.csr.force(CSR.MEPC, state.pc)
            state.csr.force(CSR.MCAUSE, cause_value)
            state.csr.force(CSR.MTVAL, tval)
            new_status = mstatus & ~(MSTATUS_MPIE | (3 << MSTATUS_MPP_SHIFT) | MSTATUS_MIE)
            if mstatus & MSTATUS_MIE:
                new_status |= MSTATUS_MPIE
            new_status |= state.priv << MSTATUS_MPP_SHIFT
            state.csr.force(CSR.MSTATUS, new_status)
            state.set_priv(PRIV_M)
            tvec = state.csr.peek(CSR.MTVEC)
        base = tvec & ~0x3
        if is_interrupt and tvec & 0x3 == 1:
            base += 4 * cause
        state.set_pc(base)

    def _xret(self, from_m: bool) -> int:
        state = self.state
        mstatus = state.csr.peek(CSR.MSTATUS)
        if from_m:
            if state.priv != PRIV_M:
                raise Trap(EXC_ILLEGAL)
            new_priv = (mstatus >> MSTATUS_MPP_SHIFT) & 3
            new_status = mstatus | MSTATUS_MPIE
            if mstatus & MSTATUS_MPIE:
                new_status |= MSTATUS_MIE
            else:
                new_status &= ~MSTATUS_MIE
            new_status &= ~(3 << MSTATUS_MPP_SHIFT)
            state.csr.force(CSR.MSTATUS, new_status)
            state.set_priv(new_priv)
            return state.csr.peek(CSR.MEPC)
        if state.priv < PRIV_S:
            raise Trap(EXC_ILLEGAL)
        new_priv = PRIV_S if mstatus & MSTATUS_SPP else PRIV_U
        new_status = mstatus | MSTATUS_SPIE
        if mstatus & MSTATUS_SPIE:
            new_status |= MSTATUS_SIE
        else:
            new_status &= ~MSTATUS_SIE
        new_status &= ~MSTATUS_SPP
        state.csr.force(CSR.MSTATUS, new_status)
        state.set_priv(new_priv)
        return state.csr.peek(CSR.SEPC)

    # ------------------------------------------------------------------
    # Address translation + memory helpers
    # ------------------------------------------------------------------
    def _translate(self, vaddr: int, access: int, result: StepResult) -> int:
        state = self.state
        satp = state.csr.peek(CSR.SATP)
        if not translation_active(satp, state.priv):
            return vaddr
        translation = translate(
            self.bus.memory, satp, vaddr, access, state.priv,
            state.csr.peek(CSR.MSTATUS),
        )
        result.translations.append((access, translation))
        return translation.paddr

    def _load(
        self, vaddr: int, size: int, result: StepResult,
        mmio_policy: str, mmio_load_value: Optional[int],
    ) -> int:
        paddr = self._translate(vaddr, ACCESS_LOAD, result)
        if self.bus.is_mmio(paddr):
            if mmio_policy == "skip":
                if mmio_load_value is None:
                    raise UnsynchronizedNde(f"MMIO load @ {paddr:#x}")
                value = mmio_load_value & ((1 << (8 * size)) - 1)
            else:
                value, _ = self.bus.load(paddr, size)
            result.mmio_skip = True
            result.mem_ops.append(
                MemOp("load", vaddr, paddr, size, value, mmio=True)
            )
            return value
        value = self.bus.memory.load(paddr, size)
        result.mem_ops.append(MemOp("load", vaddr, paddr, size, value))
        return value

    def _store(
        self, vaddr: int, size: int, value: int, result: StepResult,
        mmio_policy: str,
    ) -> None:
        paddr = self._translate(vaddr, ACCESS_STORE, result)
        value &= (1 << (8 * size)) - 1
        if self.hooks.on_store is not None:
            value = self.hooks.on_store(paddr, size, value) & ((1 << (8 * size)) - 1)
        if self.bus.is_mmio(paddr):
            if mmio_policy != "skip":
                self.bus.store(paddr, size, value)
            result.mmio_skip = True
            result.mem_ops.append(
                MemOp("store", vaddr, paddr, size, value, mmio=True)
            )
            return
        self.bus.memory.store(paddr, size, value)
        result.mem_ops.append(MemOp("store", vaddr, paddr, size, value))

    # ------------------------------------------------------------------
    # Register-write helper (fault-hookable)
    # ------------------------------------------------------------------
    def _write_reg(self, result: StepResult, kind: str, index: int, value: int):
        if self.hooks.on_reg_write is not None:
            value = self.hooks.on_reg_write(self.instret, kind, index, value)
        if kind == "x":
            self.state.write_x(index, value)
            if index != 0:
                result.reg_writes.append(("x", index, value & MASK64))
        elif kind == "f":
            self.state.write_f(index, value)
            result.reg_writes.append(("f", index, value & MASK64))
        else:
            raise ValueError(kind)

    def _write_vreg(self, result: StepResult, index: int, words: List[int]):
        if self.hooks.on_reg_write is not None:
            words = [
                self.hooks.on_reg_write(self.instret, "v",
                                        index * VREG_WORDS + i, word)
                for i, word in enumerate(words)
            ]
        self.state.write_v(index, words)
        for word_index, word in enumerate(words):
            result.reg_writes.append(("v", index * VREG_WORDS + word_index, word))

    # ------------------------------------------------------------------
    # The step
    # ------------------------------------------------------------------
    def step(
        self,
        interrupt: Optional[int] = None,
        mmio_policy: str = "execute",
        mmio_load_value: Optional[int] = None,
    ) -> StepResult:
        """Take an interrupt, or fetch/decode/execute one instruction."""
        state = self.state
        if interrupt is not None:
            result = StepResult(pc=state.pc, next_pc=state.pc, interrupt=interrupt)
            self.enter_trap(interrupt, 0, is_interrupt=True)
            result.next_pc = state.pc
            return result

        if self.jit is not None and mmio_load_value is None:
            # Compiled-simulation tier (repro.isa.jit): one specialised
            # stepper per hot PC; None means "interpret this one".
            compiled = self.jit.ref_step(self)
            if compiled is not None:
                return compiled

        result = StepResult(pc=state.pc, next_pc=state.pc)
        try:
            fetch_pc = self._translate(state.pc, ACCESS_FETCH, result)
            word = self.bus.fetch(fetch_pc)
            if is_compressed(word):
                hword = word & 0xFFFF
                result.instr = hword
                result.is_rvc = True
                decoded = self._decode_cache.get(("c", hword))
                if decoded is None:
                    decoded = decode_compressed(hword)
                    self._decode_cache[("c", hword)] = decoded
            else:
                result.instr = word
                decoded = self._decode_cache.get(word)
                if decoded is None:
                    decoded = decode(word)
                    self._decode_cache[word] = decoded
            result.name = decoded.name
            next_pc = self._execute(decoded, result, mmio_policy, mmio_load_value)
            if result.trap_finish is not None:
                return result
            state.set_pc(next_pc if next_pc is not None
                         else (result.pc + decoded.length) & MASK64)
            result.next_pc = state.pc
            self.instret += 1
            state.csr.force(CSR.MINSTRET, state.csr.peek(CSR.MINSTRET) + 1)
            return result
        except IllegalInstruction as exc:
            cause, tval = EXC_ILLEGAL, exc.word
        except PageFault as exc:
            cause, tval = exc.cause, exc.vaddr
        except MemoryError64 as exc:
            cause, tval = EXC_LOAD_MISALIGNED, exc.addr
        except Trap as exc:
            cause, tval = exc.cause, exc.tval
        # Only (cause, tval) leave the handlers: a caught exception kept in
        # a local would hold its traceback, and through it this frame and
        # every caller's, until the cycle collector runs.
        result.exception = (cause, tval)
        result.reg_writes.clear()
        self.enter_trap(cause, tval, is_interrupt=False)
        result.next_pc = state.pc
        return result

    # ------------------------------------------------------------------
    def _execute(
        self,
        d: DecodedInstr,
        result: StepResult,
        mmio_policy: str,
        mmio_load_value: Optional[int],
    ) -> Optional[int]:
        """Execute one decoded instruction; returns the next PC (or None
        for PC+4)."""
        state = self.state
        name = d.name
        rx = state.read_x
        pc = result.pc

        # --- RV64I ----------------------------------------------------
        if name == "lui":
            self._write_reg(result, "x", d.rd, d.imm)
        elif name == "auipc":
            self._write_reg(result, "x", d.rd, pc + d.imm)
        elif name == "jal":
            self._write_reg(result, "x", d.rd, pc + d.length)
            return (pc + d.imm) & MASK64
        elif name == "jalr":
            target = (rx(d.rs1) + d.imm) & ~1 & MASK64
            self._write_reg(result, "x", d.rd, pc + d.length)
            return target
        elif name in _BRANCHES:
            if _BRANCHES[name](to_s64(rx(d.rs1)), to_s64(rx(d.rs2)),
                               rx(d.rs1), rx(d.rs2)):
                return (pc + d.imm) & MASK64
        elif name in _LOADS:
            size, signed = _LOADS[name]
            value = self._load((rx(d.rs1) + d.imm) & MASK64, size, result,
                               mmio_policy, mmio_load_value)
            if signed:
                value = sext(value, 8 * size) & MASK64
            self._write_reg(result, "x", d.rd, value)
        elif name in _STORES:
            size = _STORES[name]
            self._store((rx(d.rs1) + d.imm) & MASK64, size, rx(d.rs2), result,
                        mmio_policy)
        elif name in _ALU_IMM:
            self._write_reg(result, "x", d.rd, _ALU_IMM[name](rx(d.rs1), d.imm))
        elif name in _ALU_REG:
            self._write_reg(result, "x", d.rd, _ALU_REG[name](rx(d.rs1), rx(d.rs2)))
        elif name == "fence" or name == "fence.i" or name == "sfence.vma":
            pass
        elif name == "wfi":
            pass
        # --- system ----------------------------------------------------
        elif name == "ecall":
            cause = {PRIV_U: EXC_ECALL_U, PRIV_S: EXC_ECALL_S, PRIV_M: EXC_ECALL_M}
            raise Trap(cause[state.priv])
        elif name == "ebreak":
            if state.priv == PRIV_M:
                # DiffTest convention: ebreak in M-mode ends the simulation
                # with a0 as the exit code (0 = HIT GOOD TRAP).
                result.trap_finish = rx(10) & 0xFF
                return None
            raise Trap(EXC_BREAKPOINT, pc)
        elif name == "mret":
            return self._xret(from_m=True)
        elif name == "sret":
            return self._xret(from_m=False)
        elif name in ("csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci"):
            self._csr_op(d, result)
        # --- RV64A ------------------------------------------------------
        elif name.startswith("lr."):
            self._lr(d, result)
        elif name.startswith("sc."):
            self._sc(d, result, mmio_policy)
        elif name.startswith("amo"):
            self._amo(d, result, mmio_policy)
        # --- RV64FD -----------------------------------------------------
        elif name == "fld":
            value = self._load((rx(d.rs1) + d.imm) & MASK64, 8, result,
                               mmio_policy, mmio_load_value)
            self._write_reg(result, "f", d.rd, value)
        elif name == "fsd":
            self._store((rx(d.rs1) + d.imm) & MASK64, 8, state.read_f(d.rs2),
                        result, mmio_policy)
        elif name in _FP_OPS:
            self._fp_op(d, result)
        # --- vector ------------------------------------------------------
        elif name == "vsetvli":
            self._vsetvli(d, result)
        elif name == "vle64.v":
            self._vload(d, result, mmio_policy, mmio_load_value)
        elif name == "vse64.v":
            self._vstore(d, result, mmio_policy)
        elif name in _VEC_OPS or name in ("vadd.vx", "vmv.v.x", "vmv.v.v"):
            self._vec_op(d, result)
        else:
            raise IllegalInstruction(d.raw)
        return None

    # ------------------------------------------------------------------
    def _csr_op(self, d: DecodedInstr, result: StepResult) -> None:
        state = self.state
        addr = d.csr
        if (addr >> 8) & 3 > state.priv:
            raise Trap(EXC_ILLEGAL, d.raw)
        write_value = d.rs1 if d.name.endswith("i") else state.read_x(d.rs1)
        op = d.name[4]  # csrr[w|s|c](i)
        writes = op == "w" or (op in "sc" and (d.rs1 != 0))
        if writes and (addr >> 10) == 3:
            raise Trap(EXC_ILLEGAL, d.raw)  # read-only CSR space
        try:
            old = state.csr.read(addr)
            if writes:
                if op == "w":
                    new = write_value
                elif op == "s":
                    new = old | write_value
                else:
                    new = old & ~write_value
                state.csr.write(addr, new)
        except IllegalCsr:
            raise Trap(EXC_ILLEGAL, d.raw) from None
        self._write_reg(result, "x", d.rd, old)

    # ------------------------------------------------------------------
    def _aligned(self, addr: int, size: int) -> None:
        if addr % size:
            raise Trap(EXC_LOAD_MISALIGNED, addr)

    def _lr(self, d: DecodedInstr, result: StepResult) -> None:
        size = 4 if d.name.endswith(".w") else 8
        vaddr = self.state.read_x(d.rs1)
        self._aligned(vaddr, size)
        value = self._load(vaddr, size, result, "execute", None)
        if size == 4:
            value = sext(value, 32) & MASK64
        paddr = result.mem_ops[-1].paddr
        self.state.set_reservation(paddr)
        self._write_reg(result, "x", d.rd, value)
        result.lr_sc = (paddr, 1)

    def _sc(self, d: DecodedInstr, result: StepResult, mmio_policy: str) -> None:
        size = 4 if d.name.endswith(".w") else 8
        vaddr = self.state.read_x(d.rs1)
        if vaddr % size:
            raise Trap(EXC_STORE_MISALIGNED, vaddr)
        paddr = self._translate(vaddr, ACCESS_STORE, result)
        success = self.state.lr_reservation == paddr
        if success:
            self._store(vaddr, size, self.state.read_x(d.rs2), result, mmio_policy)
        self.state.set_reservation(None)
        self._write_reg(result, "x", d.rd, 0 if success else 1)
        result.lr_sc = (paddr, 1 if success else 0)

    def _amo(self, d: DecodedInstr, result: StepResult, mmio_policy: str) -> None:
        size = 4 if d.name.endswith(".w") else 8
        vaddr = self.state.read_x(d.rs1)
        if vaddr % size:
            raise Trap(EXC_STORE_MISALIGNED, vaddr)
        old = self._load(vaddr, size, result, mmio_policy, None)
        rs2 = self.state.read_x(d.rs2) & ((1 << (8 * size)) - 1)
        bits = 8 * size
        signed_old, signed_rs2 = sext(old, bits), sext(rs2, bits)
        op = d.name[3:-2]
        if op == "swap":
            new = rs2
        elif op == "add":
            new = (old + rs2) & ((1 << bits) - 1)
        elif op == "xor":
            new = old ^ rs2
        elif op == "and":
            new = old & rs2
        elif op == "or":
            new = old | rs2
        elif op == "min":
            new = old if signed_old <= signed_rs2 else rs2
        elif op == "max":
            new = old if signed_old >= signed_rs2 else rs2
        elif op == "minu":
            new = min(old, rs2)
        else:  # maxu
            new = max(old, rs2)
        self._store(vaddr, size, new, result, mmio_policy)
        loaded = sext(old, bits) & MASK64 if size == 4 else old
        self._write_reg(result, "x", d.rd, loaded)
        last = result.mem_ops[-1]
        result.mem_ops[-2:] = [
            MemOp("amo", vaddr, last.paddr, size, loaded, store_value=new,
                  mmio=last.mmio)
        ]

    # ------------------------------------------------------------------
    def _fp_op(self, d: DecodedInstr, result: StepResult) -> None:
        state = self.state
        a_bits = state.read_f(d.rs1)
        b_bits = state.read_f(d.rs2)
        a, b = _b2f(a_bits), _b2f(b_bits)
        name = d.name
        if name in ("fadd.d", "fsub.d", "fmul.d", "fdiv.d", "fsqrt.d",
                    "fmin.d", "fmax.d"):
            try:
                if name == "fadd.d":
                    out = a + b
                elif name == "fsub.d":
                    out = a - b
                elif name == "fmul.d":
                    out = a * b
                elif name == "fdiv.d":
                    out = math.inf if b == 0 and a > 0 else (
                        -math.inf if b == 0 and a < 0 else (
                            math.nan if b == 0 else a / b))
                elif name == "fsqrt.d":
                    out = math.sqrt(a) if a >= 0 else math.nan
                elif name == "fmin.d":
                    out = min(a, b)
                else:
                    out = max(a, b)
            except (OverflowError, ValueError):
                out = math.nan
            self._write_reg(result, "f", d.rd, _f2b(out))
        elif name == "fsgnj.d":
            self._write_reg(result, "f", d.rd,
                            (a_bits & ~(1 << 63)) | (b_bits & (1 << 63)))
        elif name == "fsgnjn.d":
            self._write_reg(result, "f", d.rd,
                            (a_bits & ~(1 << 63)) | (~b_bits & (1 << 63)))
        elif name == "fsgnjx.d":
            self._write_reg(result, "f", d.rd, a_bits ^ (b_bits & (1 << 63)))
        elif name in ("feq.d", "flt.d", "fle.d"):
            ok = {"feq.d": a == b, "flt.d": a < b, "fle.d": a <= b}[name]
            self._write_reg(result, "x", d.rd, 1 if ok else 0)
        elif name in ("fcvt.l.d", "fcvt.lu.d", "fcvt.w.d", "fcvt.wu.d"):
            value = 0 if math.isnan(a) else int(a)
            self._write_reg(result, "x", d.rd, to_u64(value))
        elif name in ("fcvt.d.l", "fcvt.d.w"):
            self._write_reg(result, "f", d.rd, _f2b(float(to_s64(
                self.state.read_x(d.rs1)))))
        elif name in ("fcvt.d.lu", "fcvt.d.wu"):
            self._write_reg(result, "f", d.rd, _f2b(float(
                self.state.read_x(d.rs1))))
        elif name == "fmv.x.d":
            self._write_reg(result, "x", d.rd, a_bits)
        elif name == "fmv.d.x":
            self._write_reg(result, "f", d.rd, self.state.read_x(d.rs1))
        else:
            raise IllegalInstruction(d.raw)

    # ------------------------------------------------------------------
    # Minimal RVV (SEW=64, LMUL=1)
    # ------------------------------------------------------------------
    def _vsetvli(self, d: DecodedInstr, result: StepResult) -> None:
        state = self.state
        vtype = d.imm
        sew = 8 << ((vtype >> 3) & 0x7)
        vlmax = (VREG_WORDS * 64) // sew if sew <= 64 else 0
        if sew != 64 or vlmax == 0:
            # Unsupported configuration: set vill.
            state.csr.force(CSR.VTYPE, 1 << 63)
            state.csr.force(CSR.VL, 0)
            self._write_reg(result, "x", d.rd, 0)
            result.vconfig = (0, 1 << 63)
            return
        if d.rs1 != 0:
            avl = state.read_x(d.rs1)
        elif d.rd != 0:
            avl = MASK64
        else:
            avl = state.csr.peek(CSR.VL)
        vl = min(avl, vlmax)
        state.csr.force(CSR.VTYPE, vtype)
        state.csr.force(CSR.VL, vl)
        state.csr.force(CSR.VSTART, 0)
        self._write_reg(result, "x", d.rd, vl)
        result.vconfig = (vl, vtype)

    def _active_vl(self) -> int:
        return min(self.state.csr.peek(CSR.VL), VREG_WORDS)

    def _vload(self, d, result, mmio_policy, mmio_load_value) -> None:
        base = self.state.read_x(d.rs1)
        words = self.state.read_v(d.rd)
        for i in range(self._active_vl()):
            words[i] = self._load((base + 8 * i) & MASK64, 8, result,
                                  mmio_policy, mmio_load_value)
        self._write_vreg(result, d.rd, words)

    def _vstore(self, d, result, mmio_policy) -> None:
        base = self.state.read_x(d.rs1)
        words = self.state.read_v(d.rd)
        for i in range(self._active_vl()):
            self._store((base + 8 * i) & MASK64, 8, words[i], result, mmio_policy)

    def _vec_op(self, d: DecodedInstr, result: StepResult) -> None:
        state = self.state
        out = state.read_v(d.rd)
        vl = self._active_vl()
        if d.name == "vadd.vx":
            vs2 = state.read_v(d.rs2)
            operand = state.read_x(d.rs1)
            for i in range(vl):
                out[i] = (vs2[i] + operand) & MASK64
        elif d.name == "vmv.v.x":
            operand = state.read_x(d.rs1)
            for i in range(vl):
                out[i] = operand
        elif d.name == "vmv.v.v":
            vs1 = state.read_v(d.rs1)
            for i in range(vl):
                out[i] = vs1[i]
        else:
            vs2 = state.read_v(d.rs2)
            vs1 = state.read_v(d.rs1)
            fn = _VEC_OPS[d.name]
            for i in range(vl):
                out[i] = fn(vs2[i], vs1[i]) & MASK64
        self._write_vreg(result, d.rd, out)


# ----------------------------------------------------------------------
# ALU operation tables
# ----------------------------------------------------------------------
def _sll(a: int, b: int) -> int:
    return to_u64(a << (b & 63))


def _srl(a: int, b: int) -> int:
    return (a & MASK64) >> (b & 63)


def _sra(a: int, b: int) -> int:
    return to_u64(to_s64(a) >> (b & 63))


def _addw(a: int, b: int) -> int:
    return to_u64(sext((a + b) & 0xFFFFFFFF, 32))


def _subw(a: int, b: int) -> int:
    return to_u64(sext((a - b) & 0xFFFFFFFF, 32))


def _sllw(a: int, b: int) -> int:
    return to_u64(sext((a << (b & 31)) & 0xFFFFFFFF, 32))


def _srlw(a: int, b: int) -> int:
    return to_u64(sext(((a & 0xFFFFFFFF) >> (b & 31)) & 0xFFFFFFFF, 32))


def _sraw(a: int, b: int) -> int:
    return to_u64(sext(a & 0xFFFFFFFF, 32) >> (b & 31))


def _quot(sa: int, sb: int) -> int:
    """``sa / sb`` truncated toward zero, in exact integer arithmetic
    (``//`` floors, and float division loses bits above 2**53)."""
    quotient = abs(sa) // abs(sb)
    return -quotient if (sa < 0) != (sb < 0) else quotient


def _div(a: int, b: int) -> int:
    sa, sb = to_s64(a), to_s64(b)
    if sb == 0:
        return MASK64
    if sa == -(1 << 63) and sb == -1:
        return to_u64(sa)
    return to_u64(_quot(sa, sb))


def _divu(a: int, b: int) -> int:
    return MASK64 if b == 0 else (a & MASK64) // (b & MASK64)


def _rem(a: int, b: int) -> int:
    sa, sb = to_s64(a), to_s64(b)
    if sb == 0:
        return to_u64(sa)
    if sa == -(1 << 63) and sb == -1:
        return 0
    return to_u64(sa - _quot(sa, sb) * sb)


def _remu(a: int, b: int) -> int:
    return a & MASK64 if b == 0 else (a & MASK64) % (b & MASK64)


def _divw(a: int, b: int) -> int:
    sa, sb = sext(a & 0xFFFFFFFF, 32), sext(b & 0xFFFFFFFF, 32)
    if sb == 0:
        return MASK64
    if sa == -(1 << 31) and sb == -1:
        return to_u64(sa)
    return to_u64(sext(_quot(sa, sb) & 0xFFFFFFFF, 32))


def _divuw(a: int, b: int) -> int:
    ua, ub = a & 0xFFFFFFFF, b & 0xFFFFFFFF
    return MASK64 if ub == 0 else to_u64(sext((ua // ub) & 0xFFFFFFFF, 32))


def _remw(a: int, b: int) -> int:
    sa, sb = sext(a & 0xFFFFFFFF, 32), sext(b & 0xFFFFFFFF, 32)
    if sb == 0:
        return to_u64(sa)
    if sa == -(1 << 31) and sb == -1:
        return 0
    return to_u64(sext((sa - _quot(sa, sb) * sb) & 0xFFFFFFFF, 32))


def _remuw(a: int, b: int) -> int:
    ua, ub = a & 0xFFFFFFFF, b & 0xFFFFFFFF
    return to_u64(sext(ua & 0xFFFFFFFF, 32)) if ub == 0 else to_u64(
        sext((ua % ub) & 0xFFFFFFFF, 32))


_ALU_IMM = {
    "addi": lambda a, imm: to_u64(a + imm),
    "slti": lambda a, imm: 1 if to_s64(a) < imm else 0,
    "sltiu": lambda a, imm: 1 if (a & MASK64) < to_u64(imm) else 0,
    "xori": lambda a, imm: to_u64(a ^ imm),
    "ori": lambda a, imm: to_u64(a | imm),
    "andi": lambda a, imm: to_u64(a & imm),
    "slli": _sll,
    "srli": _srl,
    "srai": _sra,
    "addiw": lambda a, imm: _addw(a, imm),
    "slliw": _sllw,
    "srliw": _srlw,
    "sraiw": _sraw,
}

_ALU_REG = {
    "add": lambda a, b: to_u64(a + b),
    "sub": lambda a, b: to_u64(a - b),
    "sll": _sll,
    "slt": lambda a, b: 1 if to_s64(a) < to_s64(b) else 0,
    "sltu": lambda a, b: 1 if (a & MASK64) < (b & MASK64) else 0,
    "xor": lambda a, b: to_u64(a ^ b),
    "srl": _srl,
    "sra": _sra,
    "or": lambda a, b: to_u64(a | b),
    "and": lambda a, b: to_u64(a & b),
    "addw": _addw,
    "subw": _subw,
    "sllw": _sllw,
    "srlw": _srlw,
    "sraw": _sraw,
    "mul": lambda a, b: to_u64(to_s64(a) * to_s64(b)),
    "mulh": lambda a, b: to_u64((to_s64(a) * to_s64(b)) >> 64),
    "mulhsu": lambda a, b: to_u64((to_s64(a) * (b & MASK64)) >> 64),
    "mulhu": lambda a, b: ((a & MASK64) * (b & MASK64)) >> 64,
    "mulw": lambda a, b: _addw(a * b, 0),
    "div": _div,
    "divu": _divu,
    "rem": _rem,
    "remu": _remu,
    "divw": _divw,
    "divuw": _divuw,
    "remw": _remw,
    "remuw": _remuw,
}

_BRANCHES = {
    "beq": lambda sa, sb, ua, ub: ua == ub,
    "bne": lambda sa, sb, ua, ub: ua != ub,
    "blt": lambda sa, sb, ua, ub: sa < sb,
    "bge": lambda sa, sb, ua, ub: sa >= sb,
    "bltu": lambda sa, sb, ua, ub: ua < ub,
    "bgeu": lambda sa, sb, ua, ub: ua >= ub,
}

_LOADS = {
    "lb": (1, True), "lh": (2, True), "lw": (4, True), "ld": (8, False),
    "lbu": (1, False), "lhu": (2, False), "lwu": (4, False),
}

_STORES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}

_FP_OPS = frozenset({
    "fadd.d", "fsub.d", "fmul.d", "fdiv.d", "fsqrt.d", "fsgnj.d", "fsgnjn.d",
    "fsgnjx.d", "fmin.d", "fmax.d", "feq.d", "flt.d", "fle.d", "fcvt.l.d",
    "fcvt.lu.d", "fcvt.w.d", "fcvt.wu.d", "fcvt.d.l", "fcvt.d.lu",
    "fcvt.d.w", "fcvt.d.wu", "fmv.x.d", "fmv.d.x",
})

_VEC_OPS = {
    "vadd.vv": lambda a, b: a + b,
    "vsub.vv": lambda a, b: a - b,
    "vand.vv": lambda a, b: a & b,
    "vor.vv": lambda a, b: a | b,
    "vxor.vv": lambda a, b: a ^ b,
    "vmul.vv": lambda a, b: a * b,
    "vsll.vv": lambda a, b: a << (b & 63),
    "vsrl.vv": lambda a, b: (a & MASK64) >> (b & 63),
    "vminu.vv": lambda a, b: min(a & MASK64, b & MASK64),
    "vmaxu.vv": lambda a, b: max(a & MASK64, b & MASK64),
    "vmin.vv": lambda a, b: a if to_s64(a) <= to_s64(b) else b,
    "vmax.vv": lambda a, b: a if to_s64(a) >= to_s64(b) else b,
}
