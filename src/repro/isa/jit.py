"""Compiled-simulation tier: a decoded-superblock trace cache.

The interpreted :mod:`repro.isa.execute` path pays, per instruction, a
fetch, a decode-cache probe, a name-based dispatch chain and a stack of
helper calls.  For the straight-line hot paths that dominate real
workloads (loop bodies), all of that work is invariant: the same
instructions execute at the same PCs with only register values changing.

:class:`TraceCache` exploits this exactly like PR 4's exec-generated
event codecs: once an entry PC has been seen more than ``warmup`` times,
the straight-line run of instructions starting there (terminated at the
first branch/jump, trap-capable instruction or page boundary — a
*superblock*) is compiled, via ``exec``, into specialised Python code
with

* inlined integer-register reads and writes (``xr[5]`` instead of the
  ``read_x``/``write_x``/hook/journal call chain),
* constant-folded immediates, branch targets, ``lui``/``auipc`` results
  and link addresses (the PC is a compile-time constant), and
* batched ``instret``/``MINSTRET`` accounting (one update per block
  exit instead of one CSR write per instruction).

Two flavours are generated, matching the two sides of a co-simulation:

* ``mode="dut"`` — one *block function* executing up to ``max_n``
  instructions per call (the commit budget of the current cycle) and
  returning the per-instruction :class:`~repro.isa.execute.StepResult`
  list the monitor needs.  Dispatched by
  :meth:`~repro.dut.core.DutCore.cycle`, which models the cache
  hierarchy for the batch *after* it ran — so a store may only lead a
  DUT block (see :meth:`TraceCache._trace`).
* ``mode="ref"`` — one *stepper* per PC covered by a block, executing a
  single instruction with inline compensation-log journaling.
  Dispatched from :meth:`~repro.isa.execute.Hart.step`; the checker
  drives the REF strictly one instruction at a time (its state is
  compared after every slot), so the REF side must never run ahead.

The tier is what a default run executes (``DiffConfig.jit`` is on;
``jit=False`` pins the interpreter, the reference the equivalence suite
compares against).  Compiling and running are split: generated source is
a pure function of ``(mode, pc, instruction words)``, so code objects
live in one process-wide, bounded, content-addressed cache
(:data:`_CODE_CACHE`) and a :class:`TraceCache` only *binds* them — one
``exec`` of the cached code into its single namespace — which keeps a
run's own JIT state to a few dozen KB of function objects and makes the
second run of an image in a process (benchmark repeats, slices, ladder
configs, the cores of a multi-core DUT) compile nothing.  Patched
instruction words are a new key, so self-modifying code never meets
stale code.

Invalidation is airtight by construction:

* every page holding compiled code carries a write-epoch counter in
  :class:`~repro.isa.memory.PhysicalMemory` (the CSR snapshot-cache
  versioning pattern); any store into the page — including the
  journal's own revert writes and a block's *own* stores (self-modifying
  code) — advances it, and dispatch re-validates the epoch;
* snapshot restores replace page tables through
  :meth:`~repro.isa.memory.PhysicalMemory.replace_pages`, which bumps
  every code-page epoch;
* blocks contain only instructions that cannot trap with translation
  off, and dispatch bails out to the interpreter whenever translation
  is active, a fault hook could act (an armed fault's latch can fire in
  the cycle, or a hook is installed with no latch), an MMIO access
  shows up dynamically, or an interrupt could be taken — the
  interpreted path stays the behavioural reference for everything
  interesting.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import CodeType
from typing import Dict, List, Optional, Tuple

from .compressed import is_compressed
from .const import MASK64, PAGE_SHIFT, PAGE_SIZE, PRIV_M, sext, to_s64
from .csr import MINSTRET, SATP
from .decode import DecodedInstr, IllegalInstruction, decode
from .execute import (
    MemOp,
    StepResult,
    _ALU_IMM,
    _ALU_REG,
    _BRANCHES,
    _LOADS,
    _STORES,
)
from .memory import Bus

#: Upper bound on superblock length (instructions).
MAX_BLOCK = 32

#: Sightings of an entry PC that stay interpreted: ``_warm`` compiles on
#: sighting ``DEFAULT_WARMUP + 1`` (the 17th).  Read when a
#: :class:`TraceCache` is built without an explicit ``warmup``.
DEFAULT_WARMUP = 16

#: Upper bound on live compiled blocks per trace cache.
DEFAULT_MAX_BLOCKS = 512

#: Upper bound on entries of the process-wide code cache; on overflow it
#: is cleared wholesale (functions already bound keep their code alive,
#: so clearing only costs later runs a recompile).
MAX_CACHED_CODE = 1024

#: ``(mode, pc, instruction words) -> code object``.  Generated source is
#: a pure function of that key — device bounds and memory accessors are
#: namespace values, never folded into the text — so ``compile()`` runs
#: at most once per key per process and every later run, slice, ladder
#: config or core that meets the same code only *binds* it.
_CODE_CACHE: Dict[tuple, CodeType] = {}


def _cached_code(key: tuple, generate, *args) -> CodeType:
    """The code object for ``key``, generating and compiling its source
    with ``generate(*args)`` the first time the process sees the key."""
    code = _CODE_CACHE.get(key)
    if code is None:
        if len(_CODE_CACHE) >= MAX_CACHED_CODE:
            _CODE_CACHE.clear()
        code = _CODE_CACHE[key] = compile(
            generate(*args), f"<jit-{key[0]}-{key[1]:#x}>", "exec")
    return code


#: Compensation-log record kinds (inlined into generated REF steppers;
#: pinned against CompensationLog by tests/test_jit_equivalence.py).
_KIND_XREG = 0
_KIND_CSR = 3
_KIND_PC = 5

#: ALU operations whose semantics are simple enough to inline as a plain
#: expression ({a}/{b} are operand expressions, {imm}/{immu} folded
#: immediates).  Everything else calls the interpreter's own helper from
#: the exec namespace, so the semantics cannot drift.
_INLINE_IMM = {
    "addi": "(({a} + {imm}) & M64)",
    "andi": "(({a} & {imm}) & M64)",
    "ori": "(({a} | {imm}) & M64)",
    "xori": "(({a} ^ {imm}) & M64)",
    "slti": "(1 if SX({a}) < {imm} else 0)",
    "sltiu": "(1 if {a} < {immu} else 0)",
}

_INLINE_REG = {
    "add": "(({a} + {b}) & M64)",
    "sub": "(({a} - {b}) & M64)",
    "and": "({a} & {b})",
    "or": "({a} | {b})",
    "xor": "({a} ^ {b})",
    "slt": "(1 if SX({a}) < SX({b}) else 0)",
    "sltu": "(1 if {a} < {b} else 0)",
}

_BRANCH_COND = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "blt": "SX({a}) < SX({b})",
    "bge": "SX({a}) >= SX({b})",
    "bltu": "{a} < {b}",
    "bgeu": "{a} >= {b}",
}

_TERMINALS = frozenset(_BRANCHES) | {"jal", "jalr"}


@dataclass(slots=True)
class JitStats:
    """Counters folded into ``repro.obs`` under ``jit.*``."""

    blocks_compiled: int = 0
    hits: int = 0
    steps: int = 0
    evictions: int = 0
    bailouts: int = 0


class CompiledBlock:
    """One compiled superblock (entry-PC keyed): the block function in
    ``mode="dut"``, one stepper per covered PC in ``mode="ref"``."""

    __slots__ = ("entry_pc", "page", "epoch", "dut_fn", "ref_fns")

    def __init__(self, entry_pc: int, page: int, epoch: int) -> None:
        self.entry_pc = entry_pc
        self.page = page
        self.epoch = epoch
        self.dut_fn = None
        self.ref_fns: Dict[int, object] = {}


class TraceCache:
    """Detect -> compile -> dispatch -> invalidate, for one hart."""

    def __init__(self, bus: Bus, mode: str, warmup: Optional[int] = None,
                 max_blocks: int = DEFAULT_MAX_BLOCKS) -> None:
        if mode not in ("dut", "ref"):
            raise ValueError(f"unknown trace-cache mode {mode!r}")
        self.bus = bus
        self.memory = bus.memory
        self.mode = mode
        self.warmup = DEFAULT_WARMUP if warmup is None else warmup
        self.max_blocks = max_blocks
        self.stats = JitStats()
        #: entry pc -> CompiledBlock
        self.blocks: Dict[int, CompiledBlock] = {}
        #: any covered pc -> CompiledBlock (REF per-PC dispatch)
        self.pc_map: Dict[int, CompiledBlock] = {}
        self._counts: Dict[int, int] = {}
        self._uncompilable: set = set()
        #: The one exec namespace every function of this cache is bound
        #: in (built on the first compile, so a run that never warms a
        #: block pays nothing).
        self._ns: Optional[dict] = None

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def run_block(self, hart, pc: int, max_n: int) -> Optional[List[StepResult]]:
        """DUT dispatch: execute up to ``max_n`` instructions of the block
        at ``pc``; ``None`` falls back to the interpreter for one step.

        The caller guarantees translation is off, no interrupt is
        pending, and no hook can act on these steps: none is installed,
        or the armed fault's latch cannot fire within ``max_n`` of the
        current ``instret`` (a block calls no hooks).
        """
        block = self.blocks.get(pc)
        if block is None:
            self._warm(pc)
            return None
        if self.memory._code_pages.get(block.page) != block.epoch:
            self._evict(block)
            return None
        results = block.dut_fn(hart, max_n)
        if not results:
            # Dynamic bail at the first instruction (MMIO target).
            self.stats.bailouts += 1
            return None
        self.stats.hits += 1
        self.stats.steps += len(results)
        return results

    def ref_step(self, hart) -> Optional[StepResult]:
        """REF dispatch: execute exactly one instruction at the current
        PC through its compiled stepper; ``None`` falls back."""
        state = hart.state
        if state.journal is None:
            return None
        hooks = hart.hooks
        if (hooks.on_reg_write is not None or hooks.on_store is not None
                or hooks.on_trap is not None):
            return None
        if state.priv != PRIV_M and state.csr._values.get(SATP, 0) >> 60 == 8:
            return None  # translation active: interpreter walks pages
        pc = state.pc
        block = self.pc_map.get(pc)
        if block is None:
            self._warm(pc)
            return None
        if self.memory._code_pages.get(block.page) != block.epoch:
            self._evict(block)
            return None
        result = block.ref_fns[pc](hart)
        if result is None:
            self.stats.bailouts += 1
            return None
        self.stats.hits += 1
        self.stats.steps += 1
        return result

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _warm(self, pc: int) -> None:
        if pc in self._uncompilable:
            return
        count = self._counts.get(pc, 0) + 1
        if count <= self.warmup:
            self._counts[pc] = count
            return
        block = self._compile(pc)
        if block is None:
            self._uncompilable.add(pc)
        self._counts.pop(pc, None)

    def _evict(self, block: CompiledBlock) -> None:
        self.blocks.pop(block.entry_pc, None)
        for pc in block.ref_fns:
            if self.pc_map.get(pc) is block:
                del self.pc_map[pc]
        self.stats.evictions += 1

    # ------------------------------------------------------------------
    # Detection: trace a superblock
    # ------------------------------------------------------------------
    def _trace(self, pc: int) -> Optional[List[Tuple[int, int, DecodedInstr]]]:
        """The straight-line run starting at ``pc``: a list of
        ``(pc, raw_word, decoded)``, ending at (and including) the first
        terminal, or ending before the first uncompilable instruction or
        page boundary.

        In ``mode="dut"`` a store only ever *leads* a block: the DUT core
        models the cache hierarchy for a whole batch after it has run, and
        a refill or store-buffer flush reads the memory line as it is
        then, so a store behind an earlier instruction of the same batch
        would leak into that instruction's refill data.  Ending the block
        before the store keeps memory constant across everything the
        batch models after its first instruction — the interpreter's
        read-after-step order."""
        lead_stores_only = self.mode == "dut"
        memory = self.memory
        page_base = pc & ~(PAGE_SIZE - 1)
        # The whole page must be plain RAM: fetches are then never MMIO.
        if (self.bus._dev_lo < page_base + PAGE_SIZE
                and page_base < self.bus._dev_hi):
            return None
        instrs: List[Tuple[int, int, DecodedInstr]] = []
        cur = pc
        while len(instrs) < MAX_BLOCK:
            if cur & ~(PAGE_SIZE - 1) != page_base:
                break  # page boundary terminates the block
            if (cur & (PAGE_SIZE - 1)) > PAGE_SIZE - 4:
                break  # 4-byte fetch would straddle the page
            word = memory.load(cur, 4)
            if is_compressed(word):
                break
            try:
                d = decode(word)
            except IllegalInstruction:
                break
            name = d.name
            if name in _TERMINALS:
                instrs.append((cur, word, d))
                break
            if not (name in _ALU_IMM or name in _ALU_REG
                    or name in _LOADS or name in _STORES
                    or name in ("lui", "auipc")):
                break  # trap-capable / system / FP / vector / atomic
            if lead_stores_only and instrs and name in _STORES:
                break  # re-entered at the store's own entry PC
            instrs.append((cur, word, d))
            cur += 4
        return instrs or None

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------
    def _compile(self, pc: int) -> Optional[CompiledBlock]:
        if len(self.blocks) >= self.max_blocks:
            return None
        instrs = self._trace(pc)
        if instrs is None:
            return None
        page = pc >> PAGE_SHIFT
        epoch = self.memory.register_code_page(page)
        block = CompiledBlock(pc, page, epoch)
        if self.mode == "dut":
            words = tuple(i[1] for i in instrs)
            block.dut_fn = self._bind(
                _cached_code(("dut", pc, words), _gen_dut_block, instrs, page),
                "__jit_block")
        else:
            for ipc, word, d in instrs:
                block.ref_fns[ipc] = self._bind(
                    _cached_code(("ref", ipc, word), _gen_ref_stepper,
                                 ipc, word, d),
                    "__jit_step")
                self.pc_map[ipc] = block
        self.blocks[pc] = block
        self.stats.blocks_compiled += 1
        return block

    def _bind(self, code: CodeType, name: str):
        """Define ``code``'s function over this cache's namespace and take
        it back out: a function left in the dict that is its own
        ``__globals__`` is a reference cycle, and the namespace reaches
        the memory image through ``ML``/``MS``."""
        ns = self._ns
        if ns is None:
            ns = self._ns = self._namespace()
        exec(code, ns)
        return ns.pop(name)

    def _namespace(self) -> dict:
        ns = {
            "SR": StepResult,
            "MO": MemOp,
            "M64": MASK64,
            "SX": to_s64,
            "SEXT": sext,
            "ML": self.memory.load,
            "MS": self.memory.store,
            "DEVLO": self.bus._dev_lo,
            "DEVHI": self.bus._dev_hi,
        }
        for name, fn in _ALU_IMM.items():
            ns["F_" + name] = fn
        for name, fn in _ALU_REG.items():
            ns["F_" + name] = fn
        return ns


# ----------------------------------------------------------------------
# Code generation
# ----------------------------------------------------------------------
def _rx(index: int) -> str:
    """Inlined integer-register read ({x0} folds to the constant 0)."""
    return "0" if index == 0 else f"xr[{index}]"


def _value_expr(d: DecodedInstr, pc: int) -> str:
    """Expression computing the (masked) result of an ALU-class
    instruction, with immediates and PC-relative values folded."""
    name = d.name
    if name == "lui":
        return repr(d.imm & MASK64)
    if name == "auipc":
        return repr((pc + d.imm) & MASK64)
    if name in _INLINE_IMM:
        return _INLINE_IMM[name].format(
            a=_rx(d.rs1), imm=d.imm, immu=d.imm & MASK64)
    if name in _ALU_IMM:
        return f"F_{name}({_rx(d.rs1)}, {d.imm})"
    if name in _INLINE_REG:
        return _INLINE_REG[name].format(a=_rx(d.rs1), b=_rx(d.rs2))
    return f"F_{name}({_rx(d.rs1)}, {_rx(d.rs2)})"


def _cond_expr(d: DecodedInstr) -> str:
    return _BRANCH_COND[d.name].format(a=_rx(d.rs1), b=_rx(d.rs2))


def _result_line(pc: int, npc: str, word: int, name: str,
                 rw: str, mo: str) -> str:
    return (f"SR(pc={pc}, next_pc={npc}, instr={word}, name={name!r}, "
            f"reg_writes={rw}, mem_ops={mo})")


def _gen_dut_block(instrs, page: int) -> str:
    """A single function executing up to ``max_n`` instructions of the
    block, batching PC/instret/MINSTRET updates at every exit."""
    lines = [
        "def __jit_block(hart, max_n):",
        "    state = hart.state",
        "    xr = state.xregs",
        "    out = []",
    ]
    emit = lines.append
    total = len(instrs)

    def epilogue(count: int, npc: str) -> List[str]:
        body = [f"state.pc = {npc}"]
        if count:
            body += [
                f"hart.instret += {count}",
                "cv = state.csr._values",
                f"cv[{MINSTRET}] = (cv[{MINSTRET}] + {count}) & M64",
            ]
        body.append("return out")
        return body

    for index, (pc, word, d) in enumerate(instrs):
        name = d.name
        fall = (pc + 4) & MASK64
        last = index == total - 1
        emit(f"    # {pc:#x}: {name}")
        if name in _BRANCHES:
            taken = (pc + d.imm) & MASK64
            emit(f"    npc = {taken} if {_cond_expr(d)} else {fall}")
            emit("    out.append(" + _result_line(
                pc, "npc", word, name, "()", "()") + ")")
            for line in epilogue(index + 1, "npc"):
                emit("    " + line)
            return "\n".join(lines)
        if name == "jal":
            link = (pc + 4) & MASK64
            target = (pc + d.imm) & MASK64
            if d.rd:
                emit(f"    xr[{d.rd}] = {link}")
                rw = f"[('x', {d.rd}, {link})]"
            else:
                rw = "()"
            emit("    out.append(" + _result_line(
                pc, str(target), word, name, rw, "()") + ")")
            for line in epilogue(index + 1, str(target)):
                emit("    " + line)
            return "\n".join(lines)
        if name == "jalr":
            link = (pc + 4) & MASK64
            emit(f"    npc = ({_rx(d.rs1)} + {d.imm}) & {MASK64 & ~1}")
            if d.rd:
                emit(f"    xr[{d.rd}] = {link}")
                rw = f"[('x', {d.rd}, {link})]"
            else:
                rw = "()"
            emit("    out.append(" + _result_line(
                pc, "npc", word, name, rw, "()") + ")")
            for line in epilogue(index + 1, "npc"):
                emit("    " + line)
            return "\n".join(lines)
        if name in _LOADS:
            size, signed = _LOADS[name]
            emit(f"    a = ({_rx(d.rs1)} + {d.imm}) & M64")
            emit("    if DEVLO <= a < DEVHI:")
            for line in epilogue(index, str(pc)) if index else ["return out"]:
                emit("        " + line)
            emit(f"    v = ML(a, {size})")
            emit(f"    mo = [MO('load', a, a, {size}, v)]")
            if signed:
                emit(f"    v = SEXT(v, {8 * size}) & M64")
            if d.rd:
                emit(f"    xr[{d.rd}] = v")
                rw = f"[('x', {d.rd}, v)]"
            else:
                rw = "()"
            emit("    out.append(" + _result_line(
                pc, str(fall), word, name, rw, "mo") + ")")
        elif name in _STORES:
            size = _STORES[name]
            mask = (1 << (8 * size)) - 1
            emit(f"    a = ({_rx(d.rs1)} + {d.imm}) & M64")
            emit("    if DEVLO <= a < DEVHI:")
            for line in epilogue(index, str(pc)) if index else ["return out"]:
                emit("        " + line)
            emit(f"    v = {_rx(d.rs2)} & {mask}")
            emit(f"    MS(a, {size}, v)")
            emit("    out.append(" + _result_line(
                pc, str(fall), word, name, "()",
                f"[MO('store', a, a, {size}, v)]") + ")")
            if last:
                for line in epilogue(index + 1, str(fall)):
                    emit("    " + line)
            else:
                # Self-modifying store: the remaining decodes may be
                # stale; finish this instruction, then exit (the epoch
                # bump evicts the block before its next dispatch).
                guard = (f"max_n == {index + 1} "
                         f"or a >> {PAGE_SHIFT} == {page} "
                         f"or (a + {size - 1}) >> {PAGE_SHIFT} == {page}")
                emit(f"    if {guard}:")
                for line in epilogue(index + 1, str(fall)):
                    emit("        " + line)
            continue
        else:  # ALU / lui / auipc
            if d.rd:
                emit(f"    v = {_value_expr(d, pc)}")
                emit(f"    xr[{d.rd}] = v")
                rw = f"[('x', {d.rd}, v)]"
            else:
                rw = "()"
            emit("    out.append(" + _result_line(
                pc, str(fall), word, name, rw, "()") + ")")
        if not last:
            emit(f"    if max_n == {index + 1}:")
            for line in epilogue(index + 1, str(fall)):
                emit("        " + line)
        else:
            for line in epilogue(index + 1, str(fall)):
                emit("    " + line)
    return "\n".join(lines)


def _gen_ref_stepper(pc: int, word: int, d: DecodedInstr) -> str:
    """A single-instruction stepper with inline journaling, mirroring the
    interpreter's journal record order exactly (execute-writes, then PC,
    then MINSTRET) so compensation-log reverts stay byte-identical."""
    name = d.name
    lines = [
        "def __jit_step(hart):",
        "    state = hart.state",
        "    xr = state.xregs",
    ]
    emit = lines.append
    fall = (pc + 4) & MASK64
    npc = str(fall)
    rw = "()"
    mo = "()"
    body: List[str] = []
    if name in _BRANCHES:
        taken = (pc + d.imm) & MASK64
        body.append(f"npc = {taken} if {_cond_expr(d)} else {fall}")
        npc = "npc"
    elif name == "jal":
        link = (pc + 4) & MASK64
        target = (pc + d.imm) & MASK64
        if d.rd:
            body += [f"jr.append(({_KIND_XREG}, {d.rd}, xr[{d.rd}]))",
                     f"xr[{d.rd}] = {link}"]
            rw = f"[('x', {d.rd}, {link})]"
        npc = str(target)
    elif name == "jalr":
        link = (pc + 4) & MASK64
        body.append(f"npc = ({_rx(d.rs1)} + {d.imm}) & {MASK64 & ~1}")
        if d.rd:
            body += [f"jr.append(({_KIND_XREG}, {d.rd}, xr[{d.rd}]))",
                     f"xr[{d.rd}] = {link}"]
            rw = f"[('x', {d.rd}, {link})]"
        npc = "npc"
    elif name in _LOADS:
        size, signed = _LOADS[name]
        emit(f"    a = ({_rx(d.rs1)} + {d.imm}) & M64")
        emit("    if DEVLO <= a < DEVHI:")
        emit("        return None")
        body.append(f"v = ML(a, {size})")
        body.append(f"mo = [MO('load', a, a, {size}, v)]")
        mo = "mo"
        if signed:
            body.append(f"v = SEXT(v, {8 * size}) & M64")
        if d.rd:
            body += [f"jr.append(({_KIND_XREG}, {d.rd}, xr[{d.rd}]))",
                     "xr[{rd}] = v".format(rd=d.rd)]
            rw = f"[('x', {d.rd}, v)]"
    elif name in _STORES:
        size = _STORES[name]
        mask = (1 << (8 * size)) - 1
        emit(f"    a = ({_rx(d.rs1)} + {d.imm}) & M64")
        emit("    if DEVLO <= a < DEVHI:")
        emit("        return None")
        body.append(f"v = {_rx(d.rs2)} & {mask}")
        body.append(f"MS(a, {size}, v)")  # journals the old bytes itself
        mo = f"[MO('store', a, a, {size}, v)]"
    else:  # ALU / lui / auipc
        if d.rd:
            body.append(f"v = {_value_expr(d, pc)}")
            body += [f"jr.append(({_KIND_XREG}, {d.rd}, xr[{d.rd}]))",
                     f"xr[{d.rd}] = v"]
            rw = f"[('x', {d.rd}, v)]"
    emit("    jr = state.journal._records")
    for line in body:
        emit("    " + line)
    emit(f"    jr.append(({_KIND_PC}, 0, {pc}))")
    emit(f"    state.pc = {npc}")
    emit("    hart.instret += 1")
    emit("    cv = state.csr._values")
    emit(f"    old = cv[{MINSTRET}]")
    emit(f"    jr.append(({_KIND_CSR}, {MINSTRET}, old))")
    emit(f"    cv[{MINSTRET}] = (old + 1) & M64")
    emit("    return " + _result_line(pc, npc, word, name, rw, mo))
    return "\n".join(lines)
