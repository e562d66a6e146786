"""Random-program fuzzing for co-simulation (MorFuzz/Logic-Fuzzer style).

Generates terminating random RISC-V programs — mixed ALU/memory/branch/
CSR/FP/atomic instructions with seeded registers and a trap handler — and
runs them through the full co-simulation stack.  Because the DUT and REF
share the functional executor, any mismatch flags a bug in the
*communication/checking machinery itself*, making the fuzzer a
self-verification harness for the framework (and a workload generator for
communication experiments).

Termination is guaranteed by construction: all branches jump forward.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

from ..isa.assembler import assemble
from .programs import Workload

#: Registers the generator may freely clobber (sp/s0/s1 are reserved:
#: stack, scratch base, trap counter).
_SCRATCH_REGS = ("t0", "t1", "t2", "t3", "t4", "t5", "t6",
                 "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
                 "s2", "s3", "s4", "s5")

_ALU_RR = ("add", "sub", "and", "or", "xor", "sll", "srl", "sra",
           "slt", "sltu", "addw", "subw", "mul", "mulh", "mulhu",
           "div", "divu", "rem", "remu", "mulw", "divw", "remw")
_ALU_RI = ("addi", "andi", "ori", "xori", "slti", "sltiu", "addiw")
_SHIFTS = ("slli", "srli", "srai")
_LOADS = ("lb", "lh", "lw", "ld", "lbu", "lhu", "lwu")
_STORES = ("sb", "sh", "sw", "sd")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")


@dataclass
class FuzzProfile:
    """Instruction-mix weights for the generator."""

    alu: float = 10.0
    alu_imm: float = 6.0
    shift: float = 3.0
    load: float = 4.0
    store: float = 4.0
    branch: float = 3.0
    csr: float = 1.0
    fp: float = 1.5
    amo: float = 1.0
    ecall: float = 0.5
    vector: float = 0.0  # off by default (heavier events)
    compressed: float = 3.0  # RV64C instructions

    def entries(self):
        return [(name, weight) for name, weight in vars(self).items()
                if weight > 0]


@dataclass
class RandomProgram:
    """A generated program plus its source for debugging."""

    seed: int
    source: str
    image: bytes = field(repr=False, default=b"")


class ProgramGenerator:
    """Seeded random generator of terminating RISC-V programs."""

    SCRATCH_BASE = 0x8020_0000
    SCRATCH_BYTES = 2048

    def __init__(self, seed: int, length: int = 120,
                 profile: FuzzProfile = FuzzProfile()) -> None:
        self.seed = seed
        self.length = length
        self.profile = profile
        self._rng = random.Random(seed)
        self._label = 0

    # ------------------------------------------------------------------
    def generate(self) -> RandomProgram:
        rng = self._rng
        lines: List[str] = [
            "_start:",
            "    li sp, 0x80100000",
            f"    li s0, {self.SCRATCH_BASE}",
            "    la t0, trap_handler",
            "    csrw mtvec, t0",
            "    li s1, 0",
        ]
        # Seed the scratch region and registers with random data.
        for offset in range(0, 64, 8):
            lines.append(f"    li t1, {rng.getrandbits(32)}")
            lines.append(f"    sd t1, {offset}(s0)")
        for reg in _SCRATCH_REGS[:8]:
            lines.append(f"    li {reg}, {rng.getrandbits(16)}")
        if self.profile.fp > 0:
            lines.append("    fcvt.d.l f0, t0")
            lines.append("    fcvt.d.l f1, t1")

        choices, weights = zip(*self.profile.entries())
        for _ in range(self.length):
            kind = rng.choices(choices, weights)[0]
            lines.extend(getattr(self, f"_gen_{kind}")())

        lines += [
            "    li a0, 0",
            "    ebreak",
            ".align 3",
            "trap_handler:",
            "    addi s1, s1, 1",
            "    csrr t6, mepc",
            "    addi t6, t6, 4",
            "    csrw mepc, t6",
            "    mret",
        ]
        source = "\n".join(lines)
        return RandomProgram(self.seed, source, assemble(source))

    # ------------------------------------------------------------------
    def _reg(self) -> str:
        return self._rng.choice(_SCRATCH_REGS)

    def _gen_alu(self) -> List[str]:
        op = self._rng.choice(_ALU_RR)
        return [f"    {op} {self._reg()}, {self._reg()}, {self._reg()}"]

    def _gen_alu_imm(self) -> List[str]:
        op = self._rng.choice(_ALU_RI)
        imm = self._rng.randint(-2048, 2047)
        return [f"    {op} {self._reg()}, {self._reg()}, {imm}"]

    def _gen_shift(self) -> List[str]:
        op = self._rng.choice(_SHIFTS)
        return [f"    {op} {self._reg()}, {self._reg()}, "
                f"{self._rng.randint(0, 63)}"]

    def _scratch_offset(self, align: int) -> int:
        return self._rng.randrange(0, self.SCRATCH_BYTES - 8, align)

    def _gen_load(self) -> List[str]:
        op = self._rng.choice(_LOADS)
        align = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "lwu": 4,
                 "ld": 8}[op]
        return [f"    {op} {self._reg()}, {self._scratch_offset(align)}(s0)"]

    def _gen_store(self) -> List[str]:
        op = self._rng.choice(_STORES)
        align = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}[op]
        return [f"    {op} {self._reg()}, {self._scratch_offset(align)}(s0)"]

    def _gen_branch(self) -> List[str]:
        """Forward-only branch skipping 1-2 filler instructions."""
        op = self._rng.choice(_BRANCHES)
        label = f"fz_{self._label}"
        self._label += 1
        fillers = [f"    addi {self._reg()}, {self._reg()}, 1"
                   for _ in range(self._rng.randint(1, 2))]
        return ([f"    {op} {self._reg()}, {self._reg()}, {label}"]
                + fillers + [f"{label}:"])

    def _gen_csr(self) -> List[str]:
        if self._rng.random() < 0.5:
            return [f"    csrw mscratch, {self._reg()}"]
        return [f"    csrr {self._reg()}, mscratch"]

    def _gen_fp(self) -> List[str]:
        rng = self._rng
        kind = rng.randrange(4)
        fd, fa, fb = (f"f{rng.randrange(4)}" for _ in range(3))
        if kind == 0:
            op = rng.choice(("fadd.d", "fsub.d", "fmul.d"))
            return [f"    {op} {fd}, {fa}, {fb}"]
        if kind == 1:
            return [f"    fcvt.d.l {fd}, {self._reg()}"]
        if kind == 2:
            return [f"    fmv.x.d {self._reg()}, {fa}"]
        return [f"    fsd {fa}, {self._scratch_offset(8)}(s0)",
                f"    fld {fd}, {self._scratch_offset(8)}(s0)"]

    def _gen_amo(self) -> List[str]:
        rng = self._rng
        offset = self._scratch_offset(8)
        if rng.random() < 0.3:
            return [f"    addi a6, s0, {offset}",
                    "    lr.d a7, (a6)",
                    "    addi a7, a7, 1",
                    "    sc.d t6, a7, (a6)"]
        op = rng.choice(("amoadd.d", "amoswap.d", "amoxor.d", "amoand.d",
                         "amoor.d", "amomax.d", "amominu.w"))
        align_offset = offset & ~7 if op.endswith(".d") else offset & ~3
        return [f"    addi a6, s0, {align_offset}",
                f"    {op} {self._reg()}, {self._reg()}, (a6)"]

    def _gen_ecall(self) -> List[str]:
        return ["    ecall"]

    #: Compressed-capable registers (x8-x15 ABI names used by the fuzzer).
    _PRIME_REGS = ("s2", "s3", "s4", "s5", "a0", "a1", "a2", "a3", "a4", "a5")

    def _gen_compressed(self) -> List[str]:
        rng = self._rng
        prime = rng.choice(("a0", "a1", "a2", "a3", "a4", "a5"))
        prime2 = rng.choice(("a0", "a1", "a2", "a3", "a4", "a5"))
        kind = rng.randrange(6)
        if kind == 0:
            return [f"    c.addi {self._reg()}, {rng.randint(-32, 31)}"]
        if kind == 1:
            return [f"    c.li {self._reg()}, {rng.randint(-32, 31)}"]
        if kind == 2:
            op = rng.choice(("c.sub", "c.xor", "c.or", "c.and", "c.addw"))
            return [f"    {op} {prime}, {prime2}"]
        if kind == 3:
            return [f"    c.mv {self._reg()}, {self._reg()}",
                    f"    c.add {self._reg()}, {self._reg()}"]
        if kind == 4:
            op = rng.choice(("c.srli", "c.srai"))
            return [f"    {op} {prime}, {rng.randint(1, 63)}"]
        offset = self._scratch_offset(8)
        # s0 is x8, a compressed-capable base register.
        return [f"    c.sd {prime}, {offset & 0xF8}(s0)",
                f"    c.ld {prime2}, {offset & 0xF8}(s0)"]

    def _gen_vector(self) -> List[str]:
        rng = self._rng
        offset = self._scratch_offset(8) & ~31
        op = rng.choice(("vadd.vv", "vsub.vv", "vxor.vv", "vand.vv",
                         "vmul.vv", "vmin.vv", "vmax.vv", "vminu.vv",
                         "vmaxu.vv", "vor.vv"))
        vd, va, vb = (f"v{rng.randrange(1, 8)}" for _ in range(3))
        return ["    li t6, 4",
                "    vsetvli t6, t6, e64",
                f"    addi a6, s0, {offset}",
                f"    vle64.v {va}, (a6)",
                f"    {op} {vd}, {va}, {vb}",
                f"    vse64.v {vd}, (a6)"]


def generate(seed: int, length: int = 120,
             profile: FuzzProfile = FuzzProfile()) -> RandomProgram:
    """Generate one random program."""
    return ProgramGenerator(seed, length, profile).generate()


def fuzz_workload(seed: int, length: int = 120,
                  profile: FuzzProfile = FuzzProfile()) -> Workload:
    """Wrap a random program as a runnable workload."""
    program = generate(seed, length, profile)
    return Workload(f"fuzz_{seed}", program.image,
                    max_cycles=length * 60 + 20_000,
                    description=f"random program (seed {seed})")


def fuzz_specs(seeds, length: int = 120, dut_config=None,
               diff_config=None):
    """The job specs of a fuzz campaign, in seed order.

    Split out of :func:`fuzz_campaign` so a caller driving its own
    executor (the e2e benchmark, the chaos harness) runs the identical
    job definitions.
    """
    from ..parallel import JobSpec

    if dut_config is None or diff_config is None:
        from ..core.config import CONFIG_BNSD
        from ..dut.config import XIANGSHAN_DEFAULT
        dut_config = dut_config or XIANGSHAN_DEFAULT
        diff_config = diff_config or CONFIG_BNSD

    return [
        JobSpec(kind="fuzz", label=f"seed {seed}",
                params={"seed": seed, "length": length,
                        "dut": dut_config, "config": diff_config})
        for seed in seeds
    ]


def fuzz_campaign(seeds, length: int = 120, dut_config=None,
                  diff_config=None, workers=None, job_timeout=None,
                  retries: int = 1, fail_fast: bool = False,
                  on_result=None, collect_metrics: bool = False,
                  obs=None, supervision=None):
    """Run one fuzzing job per seed across all available cores.

    Each worker regenerates its program from the seed (specs carry only
    the seed and the config objects, never the image), so a campaign is
    bit-reproducible regardless of worker count.  With ``fail_fast``
    the campaign stops at the first failing seed *in seed order* — the
    executor discards any later results, keeping the aggregated report
    identical to a serial run.

    Returns a :class:`repro.parallel.CampaignResult`.
    """
    # Imported lazily: repro.parallel's built-in runners build on this
    # module, so a top-level import would be circular.
    from ..parallel import CampaignExecutor

    specs = fuzz_specs(seeds, length=length, dut_config=dut_config,
                       diff_config=diff_config)
    executor = CampaignExecutor(workers=workers, job_timeout=job_timeout,
                                retries=retries, short_circuit=fail_fast,
                                collect_metrics=collect_metrics, obs=obs,
                                supervision=supervision)
    return executor.run(specs, on_result=on_result)
