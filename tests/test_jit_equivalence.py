"""JIT-vs-interpreter equivalence for the compiled-simulation tier.

The contract of :mod:`repro.isa.jit` is *invisibility*: a run with the
trace cache enabled must be byte-identical — same wire bytes, same
counters, same rendered report, same mismatch, same UART output — to the
interpreted run, for every packer, for sliced execution, and for fault
campaigns.  The tier is on by default, so every reference run here pins
the interpreter with an explicit ``jit=False``.  Every test compares a
JIT-on run against a freshly executed JIT-off reference (never against
golden files), in the style of
``test_codec_equivalence.py``: the interpreted path is the behavioural
reference, the compiled path must match it bit for bit.

Coverage map:

* seeded random instruction streams per opcode family (ALU reg/imm,
  loads/stores, branches, traps, mixed) through the full co-simulation;
* per-step lockstep of the compiled REF steppers against the interpreter
  (state, results and compensation-log reverts);
* self-modifying code: page write-epoch eviction, recompilation, and
  end-to-end identity for a program that patches its own hot loop;
* trap boundaries: blocks never contain trap-capable instructions and
  ecall-heavy runs stay identical;
* snapshot/restore and sliced-run byte-identity with the JIT enabled;
* fault-injection runs: compiled DUT stepping wherever the armed
  latch cannot fire, identical up to and across the trigger (a dense
  sweep of triggers around a probe fault's horizon);
* the store hazard: a DUT block never carries a store behind another
  instruction, so refills and store-buffer flushes read the memory line
  the interpreter reads (wide-commit groups, whole workloads);
* the process-wide code cache: compile once per key, bind per run, no
  state shared between runs that share code, bounded.
"""

import random

import pytest

from repro.core import (
    CONFIG_B,
    CONFIG_BNSD,
    CONFIG_FIXED,
    CONFIG_Z,
    CoSimulation,
    run_cosim,
)
from repro.dut import NUTSHELL, XIANGSHAN_DEFAULT, fault_by_name
from repro.dut.snapshotting import restore_snapshot, take_snapshot
from repro.events import DCacheRefill, SbufferFlush
from repro.isa import jit as jit_module
from repro.isa.assembler import assemble
from repro.isa.const import DRAM_BASE
from repro.isa.csr import MINSTRET
from repro.isa.execute import Hart
from repro.isa.jit import TraceCache
from repro.isa.memory import Bus, PhysicalMemory
from repro.isa.state import ArchState
from repro.obs import ObsContext
from repro.parallel import epoch_for, sliced_run
from repro.ref.journal import CompensationLog
from repro.toolkit import render_report
from repro.workloads import build
from tests.conftest import tap_wire

SCRATCH = 0x8020_0000

_ALU_RR = ("add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt",
           "sltu", "addw", "subw", "mul", "mulh", "mulhu", "div", "divu",
           "rem", "remu")
_ALU_RI = ("addi", "andi", "ori", "xori", "slti", "sltiu", "addiw")
_SHIFTS = ("slli", "srli", "srai")
_LOADS = ("lb", "lh", "lw", "ld", "lbu", "lhu", "lwu")
_STORES = ("sb", "sh", "sw", "sd")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
_REGS = ("t0", "t1", "t2", "t3", "t4", "t5", "t6",
         "a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7",
         "s2", "s3", "s4", "s5")
_ALIGN = {"lb": 1, "lbu": 1, "sb": 1, "lh": 2, "lhu": 2, "sh": 2,
          "lw": 4, "lwu": 4, "sw": 4, "ld": 8, "sd": 8}

FAMILIES = ("alu_reg", "alu_imm", "load_store", "branch", "traps", "mixed")


def family_source(family: str, seed: int, length: int = 40,
                  loops: int = 8) -> str:
    """A seeded random instruction stream of one opcode family, wrapped
    in an outer loop so entry PCs get hot enough to compile.

    Register conventions: ``s0`` holds the scratch base, the loop
    counter lives in memory at ``2040(s0)`` (above every generated
    load/store offset), ``s1`` is trap-handler scratch.
    """
    rng = random.Random(seed)
    body = []
    label_count = 0

    def reg():
        return rng.choice(_REGS)

    def gen_alu_reg():
        body.append(f"    {rng.choice(_ALU_RR)} {reg()}, {reg()}, {reg()}")

    def gen_alu_imm():
        if rng.random() < 0.3:
            body.append(f"    {rng.choice(_SHIFTS)} {reg()}, {reg()}, "
                        f"{rng.randint(0, 63)}")
        elif rng.random() < 0.15:
            body.append(f"    lui {reg()}, {rng.randint(0, 0xFFFFF)}")
        else:
            body.append(f"    {rng.choice(_ALU_RI)} {reg()}, {reg()}, "
                        f"{rng.randint(-2048, 2047)}")

    def gen_load():
        op = rng.choice(_LOADS)
        offset = rng.randrange(0, 2032, _ALIGN[op])
        body.append(f"    {op} {reg()}, {offset}(s0)")

    def gen_store():
        op = rng.choice(_STORES)
        offset = rng.randrange(0, 2032, _ALIGN[op])
        body.append(f"    {op} {reg()}, {offset}(s0)")

    def gen_branch():
        nonlocal label_count
        label = f"jq_{seed}_{label_count}"
        label_count += 1
        body.append(f"    {rng.choice(_BRANCHES)} {reg()}, {reg()}, {label}")
        body.append(f"    addi {reg()}, {reg()}, 1")
        body.append(f"{label}:")

    def gen_trap():
        body.append("    ecall")

    gens = {
        "alu_reg": (gen_alu_reg,),
        "alu_imm": (gen_alu_imm,),
        "load_store": (gen_load, gen_store),
        "branch": (gen_branch, gen_alu_imm),
        "traps": (gen_trap, gen_alu_reg, gen_alu_imm),
        "mixed": (gen_alu_reg, gen_alu_imm, gen_load, gen_store,
                  gen_branch),
    }[family]
    for _ in range(length):
        rng.choice(gens)()

    lines = [
        "_start:",
        "    li sp, 0x80100000",
        f"    li s0, {SCRATCH}",
        "    la t0, trap_handler",
        "    csrw mtvec, t0",
    ]
    for offset in range(0, 64, 8):
        lines += [f"    li t1, {rng.getrandbits(32)}",
                  f"    sd t1, {offset}(s0)"]
    for name in _REGS[:10]:
        lines.append(f"    li {name}, {rng.getrandbits(16)}")
    lines += [f"    li s1, {loops}", "    sd s1, 2040(s0)", "outer:"]
    lines += body
    lines += [
        "    ld s1, 2040(s0)",
        "    addi s1, s1, -1",
        "    sd s1, 2040(s0)",
        "    bnez s1, outer",
        "    li a0, 0",
        "    ebreak",
        ".align 3",
        "trap_handler:",
        "    csrr s1, mepc",
        "    addi s1, s1, 4",
        "    csrw mepc, s1",
        "    mret",
    ]
    return "\n".join(lines)


def tapped(dut, config, image, seed=2025, uart_input=b""):
    """A co-simulation plus the list its wire transfers are copied to."""
    cosim = CoSimulation(dut, config, image, seed=seed,
                         uart_input=uart_input)
    return cosim, tap_wire(cosim)


def run_pair(image, max_cycles, config=CONFIG_BNSD, dut=NUTSHELL,
             fault=None, trigger=0, uart_input=b""):
    """One JIT-off and one JIT-on run of the same image; asserts the two
    put the same bytes on the wire and returns the (off, on) results and
    the JIT-on CoSimulation for stats access.  Blocks compile on their
    third sighting so tiny programs engage."""
    results, wires = {}, {}
    on_sim = None
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.isa.jit.DEFAULT_WARMUP", 2)
        for label, jit in (("off", False), ("on", True)):
            cosim, wires[label] = tapped(dut, config.with_(jit=jit), image,
                                         uart_input=uart_input)
            if fault is not None:
                fault_by_name(fault).install(cosim.dut.cores[0], trigger)
            results[label] = cosim.run(max_cycles)
            if label == "on":
                on_sim = cosim
    assert wires["off"] == wires["on"]
    return results["off"], results["on"], on_sim


def assert_identical(off, on):
    """The byte-identity contract between a JIT-off and JIT-on run."""
    assert render_report(off.stats) == render_report(on.stats)
    assert off.summarize() == on.summarize()
    assert off.exit_code == on.exit_code
    assert off.uart_output == on.uart_output
    assert (off.mismatch is None) == (on.mismatch is None)


# ----------------------------------------------------------------------
# Seeded per-opcode-family streams through the full co-simulation
# ----------------------------------------------------------------------

class TestOpcodeFamilyStreams:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", [11, 23])
    def test_family_stream_identity(self, family, seed):
        image = assemble(family_source(family, seed))
        off, on, _ = run_pair(image, max_cycles=60_000)
        assert off.exit_code == 0, family
        assert_identical(off, on)

    def test_jit_engages_on_straightline_families(self):
        image = assemble(family_source("alu_reg", seed=7, loops=12))
        off, on, sim = run_pair(image, max_cycles=60_000)
        assert_identical(off, on)
        dut_cache = sim.dut.cores[0].jit
        ref_cache = sim.refs[0].hart.jit
        assert dut_cache.stats.blocks_compiled > 0
        assert dut_cache.stats.hits > 0
        assert ref_cache.stats.steps > 0

    def test_obs_counters_surface_jit_activity(self, monkeypatch):
        monkeypatch.setattr("repro.isa.jit.DEFAULT_WARMUP", 2)
        workload = build("memory_churn", array_kb=8, passes=1)
        on = run_cosim(NUTSHELL, CONFIG_BNSD.with_(jit=True),
                       workload.image, max_cycles=4500, obs=ObsContext())
        off = run_cosim(NUTSHELL, CONFIG_BNSD.with_(jit=False),
                        workload.image, max_cycles=4500, obs=ObsContext())
        assert on.metrics.value("jit.blocks_compiled") > 0
        assert on.metrics.value("jit.hits") > 0
        assert on.metrics.value("jit.steps") > 0
        # A JIT-off run snapshots identically to one without the tier.
        assert "jit.hits" not in off.metrics.metrics


# ----------------------------------------------------------------------
# Per-step lockstep of the compiled REF steppers
# ----------------------------------------------------------------------

def _journaled_hart(image: bytes, jit: bool) -> Hart:
    bus = Bus(PhysicalMemory())
    bus.memory.store_bytes(DRAM_BASE, image)
    hart = Hart(ArchState(0, DRAM_BASE), bus)
    journal = CompensationLog()
    hart.state.attach_journal(journal)
    hart.bus.memory.journal = journal
    if jit:
        hart.jit = TraceCache(hart.bus, "ref", warmup=1)
    return hart


def _state_key(hart: Hart):
    return (hart.state.pc, tuple(hart.state.xregs), hart.instret,
            hart.state.csr.peek(MINSTRET))


class TestRefStepperLockstep:
    @pytest.mark.parametrize("family",
                             ["alu_reg", "alu_imm", "load_store", "mixed"])
    def test_state_and_results_match_every_step(self, family):
        image = assemble(family_source(family, seed=5, loops=6))
        interp = _journaled_hart(image, jit=False)
        jit = _journaled_hart(image, jit=True)
        for _ in range(1500):
            a = interp.step(mmio_policy="skip")
            b = jit.step(mmio_policy="skip")
            assert a.pc == b.pc and a.next_pc == b.next_pc
            assert a.name == b.name and a.instr == b.instr
            assert tuple(a.reg_writes) == tuple(b.reg_writes)
            assert list(a.mem_ops) == list(b.mem_ops)
            assert _state_key(interp) == _state_key(jit)
        assert jit.jit.stats.steps > 0

    def test_journal_revert_matches_interpreter(self):
        image = assemble(family_source("mixed", seed=17, loops=6))
        interp = _journaled_hart(image, jit=False)
        jit = _journaled_hart(image, jit=True)
        for _ in range(300):  # get both past warmup, identically
            interp.step(mmio_policy="skip")
            jit.step(mmio_policy="skip")
        assert _state_key(interp) == _state_key(jit)
        marks = (interp.state.journal.checkpoint(),
                 jit.state.journal.checkpoint())
        snap = _state_key(interp)
        for _ in range(400):
            interp.step(mmio_policy="skip")
            jit.step(mmio_policy="skip")
        interp.state.journal.revert_to(marks[0], interp.state,
                                       interp.bus.memory)
        jit.state.journal.revert_to(marks[1], jit.state, jit.bus.memory)
        # The journal restores architectural state (pc, xregs, MINSTRET,
        # memory) but not the hart-level ``instret`` tally — drop it from
        # the revert comparison, matching interpreter behaviour.
        assert _state_key(interp)[:2] + _state_key(interp)[3:] == \
            snap[:2] + snap[3:]
        assert _state_key(jit) == _state_key(interp)
        mem_a = interp.bus.memory.load_bytes(SCRATCH, 2048)
        mem_b = jit.bus.memory.load_bytes(SCRATCH, 2048)
        assert mem_a == mem_b


# ----------------------------------------------------------------------
# Self-modifying code: eviction and recompilation
# ----------------------------------------------------------------------

def _word_of(instr: str) -> int:
    return int.from_bytes(assemble(instr)[:4], "little")


class TestSelfModifyingCode:
    def test_page_epoch_bumps_only_on_code_pages(self):
        memory = PhysicalMemory()
        page = DRAM_BASE >> 12
        epoch = memory.register_code_page(page)
        memory.store_bytes(DRAM_BASE + 0x100, b"\xAA" * 4)
        assert memory.code_epoch(page) != epoch
        epoch = memory.code_epoch(page)
        memory.store_bytes(DRAM_BASE + 0x2000, b"\xBB" * 4)  # other page
        assert memory.code_epoch(page) == epoch

    def test_replace_pages_invalidates_all_code_pages(self):
        memory = PhysicalMemory()
        memory.store_bytes(DRAM_BASE, b"\x00" * 64)
        epoch = memory.register_code_page(DRAM_BASE >> 12)
        memory.replace_pages(memory._pages)
        assert memory.code_epoch(DRAM_BASE >> 12) != epoch

    def test_store_into_compiled_block_evicts_and_recompiles(self):
        source = "\n".join([
            "_start:",
            "    li t0, 2000",
            "    li t1, 0",
            "loop:",
            "    addi t1, t1, 1",
            "    addi t0, t0, -1",
            "    bnez t0, loop",
            "    j _start",
        ])
        image = assemble(source)
        site = DRAM_BASE + image.index(
            _word_of("addi t1, t1, 1").to_bytes(4, "little"))
        patched = _word_of("addi t1, t1, 3").to_bytes(4, "little")

        def run_to(hart, cache, instret):
            while hart.instret < instret:
                results = (cache.run_block(hart, hart.state.pc, 1 << 30)
                           if cache is not None else None)
                if results is None:
                    hart.step()

        def bare(image):
            bus = Bus(PhysicalMemory())
            bus.memory.store_bytes(DRAM_BASE, image)
            return Hart(ArchState(0, DRAM_BASE), bus)

        jit = bare(image)
        cache = TraceCache(jit.bus, "dut", warmup=2)
        interp = bare(image)
        run_to(jit, cache, 600)
        run_to(interp, None, jit.instret)
        assert cache.stats.hits > 0 and cache.stats.evictions == 0
        assert _state_key_bare(jit) == _state_key_bare(interp)
        # Patch the hot loop in both memories at the same instruction
        # boundary; the compiled block must be evicted, not replayed.
        jit.bus.memory.store_bytes(site, patched)
        interp.bus.memory.store_bytes(site, patched)
        compiled_before = cache.stats.blocks_compiled
        run_to(jit, cache, 3000)
        run_to(interp, None, jit.instret)
        assert cache.stats.evictions >= 1
        assert cache.stats.blocks_compiled > compiled_before
        assert _state_key_bare(jit) == _state_key_bare(interp)

    def test_self_patching_program_end_to_end_identity(self):
        patched = _word_of("addi t1, t1, 2")
        source = "\n".join([
            "_start:",
            "    li t0, 60",
            "    li t1, 0",
            "    la t2, site",
            f"    li t3, {patched}",
            "    li t5, 30",
            "loop:",
            "site:",
            "    addi t1, t1, 1",
            "    addi t0, t0, -1",
            "    beq t0, t5, do_patch",
            "resume:",
            "    bnez t0, loop",
            "    li a0, 0",
            "    ebreak",
            "do_patch:",
            "    sw t3, 0(t2)",
            "    j resume",
        ])
        image = assemble(source)
        off, on, sim = run_pair(image, max_cycles=10_000)
        assert_identical(off, on)
        evictions = (sim.dut.cores[0].jit.stats.evictions
                     + sim.refs[0].hart.jit.stats.evictions)
        assert evictions >= 1


def _state_key_bare(hart: Hart):
    return (hart.state.pc, tuple(hart.state.xregs), hart.instret,
            hart.state.csr.peek(MINSTRET))


# ----------------------------------------------------------------------
# Trap boundaries
# ----------------------------------------------------------------------

class TestTrapBoundaries:
    def test_trace_never_crosses_trap_capable_instructions(self):
        source = "\n".join([
            "_start:",
            "    addi t0, t0, 1",
            "    addi t1, t1, 2",
            "    ecall",
            "    addi t2, t2, 3",
            "    j _start",
        ])
        image = assemble(source)
        bus = Bus(PhysicalMemory())
        bus.memory.store_bytes(DRAM_BASE, image)
        cache = TraceCache(bus, "dut", warmup=1)
        trace = cache._trace(DRAM_BASE)
        assert trace is not None
        names = [d.name for _, _, d in trace]
        assert "ecall" not in names
        assert names == ["addi", "addi"]  # stops before the trap

    def test_ecall_heavy_stream_identity(self):
        image = assemble(family_source("traps", seed=3, loops=6))
        off, on, _ = run_pair(image, max_cycles=60_000)
        assert off.exit_code == 0
        assert_identical(off, on)


# ----------------------------------------------------------------------
# Snapshot/restore and sliced-run byte-identity
# ----------------------------------------------------------------------

class TestSnapshotAndSlicing:
    def test_dut_snapshot_restore_replays_identically(self, monkeypatch):
        """Restoring a mid-run snapshot re-validates stale blocks via the
        epoch bump and the re-run is cycle-identical."""
        monkeypatch.setattr("repro.isa.jit.DEFAULT_WARMUP", 2)
        workload = build("memory_churn", array_kb=8, passes=1)
        config = CONFIG_BNSD.with_(jit=True)
        cosim = CoSimulation(NUTSHELL, config, workload.image, seed=2025,
                             uart_input=workload.uart_input)
        dut = cosim.dut
        for _ in range(600):
            dut.cycle()
        snap = take_snapshot(dut)
        first = [b for _ in range(300) for b in dut.cycle()]
        restore_snapshot(dut, snap)
        second = [b for _ in range(300) for b in dut.cycle()]
        assert [b.events for b in first] == [b.events for b in second]
        assert [b.committed for b in first] == [b.committed for b in second]

    def test_sliced_run_identity_with_jit(self, monkeypatch):
        monkeypatch.setattr("repro.isa.jit.DEFAULT_WARMUP", 4)
        workload = build("memory_churn", array_kb=8, passes=1)
        max_cycles = 4500
        config = CONFIG_BNSD.with_(jit=True)
        serial = CoSimulation(
            NUTSHELL, config.with_(slice_epoch_cycles=epoch_for(max_cycles, 3)),
            workload.image, seed=2025,
            uart_input=workload.uart_input).run(max_cycles)
        sliced = sliced_run(NUTSHELL, config, workload.image,
                            max_cycles=max_cycles, slices=3, seed=2025,
                            uart_input=workload.uart_input)
        assert sliced.passed
        assert render_report(serial.stats) == render_report(sliced.stats)
        assert serial.summarize() == sliced.summary

    @pytest.mark.parametrize("config", [CONFIG_Z, CONFIG_B, CONFIG_FIXED,
                                        CONFIG_BNSD],
                             ids=lambda c: c.name)
    def test_packer_schemes_identity(self, config):
        workload = build("memory_churn", array_kb=8, passes=1)
        off, on, _ = run_pair(workload.image, max_cycles=4500,
                              config=config)
        assert_identical(off, on)


# ----------------------------------------------------------------------
# Fault injection: compiled wherever the armed latch cannot fire
# ----------------------------------------------------------------------

class TestFaultInjection:
    CASES = [("control_flow_wdata", 500), ("store_queue_mismatch", 300),
             ("misaligned_wakeup", 800)]

    @pytest.mark.parametrize("fault,trigger", CASES,
                             ids=[name for name, _ in CASES])
    def test_faulted_run_identity_and_compiled_before_trigger(self, fault,
                                                              trigger):
        workload = build("memory_churn", array_kb=8, passes=1)
        off, on, sim = run_pair(workload.image, max_cycles=4500,
                                fault=fault, trigger=trigger)
        assert off.mismatch is not None
        assert on.mismatch is not None
        assert off.summarize().mismatch == on.summarize().mismatch
        assert off.summarize().debug_report_text == \
            on.summarize().debug_report_text
        assert_identical(off, on)
        # An armed latch no longer pins the DUT core to the interpreter:
        # the cycles that end below its trigger run compiled.
        dut_cache = sim.dut.cores[0].jit
        assert dut_cache.stats.hits > 0
        assert dut_cache.stats.steps > 0

    def test_xiangshan_fault_identity(self):
        workload = build("memory_churn", array_kb=8, passes=1)
        off, on, _ = run_pair(workload.image, max_cycles=6000,
                              dut=XIANGSHAN_DEFAULT,
                              fault="control_flow_wdata", trigger=400)
        assert_identical(off, on)

    def test_probe_fault_dense_triggers_around_the_horizon(self):
        """A probe fault reads the post-block ``instret``, so a compiled
        block that ends exactly at the trigger would corrupt the wrong
        refill: every trigger in a dense range must match the
        interpreter (a ``<=`` horizon bound fails seven of these)."""
        workload = build("memory_churn", array_kb=8, passes=1)
        diverged = []
        for trigger in range(380, 420):
            try:
                off, on, sim = run_pair(workload.image, max_cycles=6000,
                                        dut=XIANGSHAN_DEFAULT,
                                        fault="cache_line_corruption",
                                        trigger=trigger)
                assert_identical(off, on)
            except AssertionError:
                diverged.append(trigger)
                continue
            assert off.mismatch is not None, trigger
            assert sim.dut.cores[0].jit.stats.hits > 0
        assert diverged == []

    @pytest.mark.parametrize("fault,program,triggers", [
        ("store_queue_mismatch", ("memory_churn", {"array_kb": 8,
                                                   "passes": 1}),
         (300, 381, 400)),
        ("wrong_exception_cause", ("exception_stress", {}),
         (160, 260, 300)),
    ], ids=["hart_hook", "trap"])
    def test_hook_fault_triggers(self, fault, program, triggers):
        """Hart-hook and trap faults see the pre-step ``instret``: the
        same horizon gate, identical mismatch and debug report."""
        name, kwargs = program
        built = build(name, **kwargs)
        for trigger in triggers:
            off, on, sim = run_pair(built.image, max_cycles=6000,
                                    dut=XIANGSHAN_DEFAULT, fault=fault,
                                    trigger=trigger,
                                    uart_input=built.uart_input)
            assert off.mismatch is not None, trigger
            assert off.summarize().debug_report_text == \
                on.summarize().debug_report_text
            assert_identical(off, on)
            assert sim.dut.cores[0].jit.stats.hits > 0


class TestLatchHorizon:
    """``quiet(instret, n)``: the window ``[instret, instret + n]`` lies
    strictly below the next index the latch can fire at, or wholly
    above the index it fired at."""

    @pytest.mark.parametrize("name", ["store_queue_mismatch",
                                      "wrong_exception_cause"])
    def test_quiet_before_and_after_firing(self, name):
        core = CoSimulation(NUTSHELL, CONFIG_BNSD,
                            assemble("_start:\n    ebreak")).dut.cores[0]
        fault_by_name(name).install(core, 100)
        latch = core._fault_latch
        assert latch.trigger == 100 and latch.fire_at is None
        assert latch.quiet(90, 9)
        assert not latch.quiet(90, 10)  # the window ends at the trigger
        assert not latch.quiet(150, 1)  # unfired: any index >= trigger
        if name == "store_queue_mismatch":
            assert latch.fires(120)
        else:
            core.hart.instret = 120
            core.hart.hooks.on_trap(2, 0)
        assert latch.fire_at == 120
        assert latch.quiet(110, 9)  # re-execution after a restore
        assert not latch.quiet(110, 10)
        assert not latch.quiet(120, 0)
        assert latch.quiet(121, 6)


# ----------------------------------------------------------------------
# The store hazard: a store only ever leads a DUT batch
# ----------------------------------------------------------------------

def _hot_loop(*body: str, iterations: int = 200) -> bytes:
    """``body`` in a counted loop over fresh 64-byte lines (``s0``
    advances one line per iteration, ``t0`` counts down and is the value
    stored, so every store changes its line)."""
    return assemble("\n".join([
        "_start:",
        f"    li s0, {SCRATCH}",
        f"    li t0, {iterations}",
        "loop:",
        *(f"    {line}" for line in body),
        "    addi s0, s0, 64",
        "    addi t0, t0, -1",
        "    bnez t0, loop",
        "    li a0, 0",
        "    ebreak",
    ]))


#: Commit groups the batched hierarchy model used to get wrong.  Both
#: put a store directly behind the instruction whose line data it
#: changes, so a 6-wide group regularly holds the pair.
HAZARDS = {
    # The load misses a fresh D-cache line; the store then writes into
    # it.  The refill must carry the line as it was between the two.
    "load_miss_then_store": _hot_loop("ld t1, 0(s0)", "sd t0, 8(s0)"),
    # The 16-entry store buffer holds the 16 most recently stored lines;
    # with this pattern the oldest is always the line stored 8 iterations
    # ago, so the first store (a fresh line) flushes exactly the line the
    # second store then writes into.
    "flushing_store_then_store": _hot_loop("sd t0, 0(s0)",
                                           "sd t0, -504(s0)"),
}


class TestStoreHazard:
    @pytest.mark.parametrize("hazard", sorted(HAZARDS))
    def test_wide_commit_group_identity(self, hazard):
        off, on, sim = run_pair(HAZARDS[hazard], max_cycles=20_000,
                                dut=XIANGSHAN_DEFAULT)
        assert off.passed and on.passed
        assert_identical(off, on)
        dut_stats = sim.dut.cores[0].jit.stats
        ref_stats = sim.refs[0].hart.jit.stats
        assert dut_stats.blocks_compiled > 0 and dut_stats.hits > 100
        assert dut_stats.bailouts == 0
        assert ref_stats.blocks_compiled > 0 and ref_stats.steps > 100
        # The hazard was live: the group did hold refills / flushes.
        counts = on.stats.profile.counts
        event = DCacheRefill if hazard.startswith("load") else SbufferFlush
        assert counts[event.DESCRIPTOR.event_id] > 100

    @pytest.mark.parametrize("config", [CONFIG_BNSD, CONFIG_Z],
                             ids=lambda c: c.name)
    @pytest.mark.parametrize("name", ["mini_os", "fib_recursive"])
    def test_whole_workload_identity_on_wide_commit(self, name, config):
        workload = build(name)
        off, on, sim = run_pair(workload.image, workload.max_cycles,
                                config=config, dut=XIANGSHAN_DEFAULT,
                                uart_input=workload.uart_input)
        assert off.passed and on.passed
        assert_identical(off, on)
        assert sim.dut.cores[0].jit.stats.hits > 0

    def test_dut_blocks_hold_a_store_only_in_front(self):
        image = assemble(family_source("load_store", seed=9))
        stores = ("sb", "sh", "sw", "sd")
        traces = {}
        for mode in ("dut", "ref"):
            bus = Bus(PhysicalMemory())
            bus.memory.store_bytes(DRAM_BASE, image)
            cache = TraceCache(bus, mode)
            traces[mode] = [
                [d.name for _, _, d in cache._trace(pc) or ()]
                for pc in range(DRAM_BASE, DRAM_BASE + len(image), 4)]
        assert any(names[0] in stores and len(names) > 1
                   for names in traces["dut"] if names)
        for names in traces["dut"]:
            assert not set(names[1:]) & set(stores), names
        # REF steppers run one instruction per call: blocks keep their
        # full length, stores included.
        assert any(set(names[1:]) & set(stores) for names in traces["ref"])
        for dut_names, ref_names in zip(traces["dut"], traces["ref"]):
            assert ref_names[:len(dut_names)] == dut_names


# ----------------------------------------------------------------------
# The process-wide code cache: compile once, bind per run
# ----------------------------------------------------------------------

def _jit_totals(cosim):
    return [(c.stats.blocks_compiled, c.stats.hits, c.stats.steps,
             c.stats.evictions, c.stats.bailouts)
            for c in (cosim.dut.cores[0].jit, cosim.refs[0].hart.jit)]


@pytest.fixture
def cold_code_cache(monkeypatch):
    """An empty code cache for the test (restored afterwards) and a
    counter of the ``compile`` calls the tier makes."""
    monkeypatch.setattr(jit_module, "_CODE_CACHE", {})
    monkeypatch.setattr(jit_module, "DEFAULT_WARMUP", 2)
    calls = []

    def counting_compile(source, filename, mode):
        calls.append(filename)
        return compile(source, filename, mode)

    monkeypatch.setattr(jit_module, "compile", counting_compile,
                        raising=False)
    return calls


class TestCodeCache:
    IMAGE = HAZARDS["load_miss_then_store"]

    def _run(self, seed=2025):
        cosim, wire = tapped(XIANGSHAN_DEFAULT, CONFIG_BNSD, self.IMAGE,
                             seed=seed)
        return cosim.run(20_000), wire, cosim

    def test_second_run_of_an_image_only_binds(self, cold_code_cache):
        first, first_wire, first_sim = self._run()
        compiled = len(cold_code_cache)
        assert compiled == len(jit_module._CODE_CACHE) > 0
        assert len(set(cold_code_cache)) == compiled  # once per key
        second, second_wire, second_sim = self._run()
        assert len(cold_code_cache) == compiled
        assert len(jit_module._CODE_CACHE) == compiled
        # Counters say what this run installed and ran, not what the
        # process had to compile for it.
        assert _jit_totals(second_sim) == _jit_totals(first_sim)
        assert _jit_totals(second_sim)[0][0] > 0
        assert second_wire == first_wire
        assert_identical(first, second)

    def test_runs_sharing_code_share_no_state(self, cold_code_cache):
        alone, alone_wire, alone_sim = self._run(seed=7)
        jit_module._CODE_CACHE.clear()
        self._run(seed=3)  # recompiles the code the next run binds
        after, after_wire, after_sim = self._run(seed=7)
        assert after_wire == alone_wire
        assert_identical(alone, after)
        assert _jit_totals(after_sim) == _jit_totals(alone_sim)

    def test_interleaved_live_runs_stay_independent(self, cold_code_cache):
        solo = {seed: self._run(seed=seed) for seed in (3, 7)}
        live = {seed: tapped(XIANGSHAN_DEFAULT, CONFIG_BNSD, self.IMAGE,
                             seed=seed) for seed in (3, 7)}
        for until in range(100, 2001, 100):
            for cosim, _ in live.values():
                cosim.advance(until)
        for seed, (cosim, wire) in live.items():
            result = cosim.run(20_000)
            reference, reference_wire, reference_sim = solo[seed]
            assert result.passed
            assert wire == reference_wire
            assert_identical(reference, result)
            assert _jit_totals(cosim) == _jit_totals(reference_sim)

    def test_bounded_cache_stays_identical(self, cold_code_cache,
                                           monkeypatch):
        monkeypatch.setattr(jit_module, "MAX_CACHED_CODE", 8)
        high_water = 0

        class Watched(dict):
            def __setitem__(self, key, value):
                nonlocal high_water
                super().__setitem__(key, value)
                high_water = max(high_water, len(self))

        monkeypatch.setattr(jit_module, "_CODE_CACHE", Watched())
        for seed in range(6):
            image = assemble(family_source("mixed", seed=100 + seed,
                                           length=24, loops=6))
            off, on, sim = run_pair(image, max_cycles=30_000)
            assert off.exit_code == 0
            assert_identical(off, on)
            assert sim.dut.cores[0].jit.stats.hits > 0
        assert len(cold_code_cache) > 8  # the sweep overflowed the bound
        assert 0 < high_water <= 8
