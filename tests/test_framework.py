"""Integration tests for the CoSimulation framework."""

import pytest

from repro.core import (
    CONFIG_B,
    CONFIG_BN,
    CONFIG_BNSD,
    CONFIG_COUPLED,
    CONFIG_FIXED,
    CONFIG_Z,
    run_cosim,
)
from repro.comm import FPGA_VU19P, PALLADIUM
from repro.dut import (
    NUTSHELL,
    XIANGSHAN_DEFAULT,
    XIANGSHAN_DUAL,
    XIANGSHAN_MINIMAL,
)

ALL_CONFIGS = (CONFIG_Z, CONFIG_FIXED, CONFIG_B, CONFIG_BN, CONFIG_BNSD,
               CONFIG_COUPLED)


class TestConfigurationLadder:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_all_configs_pass_clean_workload(self, small_image, config):
        result = run_cosim(XIANGSHAN_DEFAULT, config, small_image,
                           max_cycles=60_000)
        assert result.passed, result.mismatch
        assert result.exit_code == 0

    @pytest.mark.parametrize("dut", (NUTSHELL, XIANGSHAN_MINIMAL,
                                     XIANGSHAN_DEFAULT),
                             ids=lambda d: d.name)
    def test_all_duts_pass(self, small_image, dut):
        result = run_cosim(dut, CONFIG_BNSD, small_image, max_cycles=80_000)
        assert result.passed

    def test_dual_core(self, microbench_image):
        result = run_cosim(XIANGSHAN_DUAL, CONFIG_BNSD, microbench_image,
                           max_cycles=120_000)
        assert result.passed
        assert result.instructions > 0

    def test_same_instruction_count_across_configs(self, small_image):
        counts = {
            config.name: run_cosim(XIANGSHAN_DEFAULT, config, small_image,
                                   max_cycles=60_000).instructions
            for config in (CONFIG_Z, CONFIG_BNSD)
        }
        assert len(set(counts.values())) == 1


class TestOptimizationEffects:
    @pytest.fixture(scope="class")
    def results(self, small_image):
        return {
            config.name: run_cosim(XIANGSHAN_DEFAULT, config, small_image,
                                   max_cycles=60_000)
            for config in ALL_CONFIGS
        }

    def test_batch_reduces_invokes(self, results):
        assert results["B"].stats.counters.invokes < \
            results["Z"].stats.counters.invokes / 5

    def test_fixed_has_bubbles_batch_does_not(self, results):
        assert results["FIXED"].stats.bubble_bytes > 0
        assert results["B"].stats.bubble_bytes == 0
        assert results["FIXED"].stats.packet_utilization < 0.5
        assert results["B"].stats.packet_utilization == 1.0

    def test_fixed_inflates_bytes(self, results):
        assert results["FIXED"].stats.counters.bytes_sent > \
            1.5 * results["Z"].stats.counters.bytes_sent

    def test_squash_reduces_bytes(self, results):
        assert results["EBINSD"].stats.counters.bytes_sent < \
            results["BIN"].stats.counters.bytes_sent / 5

    def test_squash_fusion_ratio_above_coupled(self, results):
        assert results["EBINSD"].stats.fusion_ratio >= \
            results["COUPLED"].stats.fusion_ratio

    def test_modeled_speed_ladder_monotone(self, results):
        speeds = [
            results[name].breakdown(
                PALLADIUM, XIANGSHAN_DEFAULT.gates_millions,
                nonblocking=(name in ("BIN", "EBINSD"))).speed_khz
            for name in ("Z", "B", "BIN", "EBINSD")
        ]
        assert speeds == sorted(speeds)
        assert speeds[-1] > 10 * speeds[0]

    def test_software_work_reduced_by_squash(self, results):
        assert results["EBINSD"].stats.counters.sw_bytes_checked < \
            results["BIN"].stats.counters.sw_bytes_checked / 3

    def test_checkpoints_taken(self, results):
        assert results["EBINSD"].stats.checkpoints > 0


class TestRunResult:
    def test_uart_output_captured(self, mmio_workload):
        result = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD,
                           mmio_workload.image,
                           max_cycles=mmio_workload.max_cycles)
        assert result.passed
        assert "hello difftest-h" in result.uart_output

    def test_breakdown_per_platform(self, small_image):
        result = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD, small_image,
                           max_cycles=60_000)
        pldm = result.breakdown(PALLADIUM, 57.6, True)
        fpga = result.breakdown(FPGA_VU19P, 57.6, True)
        assert fpga.speed_khz > pldm.speed_khz

    def test_stats_summary_renders(self, small_image):
        result = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD, small_image,
                           max_cycles=60_000)
        assert "cycles=" in result.stats.summary()

    def test_max_cycles_budget_respected(self, small_image):
        result = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD, small_image,
                           max_cycles=10)
        assert result.cycles == 10
        assert result.exit_code is None


class TestNdeWorkloads:
    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_interrupts_under_all_configs(self, timer_workload, config):
        result = run_cosim(XIANGSHAN_DEFAULT, config, timer_workload.image,
                           max_cycles=timer_workload.max_cycles)
        assert result.passed, result.mismatch

    @pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.name)
    def test_mmio_under_all_configs(self, mmio_workload, config):
        result = run_cosim(XIANGSHAN_DEFAULT, config, mmio_workload.image,
                           max_cycles=mmio_workload.max_cycles)
        assert result.passed, result.mismatch

    def test_squash_sends_ndes_ahead(self, timer_workload):
        result = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD,
                           timer_workload.image,
                           max_cycles=timer_workload.max_cycles)
        assert result.stats.nde_sent_ahead > 0
        assert result.stats.fusion_breaks == 0

    def test_coupled_breaks_on_ndes(self, timer_workload):
        result = run_cosim(XIANGSHAN_DEFAULT, CONFIG_COUPLED,
                           timer_workload.image,
                           max_cycles=timer_workload.max_cycles)
        assert result.stats.fusion_breaks > 0


class TestSeedStability:
    def test_different_seeds_still_pass(self, small_image):
        for seed in (1, 7, 99):
            result = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD, small_image,
                               max_cycles=60_000, seed=seed)
            assert result.passed

    def test_same_seed_same_stats(self, small_image):
        a = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD, small_image,
                      max_cycles=60_000, seed=5)
        b = run_cosim(XIANGSHAN_DEFAULT, CONFIG_BNSD, small_image,
                      max_cycles=60_000, seed=5)
        assert a.stats.counters.bytes_sent == b.stats.counters.bytes_sent
        assert a.cycles == b.cycles


def test_one_run_loop():
    """The run loop is spelled once: a single ``while`` in
    ``core/framework.py`` walks ``_cycle`` forward (in ``advance``, via
    the one ``_arrive`` site that takes the cycle from the cores), the
    slicing and snapshot layers drive that loop instead of owning one,
    and the forks it replaced stay deleted."""
    import ast
    import pathlib

    import repro
    from repro.core import CoSimulation

    source = pathlib.Path(repro.__file__).parent

    def cycle_sites(relative):
        """(loops whose condition reads ``_cycle``, functions that assign
        ``<obj>._cycle``) in one source file, by enclosing function."""
        loops, writers = [], []
        tree = ast.parse((source / relative).read_text())
        for function in ast.walk(tree):
            if not isinstance(function, ast.FunctionDef):
                continue
            for node in ast.walk(function):
                if isinstance(node, ast.While) and any(
                        isinstance(part, ast.Attribute)
                        and part.attr == "_cycle"
                        for part in ast.walk(node.test)):
                    loops.append(function.name)
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (node.targets if isinstance(node, ast.Assign)
                               else [node.target])
                    if any(isinstance(target, ast.Attribute)
                           and target.attr == "_cycle"
                           for target in targets):
                        writers.append(function.name)
        return loops, writers

    loops, writers = cycle_sites("core/framework.py")
    assert loops == ["advance"], loops
    # Construction, the forward step and the boundary rewind: nothing
    # else moves the loop's clock.
    assert sorted(writers) == ["__init__", "_arrive", "_rewind"], writers
    for other in ("parallel/slicing.py", "core/snapshot.py"):
        assert cycle_sites(other) == ([], []), other
    for name in ("_run_resilient", "_hardware_cycle_obs",
                 "_software_drain_legacy", "_software_drain_obs",
                 "_drain_resilient"):
        assert not hasattr(CoSimulation, name), name


@pytest.mark.parametrize("observed", [False, True], ids=["plain", "obs"])
def test_finished_run_is_freed_by_reference_counting(observed):
    """A co-simulation holds DUT and REF memory images and campaigns
    build hundreds of them, so nothing of it may sit in a reference cycle
    waiting for the cycle collector (peak RSS of a fuzz campaign; pool
    workers run with the collector off).  The first program is a fuzz
    seed that traps: a caught trap kept in ``Hart.step``'s frame used to
    pin the whole call stack, and the REF's compensation log its state.
    The second loops, so both harts compile superblocks: a compiled
    function left in the exec namespace that is its own ``__globals__``
    used to pin both memories through the namespace's ``ML``/``MS``."""
    import gc
    import weakref

    from repro.core import CoSimulation
    from repro.events import ArchException
    from repro.obs import ObsContext
    from repro.workloads import build
    from repro.workloads.fuzz import fuzz_workload

    def still_alive_after(workload, looping):
        cosim = CoSimulation(XIANGSHAN_DEFAULT, CONFIG_BNSD, workload.image,
                             obs=ObsContext() if observed else None)
        result = cosim.run(workload.max_cycles)
        assert result.passed
        if looping:
            assert cosim.dut.cores[0].jit.stats.blocks_compiled > 0
            assert cosim.refs[0].hart.jit.stats.blocks_compiled > 0
        else:
            assert result.stats.profile.counts[
                ArchException.DESCRIPTOR.event_id] > 0
        assert (cosim._capture is None) == observed
        held = {"cosim": cosim, "monitor": cosim.dut.cores[0].monitor,
                "packer": cosim.packer, "ref memory": cosim.refs[0].memory,
                "dut memory": cosim.dut.memory}
        if not observed:
            held["capture engine"] = cosim._capture
        alive = {name: weakref.ref(obj) for name, obj in held.items()}
        del cosim, result, held
        return [name for name, ref in alive.items() if ref() is not None]

    trapping = fuzz_workload(2)
    looping = build("alu_hotloop", iterations=200)
    gc.disable()
    try:
        assert still_alive_after(trapping, looping=False) == []
        assert still_alive_after(looping, looping=True) == []
    finally:
        gc.enable()
