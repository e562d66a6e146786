"""Slice-equivalence harness for checkpoint-sliced sharding.

The contract of :func:`repro.parallel.sliced_run` is *byte identity*:
running one workload as N slices on M workers must reproduce, bit for
bit, the serial run of the same workload under the same
``slice_epoch_cycles`` — the same rendered counter report, the same
``RunStats`` counters, the same mismatch cycle, the same merged obs
snapshot.  Worker count may change only the wall clock.

Every test here compares a stitched sliced run against a freshly
executed serial reference (never against golden files), so the suite
also pins the serial epoch-barrier semantics they both share.
"""

import pytest

from repro.core import (
    CONFIG_B,
    CONFIG_BNSD,
    CONFIG_FIXED,
    CONFIG_Z,
    CoSimulation,
)
from repro.dut import NUTSHELL, fault_by_name
from repro.obs import ObsContext
from repro.parallel import (
    SliceExecutionError,
    balanced_cuts,
    epoch_for,
    iter_slice_specs,
    plan_windows,
    sliced_run,
)
from repro.toolkit import render_report
from repro.workloads import build

pytestmark = pytest.mark.slicing

WORKLOAD = build("memory_churn", array_kb=8, passes=1)
MAX = 4500  # the workload hits its good trap at exactly this cycle


def serial_run(config, *, max_cycles=MAX, epoch=None, fault="", trigger=0,
               obs=None):
    """The serial reference: one co-simulation under the sliced epoch."""
    if epoch is not None:
        config = config.with_(slice_epoch_cycles=epoch)
    cosim = CoSimulation(NUTSHELL, config, WORKLOAD.image, seed=2025,
                         uart_input=WORKLOAD.uart_input, obs=obs)
    if fault:
        fault_by_name(fault).install(cosim.dut.cores[0], trigger)
    result = cosim.run(max_cycles=max_cycles)
    return result, cosim


def sliced(config, *, slices, max_cycles=MAX, **kwargs):
    return sliced_run(NUTSHELL, config, WORKLOAD.image,
                      max_cycles=max_cycles, slices=slices, seed=2025,
                      uart_input=WORKLOAD.uart_input, **kwargs)


def assert_identical(result, sr):
    """The byte-identity contract between a serial RunResult and a
    SlicedRunResult."""
    serial = result.summarize()
    assert render_report(result.stats) == render_report(sr.stats)
    assert serial.counters == sr.summary.counters
    assert serial == sr.summary
    assert result.stats.checkpoints == sr.stats.checkpoints


class TestEpochFor:
    def test_even_split(self):
        assert epoch_for(4500, 4) == 1125
        assert epoch_for(4500, 1) == 4500

    def test_ceiling_division(self):
        # The last window is the short one: 4 + 4 + 2.
        assert epoch_for(10, 3) == 4

    def test_rejects_degenerate_inputs(self):
        with pytest.raises(ValueError):
            epoch_for(4500, 0)
        with pytest.raises(ValueError):
            epoch_for(0, 4)


class TestBalancedPlan:
    """Critical-path-balanced windows: geometric shrink, same identity."""

    def test_cuts_cover_run_and_shrink(self):
        epoch, cuts = balanced_cuts(MAX, 4)
        assert cuts[-1] == MAX
        assert len(cuts) == 4
        assert cuts == sorted(set(cuts))
        # Every cut snaps to the fine barrier grid.
        assert all(cut % epoch == 0 or cut == MAX for cut in cuts)
        # Windows shrink (modulo grid snapping): later slices wait
        # longer for their boundary seed, so they get less work.
        windows = [b - a for a, b in zip([0] + cuts, cuts)]
        assert all(later <= earlier + epoch
                   for earlier, later in zip(windows, windows[1:]))
        assert windows[-1] < windows[0]

    def test_single_slice_degenerates(self):
        assert balanced_cuts(MAX, 1) == (MAX, [MAX])

    def test_plan_windows_dispatch(self):
        assert plan_windows(MAX, 4, "uniform") == \
            (epoch_for(MAX, 4), [1125, 2250, 3375, 4500])
        assert plan_windows(MAX, 4, "balanced") == balanced_cuts(MAX, 4)
        with pytest.raises(ValueError, match="plan"):
            plan_windows(MAX, 4, "greedy")

    def test_balanced_identity(self):
        sr = sliced(CONFIG_BNSD, slices=4, workers=1, plan="balanced")
        result, cosim = serial_run(CONFIG_BNSD, epoch=sr.epoch_cycles)
        # The fine grid must still hit quiescent boundaries only.
        assert cosim._skipped_barriers == 0
        assert len(sr.slices) == 4
        _, cuts = balanced_cuts(MAX, 4)
        assert [piece.end_cycle for piece in sr.slices] == cuts
        assert_identical(result, sr)

    def test_balanced_matches_uniform_outcome(self):
        # Different plans change the barrier cadence (and hence the comm
        # counters), but never the run outcome: same cycles, same work,
        # same verdict.
        uniform = sliced(CONFIG_BNSD, slices=4, workers=1)
        balanced = sliced(CONFIG_BNSD, slices=4, workers=1,
                          plan="balanced")
        assert uniform.passed and balanced.passed
        assert uniform.summary.mismatch == balanced.summary.mismatch
        assert uniform.summary.counters.cycles == \
            balanced.summary.counters.cycles
        assert uniform.summary.counters.instructions == \
            balanced.summary.counters.instructions
        assert uniform.summary.counters.sw_ref_steps == \
            balanced.summary.counters.sw_ref_steps


class TestSerialIdentity:
    """Sliced(N) == serial under the same slice_epoch_cycles."""

    @pytest.mark.parametrize("slices", [1, 2, 4, 7])
    def test_slice_counts(self, slices):
        result, cosim = serial_run(CONFIG_BNSD,
                                   epoch=epoch_for(MAX, slices))
        # This workload is quiescent at every epoch boundary — the
        # precondition for reconstruct-mode slicing.
        assert cosim._skipped_barriers == 0
        sr = sliced(CONFIG_BNSD, slices=slices)
        assert sr.passed and result.passed
        assert len(sr.slices) == slices
        assert_identical(result, sr)

    @pytest.mark.parametrize("config",
                             [CONFIG_Z, CONFIG_FIXED, CONFIG_B],
                             ids=lambda c: c.name)
    def test_packer_schemes(self, config):
        result, _ = serial_run(config, epoch=epoch_for(MAX, 4))
        sr = sliced(config, slices=4)
        assert_identical(result, sr)

    @pytest.mark.parametrize("max_cycles", [4499, 3000])
    def test_budget_not_multiple_of_epoch(self, max_cycles):
        """Uneven windows (ceiling epoch) and mid-run budgets stitch
        identically too — exit code and all."""
        result, _ = serial_run(CONFIG_BNSD, max_cycles=max_cycles,
                               epoch=epoch_for(max_cycles, 4))
        sr = sliced(CONFIG_BNSD, slices=4, max_cycles=max_cycles)
        assert_identical(result, sr)

    def test_workload_finishing_before_first_boundary(self):
        """A huge budget yields one slice; identity still holds."""
        result, _ = serial_run(CONFIG_BNSD, max_cycles=1_000_000,
                               epoch=epoch_for(1_000_000, 4))
        sr = sliced(CONFIG_BNSD, slices=4, max_cycles=1_000_000)
        assert len(sr.slices) == 1
        assert_identical(result, sr)

    def test_forward_mode_matches_reconstruct_on_clean_run(self):
        fast = sliced(CONFIG_BNSD, slices=4)
        faithful = sliced(CONFIG_BNSD, slices=4, mode="forward")
        assert fast.summary == faithful.summary
        assert render_report(fast.stats) == render_report(faithful.stats)


class TestWorkerInvariance:
    """Worker count changes the wall clock, never the result."""

    def test_pool_matches_serial_executor(self):
        solo = sliced(CONFIG_BNSD, slices=4, workers=1)
        pooled = sliced(CONFIG_BNSD, slices=4, workers=4)
        assert solo.summary == pooled.summary
        assert render_report(solo.stats) == render_report(pooled.stats)
        assert [s.counters for s in solo.slices] == \
            [s.counters for s in pooled.slices]


class TestObsEquivalence:
    """Merged per-slice metric snapshots == the serial observed run's."""

    def test_merged_snapshot_matches_serial(self):
        obs = ObsContext()
        result, _ = serial_run(CONFIG_BNSD, epoch=epoch_for(MAX, 4),
                               obs=obs)
        sr = sliced(CONFIG_BNSD, slices=4, collect_metrics=True)
        assert sr.summary.metrics is not None
        # ``jit.*`` counts what one process's trace caches compiled and
        # ran: host-side tier diagnostics that depend on per-process
        # warm-up (every slice worker re-warms its own blocks), so they
        # cannot stitch and slice workers do not report them; the same
        # goes for ``dut.idle_cycles_skipped``, which counts loop trips
        # saved, not simulation.  Everything else must merge to exactly
        # the serial snapshot.
        serial_records = [
            record for record in result.metrics.records()
            if not record.name.startswith(("jit.", "dut.idle_cycles_"))]
        assert len(serial_records) < len(result.metrics.records())
        assert sr.summary.metrics.records() == serial_records
        assert render_report(result.stats, snapshot=result.metrics) == \
            render_report(sr.stats, snapshot=sr.summary.metrics)

    def test_parent_registry_accounts_slices(self):
        """slicing.* counters land on the orchestrating registry only —
        never inside the stitched (serial-identical) snapshot."""
        obs = ObsContext()
        sr = sliced(CONFIG_BNSD, slices=4, obs=obs, collect_metrics=True)
        parent = obs.registry.snapshot()
        assert parent.value("slicing.slices") == 4
        assert parent.value("slicing.slice_cycles") == \
            sr.stats.counters.cycles
        assert "slicing.slices" not in sr.summary.metrics.metrics


class TestFaultAttribution:
    """An injected DUT bug must surface in the sliced run exactly as in
    the serial run: same mismatch cycle, same debug report, attributed
    to the slice whose window contains it."""

    CASES = [
        ("control_flow_wdata", 500),
        ("store_queue_mismatch", 300),
        ("misaligned_wakeup", 800),
    ]

    @pytest.mark.parametrize("fault,trigger", CASES,
                             ids=[name for name, _ in CASES])
    def test_forward_mode_reproduces_serial_mismatch(self, fault, trigger):
        result, _ = serial_run(CONFIG_BNSD, epoch=epoch_for(MAX, 4),
                               fault=fault, trigger=trigger)
        serial = result.summarize()
        assert serial.mismatch is not None
        sr = sliced(CONFIG_BNSD, slices=4, mode="forward",
                    fault=fault, trigger=trigger)
        assert not sr.passed
        assert sr.summary.mismatch == serial.mismatch
        assert sr.summary.debug_report_text == serial.debug_report_text
        assert render_report(result.stats) == render_report(sr.stats)
        # Attribution: the failing slice's window contains the mismatch
        # cycle, and no slice past the failure was ever produced.
        failing = sr.slices[-1]
        assert failing.mismatch == serial.mismatch
        assert failing.start_cycle < serial.mismatch.cycle \
            <= failing.end_cycle
        assert all(s.mismatch is None for s in sr.slices[:-1])

    def test_reconstruct_mode_rejects_faults(self):
        """Reconstruct seeding would absorb boundary-crossing corruption
        into the rebuilt REF (a silent false pass) — refused up front."""
        with pytest.raises(ValueError, match="forward"):
            next(iter_slice_specs(
                NUTSHELL, CONFIG_BNSD, WORKLOAD.image, max_cycles=MAX,
                slices=4, fault="control_flow_wdata", trigger=500))

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="slice mode"):
            next(iter_slice_specs(
                NUTSHELL, CONFIG_BNSD, WORKLOAD.image, max_cycles=MAX,
                slices=4, mode="telepathy"))


class TestNonQuiescentWindow:
    def test_window_not_ending_quiescent_fails_loudly(self, monkeypatch):
        """A non-final window must close on a quiescent barrier; the
        harness refuses to stitch a window that did not."""
        monkeypatch.setattr(CoSimulation, "_transport_quiescent",
                            lambda self: False)
        with pytest.raises(SliceExecutionError, match="quiescent barrier"):
            sliced(CONFIG_BNSD, slices=4, workers=1)
