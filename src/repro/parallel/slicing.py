"""Checkpoint-sliced sharding: one workload, N cycle-bounded slices.

A single co-simulation is inherently serial — every checked event
mutates the shared REF state — so the campaign executor alone cannot
speed up *one long run*.  This module restores run-level parallelism by
cutting the run at **slice-epoch barriers**: cycles where the whole
pipeline is provably quiescent (everything captured has been checked,
the differencing stream is re-keyed, every REF is checkpointed at its
checked slot).  After such a barrier the remainder of the run is
independent of the wire history before it, so a slice resumed there
emits a byte-identical event stream.

The flow has three parts:

1. **Boundary seeding** — fast-forward the system once to each epoch
   boundary and capture a picklable
   :class:`~repro.core.framework.BoundarySeed`.  Two modes:

   ``reconstruct`` (default)
       Forward a *bare DUT* (no REF, no checking, no event
       construction) — roughly twice the speed of full co-simulation,
       which is where the throughput win comes from.  Each worker
       rebuilds its REF from the DUT snapshot,
       legal because DUT and REF agree on all checked state at a
       quiescent barrier.  Single-core only, and — because a REF
       rebuilt from a corrupted image would absorb the corruption —
       incompatible with DUT fault injection (rejected with a
       ``ValueError``; use ``forward``).
   ``forward``
       Forward a full co-simulation and ship cloned REFs in the seed.
       Slower seeding, but faithful: a mismatch stops boundary
       production (slices past a failure never exist), fault firing is
       tracked exactly across boundaries, and multi-core systems are
       supported.

2. **Slice execution** — each boundary becomes a ``slice`` job for the
   :class:`~repro.parallel.executor.CampaignExecutor`.  Slice *i*
   resumes at boundary *i* and runs to boundary *i+1* (the final slice
   runs to the global cycle budget).  Workers run under the same
   ``slice_epoch_cycles`` as the serial reference, so in-window
   barriers fire at identical cycles.

3. **Stitching** — per-slice windows fold back into one serial-
   identical report via :func:`~repro.core.summary.stitch_slices`.

Boundary generation is lazy (a generator of job specs), so in pool mode
the fast-forward overlaps with the execution of earlier slices.  Window
extents come from a **plan**: ``uniform`` (equal windows) or
``balanced`` (geometrically shrinking windows that equalise each
slice's ``seed-prefix + run-window`` critical path — see
:func:`balanced_cuts`).  The plan changes only the wall clock: byte
identity is always against a serial run under the same
``slice_epoch_cycles``.

Caveat — skipped barriers: a serial run whose pipeline is *not*
quiescent at an epoch boundary skips that barrier and keeps going.  In
``forward`` mode the seeding pass sees the same skip and simply yields
no boundary there (windows stay equivalent); in ``reconstruct`` mode
the bare DUT cannot know, so slicing workloads with non-quiescent
epochs raises from the slice-end quiescence check rather than returning
a silently different report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from ..core.summary import RunSummary, SliceRunSummary, stitch_slices
from ..core.stats import RunStats
from .executor import CampaignExecutor, CampaignResult
from .jobs import JobSpec, register_runner


class SliceExecutionError(RuntimeError):
    """A slice job broke (errored/timed out) rather than completing.

    A *failing* run (mismatch, bad exit code) is a completed slice and
    stitches normally; this error means the sliced result would be
    structurally incomplete.
    """


def epoch_for(max_cycles: int, slices: int) -> int:
    """The slice-epoch period that cuts ``max_cycles`` into ``slices``
    equal cycle windows (ceiling division, so the last window is the
    short one)."""
    if slices < 1:
        raise ValueError("slices must be >= 1")
    if max_cycles < 1:
        raise ValueError("max_cycles must be >= 1")
    return -(-max_cycles // slices)


#: Default seeding-speed ratio for balanced planning: the bare-DUT
#: fast-forward (no REF, no checking, silenced monitors) measures
#: ~1.8x the full co-simulation rate across the workload suite.
SEED_RATIO = 1.8

#: Balanced plans cut on a grid this many times finer than the uniform
#: window, so barriers stay cheap while cuts land near their targets.
GRANULARITY = 4


def balanced_cuts(max_cycles: int, slices: int, *,
                  seed_ratio: float = SEED_RATIO,
                  granularity: int = GRANULARITY) -> Tuple[int, List[int]]:
    """Critical-path-balanced cut cycles: ``(epoch, cuts)``.

    Uniform windows leave the later slices idle-waiting: slice *i*'s
    job spec is released once the seeding pass reaches boundary *i*, so
    its finish time is ``seed(prefix_i) + run(window_i)`` — and the
    farm's makespan is the largest of those, dominated by the last
    slice.  Balancing the path across slices (every slice finishing at
    the same instant) gives geometric windows
    ``w_{i+1} = w_i * (1 - 1/seed_ratio)``: later slices get shorter
    windows *because* their seeds arrive later.  The modeled speedup at
    ``seed_ratio = 1.8``, ``slices = 4`` is ~1.75x versus ~1.35x for
    uniform windows (both before per-slice resume overhead).

    Cuts are snapped to a barrier grid ``granularity`` times finer than
    the uniform window, and the barrier period (the returned ``epoch``)
    is that grid — byte identity is always judged against a serial run
    under the *same* ``slice_epoch_cycles``, whatever the plan.
    """
    epoch = epoch_for(max_cycles, slices * max(granularity, 1))
    if slices == 1:
        return max_cycles, [max_cycles]
    shrink = 1.0 - 1.0 / max(seed_ratio, 1.000001)
    weights = [shrink ** i for i in range(slices)]
    scale = max_cycles / sum(weights)
    cuts: List[int] = []
    prefix = 0.0
    for weight in weights[:-1]:
        prefix += weight * scale
        cut = int(round(prefix / epoch)) * epoch
        cut = max(cut, (cuts[-1] if cuts else 0) + epoch)
        cuts.append(cut)
    # Snapping can push trailing cuts past the end; drop any that no
    # longer leave room for the windows after them.
    cuts = [cut for index, cut in enumerate(cuts)
            if cut <= max_cycles - (len(cuts) - index)]
    cuts.append(max_cycles)
    return epoch, cuts


def plan_windows(max_cycles: int, slices: int,
                 plan: str = "uniform") -> Tuple[int, List[int]]:
    """Resolve a slicing plan to ``(epoch, cut_cycles)``.

    ``uniform`` (default) cuts every ``epoch_for(max_cycles, slices)``
    cycles; ``balanced`` applies :func:`balanced_cuts`.  The last cut is
    always ``max_cycles``.
    """
    if plan == "uniform":
        epoch = epoch_for(max_cycles, slices)
        cuts = [epoch * (i + 1) for i in range(slices - 1)
                if epoch * (i + 1) < max_cycles]
        return epoch, cuts + [max_cycles]
    if plan == "balanced":
        return balanced_cuts(max_cycles, slices)
    raise ValueError(f"unknown slice plan: {plan!r}")


# ----------------------------------------------------------------------
# Boundary seeding
# ----------------------------------------------------------------------
def _install_fault(system, fault: str, trigger: int) -> None:
    from ..dut import fault_by_name

    fault_by_name(fault).install(system.cores[0], trigger)


def fault_pending(core) -> bool:
    from ..dut import fault_pending as _pending

    return _pending(core)


def _silent_emit(sink, cls, tag=None, **fields):
    """Monitor emission sink for the bare seeding pass: event *objects*
    are never consumed (bundles are discarded), and every piece of
    monitor bookkeeping the snapshot captures — check slots, dirty
    flags, last-state memos — is updated outside ``_emit``, so dropping
    the construction is state-identical (pinned by the equivalence
    suite, which seeds every reconstruct-mode run through this path)."""


def _reconstruct_boundaries(dut_config, image: bytes, *, seed: int,
                            uart_input: bytes, fault: str, trigger: int,
                            cuts: List[int],
                            max_cycles: int) -> Iterator[Tuple]:
    """Yield ``(cycle, BoundarySeed)`` by forwarding a bare DUT.

    No REF, no checking, and no event construction (see
    :func:`_silent_emit`) — monitor slots still advance exactly as in a
    full co-simulation, and the captured slot numbers are the ones a
    worker's checker must resume from.  Any DUT fault is installed so
    the DUT trajectory matches the serial run's.
    """
    from ..core.framework import BoundarySeed
    from ..dut.core import DutSystem
    from ..dut.snapshotting import take_snapshot
    from ..isa.const import DRAM_BASE

    dut = DutSystem(dut_config, seed=seed, uart_input=uart_input)
    dut.load_image(image, DRAM_BASE)
    if fault:
        _install_fault(dut, fault, trigger)
    else:
        # Faults may hook monitor emission, so only silence it on the
        # (enforced) fault-free path.
        for core in dut.cores:
            core.monitor._emit = _silent_emit
    cycle = 0
    for boundary in cuts:
        if boundary >= max_cycles:
            return
        while cycle < boundary and not dut.finished():
            cycle = dut.cycle(boundary - cycle)[0].cycle
        if dut.finished():
            return
        yield cycle, BoundarySeed(
            snapshot=take_snapshot(dut).transportable(),
            slots=[core.monitor.slot for core in dut.cores]), \
            bool(fault) and fault_pending(dut.cores[0])


def _forward_boundaries(dut_config, config, image: bytes, *, seed: int,
                        uart_input: bytes, fault: str, trigger: int,
                        cuts: List[int],
                        max_cycles: int) -> Iterator[Tuple]:
    """Yield ``(cycle, BoundarySeed)`` by forwarding a full co-simulation.

    Steps the serial run loop itself from cut to cut (``config`` carries
    the plan's ``slice_epoch_cycles``, so barriers fire — and skip on a
    non-quiescent cycle — exactly as in the serial run), shipping cloned
    REFs in each seed.  Boundary production stops at a mismatch, so
    slices beyond a failure never exist — the failing slice reproduces
    it.
    """
    from ..core.framework import BoundarySeed, CoSimulation
    from ..dut.snapshotting import take_snapshot

    cosim = CoSimulation(dut_config, config, image, seed=seed,
                         uart_input=uart_input)
    if fault:
        _install_fault(cosim.dut, fault, trigger)
    for cut in cuts:
        if cut >= max_cycles:
            return
        cosim.advance(cut)
        if cosim.dut.finished() or cosim.mismatch is not None:
            return
        if not cosim._transport_quiescent():
            # The barrier at this cut was skipped (serial skipped it
            # too): no boundary here, the windows merge.
            continue
        refs = []
        for ref in cosim.refs:
            clone = ref.clone()
            clone.hart._decode_cache = {}
            refs.append(clone)
        yield cut, BoundarySeed(
            snapshot=take_snapshot(cosim.dut).transportable(),
            slots=[checker.ref_slot for checker in cosim.checkers],
            refs=refs), \
            bool(fault) and fault_pending(cosim.dut.cores[0])


# ----------------------------------------------------------------------
# Slice job specs
# ----------------------------------------------------------------------
def iter_slice_specs(dut_config, diff_config, image: bytes, *,
                     max_cycles: int, slices: int,
                     seed: int = 2025, uart_input: bytes = b"",
                     mode: str = "reconstruct", plan: str = "uniform",
                     fault: str = "", trigger: int = 0,
                     label: str = "slice") -> Iterator[JobSpec]:
    """Lazily yield one ``slice`` job spec per planned window.

    Slice *i* covers cycles ``(B_i, B_{i+1}]`` where ``B_0 = 0`` and
    the last window ends at ``max_cycles``; each non-initial spec
    carries the pickled boundary seed it resumes from.  ``plan`` picks
    the cut cycles (see :func:`plan_windows`); fewer specs than
    ``slices`` are yielded when the workload finishes early.
    """
    if mode not in ("reconstruct", "forward"):
        raise ValueError(f"unknown slice mode: {mode!r}")
    if fault and mode != "forward":
        # A reconstructed REF is built from the DUT image, so corruption
        # that latently crosses a boundary would be absorbed into the REF
        # and pass silently — a false negative a verification tool must
        # never produce.  Forward seeding ships golden REF clones and is
        # exact for every fault.
        raise ValueError(
            "DUT fault injection requires mode='forward': reconstruct "
            "seeding would absorb boundary-crossing corruption into the "
            "reconstructed REF")
    epoch, cuts = plan_windows(max_cycles, slices, plan)
    config = diff_config.with_(slice_epoch_cycles=epoch)
    common = dict(seed=seed, uart_input=uart_input, fault=fault,
                  trigger=trigger, cuts=cuts, max_cycles=max_cycles)
    if mode == "forward":
        boundaries = _forward_boundaries(dut_config, config, image,
                                         **common)
    else:
        boundaries = _reconstruct_boundaries(dut_config, image, **common)

    def spec(index: int, start: int, end: int, boundary,
             install_fault: bool, is_final: bool) -> JobSpec:
        params: Dict[str, object] = {
            "dut": dut_config, "config": config, "image": image,
            "max_cycles": end, "seed": seed, "uart_input": uart_input,
            "boundary": boundary, "slice_index": index,
            "start_cycle": start, "end_cycle": end, "is_final": is_final,
            "fault": fault, "trigger": trigger,
            "install_fault": install_fault,
        }
        return JobSpec(kind="slice", label=f"{label}[{index}]",
                       params=params)

    # The first window arms any fault from cycle 0, exactly like the
    # serial run; later windows re-arm it only while the seeding pass
    # saw it still pending at their boundary (a fired fault's corruption
    # is already baked into the boundary snapshot).
    prev_cycle = 0
    prev_seed = None
    prev_armed = bool(fault)
    if mode == "reconstruct":
        # No-lag release: reconstruct boundaries land exactly on the
        # planned cuts, so a window's end is known without seeding ahead
        # and slice i's spec is released the moment boundary i exists —
        # slice 0 immediately.  This is what lets a pool start the big
        # first window while the seeding pass is still forwarding.
        for index, end in enumerate(cuts):
            yield spec(index, prev_cycle, end, prev_seed, prev_armed,
                       end >= max_cycles)
            if end >= max_cycles:
                return
            nxt = next(boundaries, None)
            if nxt is None:
                # The workload finished inside the window just released;
                # that slice ends the campaign (its runner marks itself
                # final) and later windows never exist.
                return
            prev_cycle, prev_seed, prev_armed = nxt
        return
    # Forward mode must lag one boundary behind: a skipped (non-
    # quiescent) barrier merges adjacent windows, so a window's true end
    # is only known once the *next* boundary materialises.
    index = 0
    for cycle, boundary_seed, armed in boundaries:
        yield spec(index, prev_cycle, cycle, prev_seed, prev_armed, False)
        index += 1
        prev_cycle, prev_seed, prev_armed = cycle, boundary_seed, armed
    yield spec(index, prev_cycle, max_cycles, prev_seed, prev_armed, True)


@register_runner("slice")
def run_slice_job(params: Dict[str, object]) -> SliceRunSummary:
    """Execute one slice window inside a worker process.

    Rebuilds the co-simulation, resumes it from the boundary seed (the
    first slice starts fresh), re-installs any DUT fault whose trigger
    lies inside this window, and runs to the window's end cycle.  A
    non-final slice that ends clean must end *quiescent* — its closing
    barrier succeeded — otherwise the window set would not compose to
    the serial run and the job fails loudly.
    """
    from ..core.framework import CoSimulation
    from ..core.summary import summarize_slice
    from ..obs import ObsContext

    obs = ObsContext() if params.get("collect_metrics") else None
    cosim = CoSimulation(params["dut"], params["config"], params["image"],
                         seed=params.get("seed", 2025),
                         uart_input=params.get("uart_input", b""),
                         obs=obs)
    # The stitcher overlays exactly one set of end-of-run totals; each
    # window contributes only its runtime instruments.
    cosim.record_final_metrics = False
    boundary = params.get("boundary")
    if boundary is not None:
        cosim.resume_from_boundary(boundary)
    fault = params.get("fault", "")
    # Positional faults latch on the first matching site at or past the
    # trigger instret; the seeding pass tracked whether that already
    # happened before this window's boundary (see ``install_fault`` in
    # :func:`iter_slice_specs`), so a fired fault is never re-armed.
    if fault and params.get("install_fault", True):
        _install_fault(cosim.dut, fault, params.get("trigger", 0))
    result = cosim.run(max_cycles=params["max_cycles"])
    # A workload that genuinely finishes (good/bad trap) inside this
    # window ends the whole run here — the slice is the final one even
    # if the plan expected more windows after it (no-lag release hands
    # out window extents before the seeding pass has covered them).
    is_final = bool(params["is_final"]) or cosim.dut.finished()
    if (not is_final and result.mismatch is None
            and not cosim._transport_quiescent()):
        raise RuntimeError(
            f"slice {params['slice_index']} window "
            f"({params['start_cycle']}, {params['end_cycle']}] did not "
            f"end on a quiescent barrier; this workload cannot be "
            f"sliced at epoch boundaries")
    return summarize_slice(
        result,
        slice_index=params["slice_index"],
        start_cycle=params["start_cycle"],
        end_cycle=params["end_cycle"],
        is_final=is_final,
        pack_stats=cosim.packer.stats,
        fusion_stats=cosim.fuser.stats if cosim.fuser is not None else None)


# ----------------------------------------------------------------------
# The one-call front end
# ----------------------------------------------------------------------
@dataclass
class SlicedRunResult:
    """A sliced run, stitched: the serial-identical summary plus the
    per-slice evidence it was stitched from."""

    summary: RunSummary
    stats: RunStats
    slices: List[SliceRunSummary]
    campaign: CampaignResult
    epoch_cycles: int

    @property
    def passed(self) -> bool:
        return self.summary.passed


def sliced_run(dut_config, diff_config, image: bytes, *,
               max_cycles: int, slices: int,
               workers: Optional[int] = 1,
               mode: str = "reconstruct", plan: str = "uniform",
               seed: int = 2025, uart_input: bytes = b"",
               fault: str = "", trigger: int = 0,
               collect_metrics: bool = False, obs=None,
               job_timeout: Optional[float] = None,
               retries: int = 0, supervision=None, spec_wrapper=None,
               label: str = "slice") -> SlicedRunResult:
    """Run one workload as ``slices`` windows on ``workers`` processes.

    The sliced report is byte-identical to a serial run of the same
    workload under the same ``slice_epoch_cycles`` (see
    ``tests/test_slicing_equivalence.py``); worker count never changes
    the result, only the wall clock.  Slices always all execute
    (``short_circuit=False``) — a failing window still needs every
    earlier window for serial-identical totals, and later windows are
    discarded by the stitcher.

    ``retries``/``supervision`` tune the executor's fault tolerance
    (slice jobs are idempotent, so re-running one after a worker crash
    is always safe); ``spec_wrapper`` is a seam for the chaos harness —
    it receives the lazy spec iterator and must yield specs one-for-one
    without disturbing their order.
    """
    executor = CampaignExecutor(workers=workers, job_timeout=job_timeout,
                                retries=retries, short_circuit=False,
                                collect_metrics=collect_metrics, obs=obs,
                                supervision=supervision)
    specs = iter_slice_specs(
        dut_config, diff_config, image, max_cycles=max_cycles,
        slices=slices, seed=seed, uart_input=uart_input, mode=mode,
        plan=plan, fault=fault, trigger=trigger, label=label)
    if spec_wrapper is not None:
        specs = spec_wrapper(specs)
    campaign = executor.run(specs)
    broken = [job for job in campaign.jobs if not job.ok]
    if broken:
        first = broken[0]
        detail = (first.error or "").strip().splitlines()
        raise SliceExecutionError(
            f"{len(broken)} slice job(s) broke; first: {first.label}: "
            f"{detail[-1] if detail else 'unknown error'}")
    pieces = [job.summary for job in campaign.jobs]
    summary, stats = stitch_slices(pieces)
    if obs is not None and obs.enabled:
        from ..obs import record_slicing

        record_slicing(obs.registry, len(pieces), stats.counters.cycles)
    return SlicedRunResult(summary=summary, stats=stats, slices=pieces,
                           campaign=campaign,
                           epoch_cycles=plan_windows(max_cycles, slices,
                                                     plan)[0])
