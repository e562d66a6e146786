"""The eight benchmark workloads and the one operation each of them times.

Names and the one-line reason for each workload live in ``BENCHMARK.json``
(the single source the harness prints from); this module holds what the
names *run*.  Every ``repro`` import is deferred into the functions so the
set-up probe can start its clock before ``import repro``.

One *operation* is what a user would call once: construct the
co-simulation (or executor), run it, render its report.  The three phase
times feed ``cycles_per_s`` (run call only), ``jobs_per_s`` (construct +
run) and ``detect_wall_s`` (construct + run + render).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple


@dataclass(frozen=True)
class Spec:
    """What one workload name runs."""

    name: str
    #: ``run`` (one co-simulation), ``bug`` (one with an armed fault),
    #: ``campaign`` (fuzz jobs on a pool) or ``sliced`` (one run cut into
    #: windows on a pool).
    kind: str
    dut: str  # attribute of repro.dut
    config: str  # attribute of repro.core
    program: str = ""  # repro.workloads registry name
    #: Program-builder arguments, full size and ``--smoke`` size (seconds,
    #: not minutes; never timed).
    args: Dict[str, int] = field(default_factory=dict)
    smoke_args: Dict[str, int] = field(default_factory=dict)
    #: What the harness itself needs (fault trigger, job count, slices).
    params: Dict[str, int] = field(default_factory=dict)
    smoke_params: Dict[str, int] = field(default_factory=dict)
    #: ``DiffConfig`` fields changed from the shipped config — applied
    #: only while the field exists, so a PR that deletes a knob needs no
    #: benchmark edit (the effective config in the output shows what ran).
    overrides: Dict[str, object] = field(default_factory=dict)
    workers: int = 1
    #: Paper Table 5 XiangShan/Palladium speed for this config, if any.
    paper_khz: Optional[float] = None


#: ``store_queue_mismatch`` fires on the first store at or after retired
#: instruction ``trigger``; ``slot`` is the check slot Replay must name.
#: Both are properties of the program alone (the DUT seed only moves
#: stalls), found by running it once: 54000 is 80 % of the fault-free
#: ``sort(128)``'s 67480 instructions.
SORT_BUG = {"trigger": 54000, "slot": 54011}
SORT_BUG_SMOKE = {"trigger": 800, "slot": 816}

SPECS: Tuple[Spec, ...] = (
    Spec("alu_xs_default", "run", "XIANGSHAN_DEFAULT", "CONFIG_BNSD",
         "alu_hotloop", {"iterations": 4000}, {"iterations": 100}),
    Spec("alu_xs_fasttiers", "run", "XIANGSHAN_DEFAULT", "CONFIG_BNSD",
         "alu_hotloop", {"iterations": 4000}, {"iterations": 100},
         overrides={"jit": True, "replay": False}),
    Spec("churn_nutshell_default", "run", "NUTSHELL", "CONFIG_BNSD",
         "memory_churn", {"array_kb": 128, "passes": 3},
         {"array_kb": 4, "passes": 1}),
    Spec("boot_xs_default", "run", "XIANGSHAN_DEFAULT", "CONFIG_BNSD",
         "linux_boot_like", {"scale": 3}, {"scale": 1}, paper_khz=478.0),
    Spec("boot_xs_baseline_z", "run", "XIANGSHAN_DEFAULT", "CONFIG_Z",
         "linux_boot_like", {"scale": 3}, {"scale": 1}, paper_khz=6.0),
    Spec("bug_sort_xs", "bug", "XIANGSHAN_DEFAULT", "CONFIG_BNSD",
         "sort", {"elements": 128}, {"elements": 16},
         params=SORT_BUG, smoke_params=SORT_BUG_SMOKE),
    Spec("fuzz_campaign_w2", "campaign", "XIANGSHAN_DEFAULT", "CONFIG_BNSD",
         params={"jobs": 400, "length": 120},
         smoke_params={"jobs": 6, "length": 40}, workers=2),
    Spec("churn_nutshell_sliced_w2", "sliced", "NUTSHELL", "CONFIG_BNSD",
         "memory_churn", {"array_kb": 128, "passes": 3},
         {"array_kb": 4, "passes": 1},
         params={"slices": 4}, smoke_params={"slices": 2}, workers=2),
)

FAULT = "store_queue_mismatch"
FAULT_COMPONENT = "store_queue"
SLICE_PLAN = "balanced"


def spec_by_name(name: str) -> Spec:
    for spec in SPECS:
        if spec.name == name:
            return spec
    raise KeyError(f"unknown workload {name!r}; "
                   f"valid: {', '.join(s.name for s in SPECS)}")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on this platform
        return os.cpu_count() or 1


@dataclass
class Prepared:
    """A workload bound to a seed: configs resolved, program built."""

    spec: Spec
    seed: int
    params: Dict[str, int]
    dut: object
    config: object
    #: ``overrides`` entries dropped because the field no longer exists.
    dropped_overrides: Tuple[str, ...]
    workers: int
    image: bytes = b""
    uart_input: bytes = b""
    max_cycles: int = 0
    build_s: float = 0.0


def prepare(spec: Spec, seed: int, smoke: bool = False) -> Prepared:
    """Resolve configs and build the program (no simulation)."""
    from repro import core, dut
    from repro.workloads import build

    config = getattr(core, spec.config)
    known = {f.name for f in fields(config)}
    applied = {k: v for k, v in spec.overrides.items() if k in known}
    if applied:
        config = replace(config, **applied)
    prep = Prepared(
        spec=spec, seed=seed,
        params=spec.smoke_params if smoke else spec.params,
        dut=getattr(dut, spec.dut), config=config,
        dropped_overrides=tuple(sorted(set(spec.overrides) - known)),
        # Workers never exceed the cores this process may run on.
        workers=min(spec.workers, nproc()))
    if spec.program:
        start = perf_counter()
        workload = build(spec.program,
                         **(spec.smoke_args if smoke else spec.args))
        prep.build_s = perf_counter() - start
        prep.image = workload.image
        prep.uart_input = workload.uart_input
        prep.max_cycles = workload.max_cycles
    return prep


def construct(prep: Prepared):
    """Build the object the operation runs — the end of set-up.

    A ``CoSimulation`` for single runs (fault armed for ``bug``); the job
    specs plus executor for pool workloads (what ``fuzz_campaign`` and
    ``sliced_run`` build before their first job).
    """
    from repro.core import CoSimulation

    spec = prep.spec
    if spec.kind in ("run", "bug"):
        cosim = CoSimulation(prep.dut, prep.config, prep.image,
                             seed=prep.seed, uart_input=prep.uart_input)
        if spec.kind == "bug":
            from repro.dut import fault_by_name

            fault_by_name(FAULT).install(cosim.dut.cores[0],
                                         prep.params["trigger"])
        return cosim
    from repro.parallel import CampaignExecutor

    if spec.kind == "campaign":
        from repro.workloads.fuzz import fuzz_specs

        fuzz_specs(_fuzz_seeds(prep), length=prep.params["length"],
                   dut_config=prep.dut, diff_config=prep.config)
    return CampaignExecutor(workers=prep.workers)


def _fuzz_seeds(prep: Prepared) -> range:
    return range(prep.seed, prep.seed + prep.params["jobs"])


def run_length(prep: Prepared) -> int:
    """The cycle the program finishes at under this seed (bare-DUT probe).

    ``sliced_run`` cuts ``max_cycles`` into windows.  A program's budget
    (1.556 M cycles for ``memory_churn``) is far beyond where it ends
    (184 k), so cutting the budget puts the whole run in the first window
    and nothing is sliced; the windows must cover the run itself.
    """
    from repro.dut import DutSystem

    probe = DutSystem(prep.dut, seed=prep.seed, uart_input=prep.uart_input)
    probe.load_image(prep.image)
    cycles = 0
    while not probe.finished() and cycles < prep.max_cycles:
        probe.cycle()
        cycles += 1
    return cycles


# ----------------------------------------------------------------------
# The timed operation
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """One operation: phase times, work done, verdict and digest."""

    construct_s: float
    run_s: float
    render_s: float
    cycles: int
    jobs: int
    failed: int
    digest: str
    #: The ``CoSimulation`` (single runs) — read for tier/JIT counters.
    handle: object
    #: ``RunResult`` | ``CampaignResult`` | ``SlicedRunResult``.
    result: object
    #: Seconds ``sliced_run`` spent producing job specs (fast-forwarding
    #: the bare DUT to each boundary); 0 elsewhere.
    boundary_s: float = 0.0

    @property
    def wall_s(self) -> float:
        return self.construct_s + self.run_s + self.render_s

    def metrics(self) -> Dict[str, float]:
        """The per-operation end-to-end samples."""
        return {
            "cycles_per_s": self.cycles / self.run_s,
            "jobs_per_s": self.jobs / (self.construct_s + self.run_s),
            "detect_wall_s": self.wall_s,
        }


def sim_digest(summary, stats, extra: str = "") -> str:
    """sha256 over everything a simulated-statistics change would move:
    exit code, cycles, instructions, every ``CommCounters`` field, the
    fusion/packing stats, the tiers' fallback reasons and the rendered
    debug report."""
    from repro.core.summary import summary_to_dict

    doc = summary_to_dict(summary)
    doc.pop("metrics")
    doc["stats"] = {
        name: getattr(stats, name)
        for name in ("fusion_breaks", "nde_sent_ahead", "bubble_bytes",
                     "meta_bytes", "diff_bytes_saved", "replay_buffer_peak")}
    doc["capture_fallbacks"] = list(stats.capture_fallbacks)
    doc["extra"] = extra
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def operation(prep: Prepared) -> Outcome:
    """Run the workload's one operation, timing its three phases."""
    return _OPERATIONS[prep.spec.kind](prep)


def _run_operation(prep: Prepared) -> Outcome:
    from repro.toolkit import render_report

    t0 = perf_counter()
    cosim = construct(prep)
    t1 = perf_counter()
    result = cosim.run(max_cycles=prep.max_cycles)
    t2 = perf_counter()
    text = render_report(result.stats)
    report = result.debug_report
    if report is not None:
        text += "\n" + report.render()
    t3 = perf_counter()
    if prep.spec.kind == "bug":
        # A bug run succeeds when Replay names the seeded bug.
        localized = report.localized if report is not None else None
        ok = (report is not None and report.component == FAULT_COMPONENT
              and localized is not None
              and localized.slot == prep.params["slot"])
    else:
        ok = result.passed
    return Outcome(t1 - t0, t2 - t1, t3 - t2, result.cycles, 1, int(not ok),
                   sim_digest(result.summarize(), result.stats, text),
                   cosim, result)


def _campaign_operation(prep: Prepared) -> Outcome:
    from repro.workloads.fuzz import fuzz_campaign

    t0 = perf_counter()
    result = fuzz_campaign(_fuzz_seeds(prep), length=prep.params["length"],
                           dut_config=prep.dut, diff_config=prep.config,
                           workers=prep.workers)
    t1 = perf_counter()
    text = result.render()
    t2 = perf_counter()
    counters = result.aggregate_counters()
    digest = hashlib.sha256(
        (text + json.dumps(asdict(counters), sort_keys=True)).encode()
    ).hexdigest()
    failed = sum(1 for job in result.jobs if not job.passed)
    return Outcome(0.0, t1 - t0, t2 - t1, counters.cycles, len(result.jobs),
                   failed, digest, None, result)


def _sliced_operation(prep: Prepared) -> Outcome:
    from repro.parallel import sliced_run
    from repro.toolkit import render_report

    boundary = [0.0]

    def timed_specs(specs):
        # ``spec_wrapper`` is sliced_run's seam around its lazy spec
        # iterator; each next() fast-forwards to one boundary.
        iterator = iter(specs)
        while True:
            start = perf_counter()
            spec = next(iterator, None)
            boundary[0] += perf_counter() - start
            if spec is None:
                return
            yield spec

    t0 = perf_counter()
    result = sliced_run(prep.dut, prep.config, prep.image,
                        max_cycles=prep.max_cycles,
                        slices=prep.params["slices"], workers=prep.workers,
                        plan=SLICE_PLAN, seed=prep.seed,
                        uart_input=prep.uart_input,
                        spec_wrapper=timed_specs)
    t1 = perf_counter()
    text = render_report(result.stats)
    t2 = perf_counter()
    return Outcome(0.0, t1 - t0, t2 - t1, result.summary.cycles, 1,
                   int(not result.passed),
                   sim_digest(result.summary, result.stats, text),
                   None, result, boundary_s=boundary[0])


_OPERATIONS: Dict[str, Callable[[Prepared], Outcome]] = {
    "run": _run_operation,
    "bug": _run_operation,
    "campaign": _campaign_operation,
    "sliced": _sliced_operation,
}
