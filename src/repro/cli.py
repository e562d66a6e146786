"""Command-line interface: ``python -m repro <command>``.

Mirrors the artifact's make-target workflow:

* ``run``      — co-simulate a workload under a DUT/config/platform
                 (the artifact's ``make pldm-run`` / ``make fpga-run``).
* ``ladder``   — the Table 5 optimisation breakdown for one DUT.
* ``inject``   — seed a catalogue bug and show the Replay debug report.
* ``fuzz``     — differential fuzzing with random programs.
* ``profile``  — instrumented run: per-stage span breakdown plus the
                 registry counter report (``repro.obs``).
* ``workloads``/``faults``/``events`` — list the available inventory.

``run``, ``profile``, ``fuzz`` and ``sweep`` accept ``--trace-out FILE``
(Chrome trace-event JSON, Perfetto-loadable) and ``--metrics-out FILE``
(JSONL metric snapshot) to export the observability telemetry.

Campaign commands (``fuzz``, ``ladder``, ``sweep``) accept ``--workers
N`` to fan their independent runs out over a process pool (default: all
cores); aggregation is deterministic, so the summary text is identical
to ``--workers 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Tuple

from .comm import FPGA_VU19P, PALLADIUM, VERILATOR_16T
from .core import (
    CONFIG_B,
    CONFIG_BN,
    CONFIG_BNSD,
    CONFIG_COUPLED,
    CONFIG_FIXED,
    CONFIG_Z,
    CoSimulation,
    run_cosim,
)
from .dut import (
    FAULT_CATALOGUE,
    NUTSHELL,
    XIANGSHAN_DEFAULT,
    XIANGSHAN_DUAL,
    XIANGSHAN_MINIMAL,
    fault_by_name,
)
from .events import all_event_classes
from .obs import MetricsSnapshot, ObsContext, render_profile, \
    write_chrome_trace, write_metrics_jsonl
from .toolkit import render_event_profile, render_report, \
    render_snapshot_report
from .workloads import available, build

_DUTS = {
    "nutshell": NUTSHELL,
    "xiangshan-minimal": XIANGSHAN_MINIMAL,
    "xiangshan": XIANGSHAN_DEFAULT,
    "xiangshan-dual": XIANGSHAN_DUAL,
}
_CONFIGS = {
    "Z": CONFIG_Z,
    "B": CONFIG_B,
    "BIN": CONFIG_BN,
    "EBINSD": CONFIG_BNSD,
    "FIXED": CONFIG_FIXED,
    "COUPLED": CONFIG_COUPLED,
}
_PLATFORMS = {
    "palladium": PALLADIUM,
    "fpga": FPGA_VU19P,
    "verilator": VERILATOR_16T,
}


def _add_workers_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=int, default=os.cpu_count() or 1,
        help="parallel campaign workers (1 = serial, in-process; "
             "default: all cores)")


def _add_supervision_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--poison-threshold", type=int, default=None, metavar="N",
        help="quarantine a job after it breaks the worker pool N times "
             "(default: 3)")


def _supervision_from(args):
    """The SupervisionPolicy requested on ``args``, or None for the
    executor default."""
    if getattr(args, "poison_threshold", None) is None:
        return None
    from .parallel import SupervisionPolicy
    return SupervisionPolicy(poison_threshold=args.poison_threshold)


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="write a Chrome trace-event JSON (open in Perfetto / "
             "chrome://tracing)")
    parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the metric-registry snapshot as JSONL "
             "(one metric per line)")


def _export_obs(obs: Optional[ObsContext], snapshot, args) -> None:
    """Write the --trace-out / --metrics-out files requested on ``args``."""
    if args.trace_out and obs is not None:
        with open(args.trace_out, "w", encoding="utf-8") as sink:
            write_chrome_trace(obs.tracer, sink)
        print(f"trace written to {args.trace_out}")
    if args.metrics_out and snapshot is not None:
        with open(args.metrics_out, "w", encoding="utf-8") as sink:
            write_metrics_jsonl(snapshot, sink)
        print(f"metrics written to {args.metrics_out}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DiffTest-H reproduction: semantic-aware co-simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="co-simulate one workload")
    run.add_argument("--workload", default="microbench",
                     help=f"one of: {', '.join(available())}")
    run.add_argument("--dut", default="xiangshan", choices=sorted(_DUTS))
    run.add_argument("--config", default="EBINSD", choices=sorted(_CONFIGS))
    run.add_argument("--platform", default="palladium",
                     choices=sorted(_PLATFORMS))
    run.add_argument("--seed", type=int, default=2025)
    run.add_argument("--max-cycles", type=int, default=None)
    run.add_argument("--slices", type=int, default=1,
                     help="split the run into N checkpoint slices "
                          "(byte-identical report, parallel wall clock)")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes for --slices (default: all "
                          "cores)")
    run.add_argument("--slice-mode", default="reconstruct",
                     choices=("reconstruct", "forward"),
                     help="boundary seeding: fast DUT-only reconstruct "
                          "or faithful forward co-simulation")
    run.add_argument("--slice-plan", default="uniform",
                     choices=("uniform", "balanced"),
                     help="window plan: equal-size windows, or "
                          "critical-path-balanced windows that shrink "
                          "later slices to offset their seeding delay")
    run.add_argument("--profile", action="store_true",
                     help="print the per-event-type profile (Figure 4)")
    run.add_argument("--jit", action=argparse.BooleanOptionalAction,
                     default=True,
                     help="compiled-simulation tier (superblock trace "
                          "cache; byte-identical events, counters and "
                          "report); --no-jit pins the interpreter")
    _add_obs_flags(run)

    profile = sub.add_parser(
        "profile", help="instrumented run: per-stage latency breakdown")
    profile.add_argument("--workload", default="microbench",
                         help=f"one of: {', '.join(available())}")
    profile.add_argument("--dut", default="xiangshan",
                         choices=sorted(_DUTS))
    profile.add_argument("--config", default="EBINSD",
                         choices=sorted(_CONFIGS))
    profile.add_argument("--seed", type=int, default=2025)
    profile.add_argument("--max-cycles", type=int, default=None)
    _add_obs_flags(profile)

    ladder = sub.add_parser("ladder", help="Table 5 optimisation breakdown")
    ladder.add_argument("--dut", default="xiangshan", choices=sorted(_DUTS))
    ladder.add_argument("--workload", default="linux_boot_like")
    _add_workers_flag(ladder)
    _add_supervision_flags(ladder)

    inject = sub.add_parser("inject", help="seed a bug and debug it")
    inject.add_argument("--fault", required=True,
                        help="a fault name from `repro faults`")
    inject.add_argument("--workload", default="microbench")
    inject.add_argument("--trigger", type=int, default=500)
    inject.add_argument("--dut", default="xiangshan", choices=sorted(_DUTS))
    inject.add_argument("--config", default="EBINSD",
                        choices=sorted(_CONFIGS))

    fuzz = sub.add_parser("fuzz", help="differential fuzzing")
    fuzz.add_argument("--seeds", type=int, default=10)
    fuzz.add_argument("--length", type=int, default=100)
    fuzz.add_argument("--start", type=int, default=0)
    fuzz.add_argument("--fail-fast", action="store_true",
                      help="stop the campaign at the first failing seed")
    _add_workers_flag(fuzz)
    _add_supervision_flags(fuzz)
    _add_obs_flags(fuzz)

    sweep = sub.add_parser(
        "sweep", help="explore Equation 1 around a measured run")
    sweep.add_argument("--workload", default="microbench")
    sweep.add_argument("--dut", default="xiangshan", choices=sorted(_DUTS))
    sweep.add_argument("--config", default="B",
                       help="config name, or a comma-separated list to "
                            "measure several operating points")
    sweep.add_argument("--platform", default="palladium",
                       choices=sorted(_PLATFORMS))
    _add_workers_flag(sweep)
    _add_supervision_flags(sweep)
    sweep.add_argument("--parameter", default="bw_bytes_per_us",
                       help="platform constant to sweep")
    sweep.add_argument("--values", default="",
                       help="comma-separated values (default: x0.1..x10 of "
                            "the platform's constant)")
    _add_obs_flags(sweep)

    for name, text in (("workloads", "list available workloads"),
                       ("faults", "list the Table 6 fault catalogue"),
                       ("events",
                        "list the 32 verification event types")):
        listing = sub.add_parser(name, help=text)
        listing.add_argument("--json", action="store_true",
                             help="emit the listing as a JSON array")
    return parser


# ----------------------------------------------------------------------
# Campaign reports.  Values derived from the runs only, never wall-clock
# time or worker counts, so the text is identical at any --workers.
# ----------------------------------------------------------------------
def fuzz_job_lines(job, start: int) -> List[str]:
    """The report lines of one fuzz job (seed = start + index)."""
    seed = start + job.index
    if not job.ok:
        lines = [f"seed {seed:6d}: {job.verdict()}"]
        if job.error:
            lines.append("  " + job.error.strip().splitlines()[-1])
        return lines
    verdict = "ok" if job.summary.passed else "FAIL"
    lines = [f"seed {seed:6d}: {verdict}  "
             f"({job.summary.instructions} instr)"]
    if not job.summary.passed and job.summary.mismatch:
        lines.append("  " + job.summary.mismatch.describe())
    return lines


def fuzz_footer_lines(campaign, requested: int) -> List[str]:
    """The fuzz campaign footer (blank separator + pass tally).

    The quarantine line appears only when the supervisor actually
    quarantined poison jobs, so fault-free reports are byte-identical
    to the pre-supervision format.
    """
    failures = len(campaign.failures)
    total = len(campaign.jobs)
    lines = ["", f"{total - failures}/{total} passed"]
    quarantined = [job for job in campaign.jobs
                   if getattr(job, "quarantined", False)]
    if quarantined:
        lines.append(f"({len(quarantined)} poison job(s) quarantined: "
                     + ", ".join(job.label for job in quarantined) + ")")
    if campaign.stats.short_circuited:
        lines.append(f"(fail-fast: stopped after {total} of "
                     f"{requested} seeds)")
    return lines


def render_fuzz(campaign, start: int, requested: int) -> str:
    """The full fuzz campaign report (per-seed lines + footer)."""
    lines: List[str] = []
    for job in campaign.jobs:
        lines.extend(fuzz_job_lines(job, start))
    lines.extend(fuzz_footer_lines(campaign, requested))
    return "\n".join(lines)


def render_ladder(campaign, dut_config, configs) -> Tuple[str, bool]:
    """The Table 5 ladder report; returns ``(text, all_rungs_passed)``.

    Mirrors the historical ``repro ladder`` output exactly: header, one
    row per rung, and on the first failing rung a FAILED line (plus the
    error's last traceback line for broken jobs) with the table cut
    short — the serial CLI behaviour.
    """
    lines = [f"{'config':8s} {'invokes/cyc':>12s} {'bytes/cyc':>10s} "
             f"{'PLDM KHz':>9s} {'FPGA KHz':>9s}"]
    baseline = None
    for config, job in zip(configs, campaign.jobs):
        name = config.name
        if not job.passed:
            detail = (job.summary.mismatch.describe()
                      if job.ok and job.summary.mismatch else job.verdict())
            lines.append(f"{name}: FAILED ({detail})")
            if not job.ok and job.error:
                lines.append("  " + job.error.strip().splitlines()[-1])
            return "\n".join(lines), False
        summary = job.summary
        pldm = summary.breakdown(PALLADIUM, dut_config.gates_millions,
                                 config.nonblocking)
        fpga = summary.breakdown(FPGA_VU19P, dut_config.gates_millions,
                                 config.nonblocking)
        if baseline is None:
            baseline = pldm.speed_khz
        lines.append(
            f"{name:8s} {summary.invokes_per_cycle:12.3f} "
            f"{summary.bytes_per_cycle:10.1f} {pldm.speed_khz:9.1f} "
            f"{fpga.speed_khz:9.1f}  ({pldm.speed_khz/baseline:.1f}x)")
    return "\n".join(lines), True


# ----------------------------------------------------------------------
def _cmd_run(args) -> int:
    if getattr(args, "slices", 1) > 1:
        return _cmd_run_sliced(args)
    workload = build(args.workload)
    dut = _DUTS[args.dut]
    config = _CONFIGS[args.config].with_(jit=args.jit)
    platform = _PLATFORMS[args.platform]
    obs = ObsContext() if (args.trace_out or args.metrics_out) else None
    result = run_cosim(dut, config, workload.image,
                       max_cycles=args.max_cycles or workload.max_cycles,
                       seed=args.seed, uart_input=workload.uart_input,
                       obs=obs)
    print(f"workload : {workload.name} ({workload.description})")
    print(f"dut      : {dut.name}   config: {config.name}")
    status = "HIT GOOD TRAP" if result.passed else (
        "MISMATCH" if result.mismatch else f"exit={result.exit_code}")
    print(f"result   : {status} after {result.cycles} cycles / "
          f"{result.instructions} instructions "
          f"({result.stats.idle_cycles_skipped} idle cycles skipped)")
    if result.mismatch is not None:
        print(result.mismatch.describe())
        if result.debug_report is not None:
            print(result.debug_report.render())
    breakdown = result.breakdown(platform, dut.gates_millions,
                                 config.nonblocking)
    print(f"\nSimulation speed: {breakdown.speed_khz:.2f} KHz "
          f"on {platform.name} "
          f"(communication {breakdown.communication_fraction:.1%})")
    print()
    print(render_report(result.stats, snapshot=result.metrics))
    if args.profile:
        print()
        print(render_event_profile(result.stats))
    if result.uart_output:
        print(f"\nUART output:\n{result.uart_output}")
    _export_obs(obs, result.metrics, args)
    return 0 if result.passed else 1


def _cmd_run_sliced(args) -> int:
    """``run --slices N``: checkpoint-sliced execution, stitched report.

    Everything below the ``sliced`` header line is byte-identical to a
    serial ``run`` of the same workload under the same slice epoch.
    """
    from .parallel import sliced_run

    workload = build(args.workload)
    dut = _DUTS[args.dut]
    config = _CONFIGS[args.config].with_(jit=args.jit)
    platform = _PLATFORMS[args.platform]
    want_obs = bool(args.trace_out or args.metrics_out)
    obs = ObsContext() if want_obs else None
    sr = sliced_run(dut, config, workload.image,
                    max_cycles=args.max_cycles or workload.max_cycles,
                    slices=args.slices, workers=args.workers,
                    mode=args.slice_mode, plan=args.slice_plan,
                    seed=args.seed,
                    uart_input=workload.uart_input,
                    collect_metrics=want_obs, obs=obs)
    summary = sr.summary
    print(f"workload : {workload.name} ({workload.description})")
    print(f"dut      : {dut.name}   config: {config.name}")
    print(f"sliced   : {len(sr.slices)} slice(s), epoch "
          f"{sr.epoch_cycles} cycles, mode {args.slice_mode}, "
          f"plan {args.slice_plan}, "
          f"{sr.campaign.stats.workers} worker(s)")
    status = "HIT GOOD TRAP" if summary.passed else (
        "MISMATCH" if summary.mismatch else f"exit={summary.exit_code}")
    print(f"result   : {status} after {summary.cycles} cycles / "
          f"{summary.instructions} instructions "
          f"({sr.stats.idle_cycles_skipped} idle cycles skipped)")
    if summary.mismatch is not None:
        print(summary.mismatch.describe())
        if summary.debug_report_text:
            print(summary.debug_report_text)
    breakdown = sr.stats.breakdown(platform, dut.gates_millions,
                                   config.nonblocking)
    print(f"\nSimulation speed: {breakdown.speed_khz:.2f} KHz "
          f"on {platform.name} "
          f"(communication {breakdown.communication_fraction:.1%})")
    print()
    print(render_report(sr.stats, snapshot=summary.metrics))
    if args.profile:
        print()
        print(render_event_profile(sr.stats))
    if summary.uart_output:
        print(f"\nUART output:\n{summary.uart_output}")
    _export_obs(obs, summary.metrics, args)
    return 0 if summary.passed else 1


def _cmd_profile(args) -> int:
    workload = build(args.workload)
    dut = _DUTS[args.dut]
    config = _CONFIGS[args.config]
    obs = ObsContext()
    result = run_cosim(dut, config, workload.image,
                       max_cycles=args.max_cycles or workload.max_cycles,
                       seed=args.seed, uart_input=workload.uart_input,
                       obs=obs)
    status = "HIT GOOD TRAP" if result.passed else (
        "MISMATCH" if result.mismatch else f"exit={result.exit_code}")
    print(f"profiled {workload.name} on {dut.name} ({config.name}): "
          f"{status} after {result.cycles} cycles / "
          f"{result.instructions} instructions")
    print()
    print(render_profile(obs.tracer))
    print()
    print(render_snapshot_report(result.metrics))
    _export_obs(obs, result.metrics, args)
    return 0 if result.passed else 1


def _cmd_ladder(args) -> int:
    from .parallel import ladder_campaign

    dut = _DUTS[args.dut]
    names = ("Z", "B", "BIN", "EBINSD")
    configs = [_CONFIGS[name] for name in names]
    campaign = ladder_campaign(args.workload, dut, configs,
                               workers=args.workers,
                               supervision=_supervision_from(args))
    text, ok = render_ladder(campaign, dut, configs)
    print(text)
    return 0 if ok else 1


def _cmd_inject(args) -> int:
    workload = build(args.workload)
    spec = fault_by_name(args.fault)
    cosim = CoSimulation(_DUTS[args.dut], _CONFIGS[args.config],
                         workload.image)
    spec.install(cosim.dut.cores[0], args.trigger)
    print(f"injected {spec.name} ({spec.description}, "
          f"XiangShan PR {spec.pull_request}) at instruction {args.trigger}")
    result = cosim.run(max_cycles=workload.max_cycles)
    if result.mismatch is None:
        print("bug escaped detection (corruption was architecturally dead)")
        return 1
    print(f"detected at cycle {result.mismatch.cycle}")
    if result.debug_report is not None:
        print(result.debug_report.render())
    return 0


def _cmd_fuzz(args) -> int:
    from .workloads import fuzz_campaign

    seeds = range(args.start, args.start + args.seeds)

    def report(job) -> None:
        for line in fuzz_job_lines(job, args.start):
            print(line)

    obs = ObsContext() if args.trace_out else None
    campaign = fuzz_campaign(seeds, length=args.length,
                             dut_config=XIANGSHAN_DEFAULT,
                             diff_config=CONFIG_BNSD, workers=args.workers,
                             fail_fast=args.fail_fast, on_result=report,
                             collect_metrics=bool(args.metrics_out),
                             obs=obs,
                             supervision=_supervision_from(args))
    for line in fuzz_footer_lines(campaign, args.seeds):
        print(line)
    _export_obs(obs, campaign.aggregate_metrics(), args)
    return 1 if campaign.failures else 0


def _cmd_sweep(args) -> int:
    from .analysis import collect_measured_points, nonblocking_gain, \
        required_reduction, speed_vs_parameter

    dut = _DUTS[args.dut]
    platform = _PLATFORMS[args.platform]
    config_names = [name.strip() for name in args.config.split(",")]
    unknown = [name for name in config_names if name not in _CONFIGS]
    if unknown:
        print(f"unknown config(s): {', '.join(unknown)} "
              f"(choose from {', '.join(_CONFIGS)})")
        return 1
    configs = [_CONFIGS[name] for name in config_names]
    cells = [(args.workload, dut, config) for config in configs]
    obs = ObsContext() if args.trace_out else None
    try:
        points = collect_measured_points(
            cells, workers=args.workers,
            collect_metrics=bool(args.metrics_out), obs=obs,
            supervision=_supervision_from(args))
    except RuntimeError as exc:
        print(f"run failed: {exc}")
        return 1
    if args.values:
        values = [float(v) for v in args.values.split(",")]
    else:
        base = getattr(platform, args.parameter)
        values = [base * scale for scale in (0.1, 0.3, 1.0, 3.0, 10.0)]
    for config, point in zip(configs, points):
        counters = point.counters
        print(f"sweep of {args.parameter} on {platform.name} "
              f"({args.workload}, {config.name}):")
        for value, khz in speed_vs_parameter(platform, dut.gates_millions,
                                             counters, args.parameter,
                                             values,
                                             nonblocking=config.nonblocking):
            print(f"  {args.parameter} = {value:12.4f} -> {khz:10.1f} KHz")
        info = nonblocking_gain(platform, dut.gates_millions, counters)
        print(f"\nnon-blocking gain: {info['gain']:.2f}x "
              f"(critical stage: {info['critical_stage']})")
        needed = required_reduction(platform, dut.gates_millions, counters,
                                    target_fraction=0.9,
                                    nonblocking=config.nonblocking)
        print("reduction needed to reach 90% of DUT-only speed "
              "(inf = this knob alone cannot):")
        for knob, factor in needed.items():
            print(f"  {knob:9s}: {factor:.2f}x")
        if len(points) > 1 and point is not points[-1]:
            print()
    _export_obs(obs, MetricsSnapshot.merge_all(
        point.summary.metrics for point in points), args)
    return 0


def _cmd_workloads(args) -> int:
    rows = [{"name": name, "description": build(name).description}
            for name in available()]
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    for row in rows:
        print(f"{row['name']:18s} {row['description']}")
    return 0


def _cmd_faults(args) -> int:
    rows = [{"pull_request": spec.pull_request, "name": spec.name,
             "component": spec.component,
             "description": spec.description}
            for spec in FAULT_CATALOGUE]
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    for row in rows:
        print(f"{row['pull_request']:6s} {row['name']:28s} "
              f"[{row['component']}] {row['description']}")
    return 0


def _cmd_events(args) -> int:
    rows = []
    for cls in all_event_classes():
        descriptor = cls.DESCRIPTOR
        rows.append({"id": descriptor.event_id, "name": cls.__name__,
                     "payload_bytes": cls.payload_size(),
                     "instances": descriptor.instances,
                     "category": descriptor.category.value,
                     "nde": descriptor.is_nde,
                     "fusion_rule": descriptor.fusion_rule.value})
    if args.json:
        print(json.dumps(rows, indent=2))
        return 0
    for row in rows:
        print(f"{row['id']:3d} {row['name']:22s} "
              f"{row['payload_bytes']:5d} B x{row['instances']:<3d} "
              f"{row['category']:18s} "
              f"{'NDE' if row['nde'] else '   '} "
              f"{row['fusion_rule']}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "profile": _cmd_profile,
    "ladder": _cmd_ladder,
    "inject": _cmd_inject,
    "fuzz": _cmd_fuzz,
    "sweep": _cmd_sweep,
    "workloads": _cmd_workloads,
    "faults": _cmd_faults,
    "events": _cmd_events,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
