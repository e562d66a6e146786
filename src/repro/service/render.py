"""Deterministic campaign report renderers, shared CLI <-> service.

The acceptance bar for the result store is *byte identity*: a report
fetched from the store must equal the one-shot CLI's output for the same
campaign.  The only way that survives refactoring is a single rendering
path, so the per-job line formats and footers used by ``repro fuzz`` /
``repro ladder`` live here; the CLI streams the same lines as jobs
complete, the service joins them when a report is stored or
re-rendered from reloaded rows.

Everything here obeys the campaign determinism rule: values derived from
the runs only, never wall-clock time or worker counts.
"""

from __future__ import annotations

from typing import List, Tuple

from ..comm import FPGA_VU19P, PALLADIUM

__all__ = [
    "fuzz_footer_lines",
    "fuzz_job_lines",
    "render_fuzz",
    "render_ladder",
]


# ----------------------------------------------------------------------
# fuzz
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


# ----------------------------------------------------------------------
# ladder
# ----------------------------------------------------------------------
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
