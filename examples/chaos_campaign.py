#!/usr/bin/env python3
"""Chaos campaign: SIGKILL workers mid-run and watch the supervisor win.

Runs the same 6-seed fuzz campaign three times:

1. fault-free, as the reference report;
2. with a *transient* chaos fault — one worker SIGKILLs itself the
   first time it picks up seed 2.  The supervised executor rebuilds the
   pool, re-queues the in-flight jobs, retries, and the final report is
   byte-identical to the reference (the supervisor is invisible when it
   wins);
3. with a *poison* job — seed 1 kills its worker on every attempt.  The
   supervisor quarantines it after ``poison_threshold`` pool breaks and
   reports it explicitly; every surviving seed's line still matches the
   reference.

Recovered or reported, never silent loss: that is the contract.

Run:  python examples/chaos_campaign.py
"""

from repro.cli import render_fuzz
from repro.core import CONFIG_BNSD
from repro.dut import XIANGSHAN_DEFAULT
from repro.parallel import SupervisionPolicy
from repro.toolkit import POISON, ChaosExecutor, ChaosFault, ChaosPlan
from repro.workloads.fuzz import fuzz_specs

SEEDS = range(6)
LENGTH = 40
POLICY = SupervisionPolicy(poison_threshold=2, backoff_base_s=0.01,
                           backoff_cap_s=0.05)


def run_fuzz(executor):
    campaign = executor.run(fuzz_specs(SEEDS, length=LENGTH,
                                       dut_config=XIANGSHAN_DEFAULT,
                                       diff_config=CONFIG_BNSD))
    return campaign, render_fuzz(campaign, 0, len(SEEDS))


def main() -> None:
    from repro.parallel import CampaignExecutor

    print("6-seed fuzz campaign under process chaos\n")
    reference, ref_report = run_fuzz(
        CampaignExecutor(workers=2, retries=1, supervision=POLICY))
    print("fault-free reference report:")
    print(ref_report)

    # -- transient chaos: one SIGKILL, then clean ----------------------
    plan = ChaosPlan({2: ChaosFault("kill", times=1)})
    campaign, report = run_fuzz(
        ChaosExecutor(plan, workers=2, retries=1, supervision=POLICY))
    print()
    print("transient SIGKILL on seed 2's first attempt:")
    print(f"  pool restarts : {campaign.stats.pool_restarts}")
    print(f"  re-queues     : {campaign.stats.requeues}")
    print(f"  report identical to reference: {report == ref_report}")
    assert report == ref_report, "recovery must be invisible"

    # -- poison job: quarantined, loudly -------------------------------
    plan = ChaosPlan({1: ChaosFault("kill", times=POISON)})
    campaign, report = run_fuzz(
        ChaosExecutor(plan, workers=2, retries=1, supervision=POLICY))
    print()
    print("poison job (seed 1 kills its worker on every attempt):")
    print(report)
    survivors_match = all(
        line in ref_report.splitlines()
        for line in report.splitlines()
        if line.startswith("seed") and "CRASH" not in line)
    print()
    print(f"  quarantined   : "
          f"{[job.label for job in campaign.quarantined]}")
    print(f"  surviving seeds identical to reference: {survivors_match}")
    assert campaign.quarantined and survivors_match


if __name__ == "__main__":
    main()
