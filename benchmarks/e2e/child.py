"""One workload in one fresh interpreter (started by ``run.py``).

``--mode setup`` is the set-up probe: from before ``import repro`` to the
workload built and its ``CoSimulation``/executor constructed, no
simulation.  ``--mode measure`` runs the operation repeatedly — one
discarded warm-up, then the timed repeats (``--trace 0``) or two untraced
repeats, the traced run and the kind's comparison run (``--trace 1``).
Either way the last line of stdout is one JSON object.

Timing hygiene: ``perf_counter`` throughout, ``gc.collect()`` before and
the collector disabled inside every operation, nothing else running in
this process, workers capped at the cores it may use.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
from dataclasses import asdict, replace
from time import perf_counter
from typing import List

from layers import layer_metrics
from tracing import Tracer
from workloads import (Outcome, Prepared, construct, operation, prepare,
                       run_length, spec_by_name)

MIN_REPEATS = 5
SMOKE_REPEATS = 2
#: Untraced repeats beside the traced run (its overhead base).
TRACE_BASE_REPEATS = 2


def setup_probe(name: str, seed: int, smoke: bool) -> dict:
    start = perf_counter()
    construct(prepare(spec_by_name(name), seed, smoke))
    return {"setup_s": perf_counter() - start}


def timed(prep: Prepared) -> Outcome:
    gc.collect()
    gc.disable()
    try:
        return operation(prep)
    finally:
        gc.enable()


def comparison_run(prep: Prepared, traced: Outcome) -> Outcome:
    """The run a pool workload's scaling figure is a ratio against.

    Campaign: the same campaign on one worker.  Sliced: the serial run
    under the sliced run's own barrier period — the run slicing promises
    to be byte-identical to, so its digest is checked like any repeat.
    """
    if prep.spec.kind == "campaign":
        return timed(replace(prep, workers=1))
    serial = replace(
        prep, spec=replace(prep.spec, kind="run"),
        config=replace(prep.config,
                       slice_epoch_cycles=traced.result.epoch_cycles))
    return timed(serial)


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool) -> dict:
    spec = spec_by_name(name)
    prep = prepare(spec, seed, smoke)
    if spec.kind == "sliced":
        prep.max_cycles = run_length(prep)
    warm = timed(prep)  # discarded: lazy imports, codec compilation
    if trace:
        repeats = TRACE_BASE_REPEATS
    elif smoke:
        repeats = SMOKE_REPEATS
    else:
        repeats = max(MIN_REPEATS, math.ceil(seconds / warm.wall_s))
    timed_ops: List[Outcome] = [timed(prep) for _ in range(repeats)]
    checked = [warm] + timed_ops
    sheet = None
    if trace:
        # Pool workloads simulate in workers the tracer cannot reach;
        # their traced run is a plain one beside the comparison run.
        tracer = Tracer()
        if spec.kind in ("run", "bug"):
            tracer.install()
        try:
            traced = timed(prep)
        finally:
            tracer.uninstall()
        checked.append(traced)
        comparison = None
        if spec.kind in ("campaign", "sliced"):
            comparison = comparison_run(prep, traced)
            checked.append(comparison)
        sheet = layer_metrics(
            prep, traced, tracer,
            statistics.median(op.run_s for op in timed_ops), comparison)
    mismatches = sum(1 for op in checked if op.digest != warm.digest)
    samples = {}
    for op in timed_ops:
        for metric, value in op.metrics().items():
            samples.setdefault(metric, []).append(value)
    usage = max(resource.getrusage(who).ru_maxrss
                for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "effective_config": asdict(prep.config),
        "dropped_overrides": list(prep.dropped_overrides),
        "workers": prep.workers, "workers_wanted": spec.workers,
        "samples": samples,
        "peak_rss_mb": usage / 1024.0,  # ru_maxrss is KiB on Linux
        "sim_digest": warm.digest, "digest_mismatches": mismatches,
        "attempted": sum(op.jobs for op in checked),
        "failed": sum(op.failed for op in checked) + mismatches,
        "cycles": warm.cycles,
        "layers": sheet.values if sheet else None,
        "null_reasons": sheet.reasons if sheet else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.mode == "setup":
        doc = setup_probe(args.workload, args.seed, args.smoke)
    else:
        doc = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace), args.smoke)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
