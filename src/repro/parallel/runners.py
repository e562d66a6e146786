"""Built-in job kinds for the campaign executor.

Each runner rebuilds its co-simulation *inside the worker process* from
the spec's plain parameters — a fuzz seed regenerates its program, a
workload name rebuilds its image — so specs stay tiny and runs stay
bit-reproducible regardless of which process executes them.

Imports of the heavier framework modules are deferred into the runner
bodies: this module is imported by :mod:`repro.parallel.jobs` during
dispatch, and the workload/campaign modules that *build* job specs
import :mod:`repro.parallel` in turn.

Kinds
-----
``fuzz``
    ``seed``, ``length`` plus DUT/config objects: one differential
    fuzzing run (the program is regenerated from the seed in-worker).
``workload``
    ``workload`` name (+ ``build_kwargs``): a named workload cell of a
    workload x config matrix.
``fault``
    ``fault`` name, ``trigger`` and an ``image``: one Table 6 fault
    injection, mismatch expected.
``slice``
    one epoch window of a checkpoint-sliced run (boundary seed, window
    coordinates, optional fault) — registered by
    :mod:`repro.parallel.slicing`, re-exported here so worker-side
    dispatch finds it.
"""

from __future__ import annotations

from typing import Dict

from ..core.summary import RunSummary
from .jobs import register_runner


def _run(dut_config, diff_config, image: bytes, max_cycles: int,
         seed: int = 2025, uart_input: bytes = b"",
         fault: str = "", trigger: int = 0,
         collect_metrics: bool = False) -> RunSummary:
    from ..core.framework import CoSimulation
    from ..dut import fault_by_name
    from ..obs import ObsContext

    obs = ObsContext() if collect_metrics else None
    cosim = CoSimulation(dut_config, diff_config, image, seed=seed,
                         uart_input=uart_input, obs=obs)
    if fault:
        fault_by_name(fault).install(cosim.dut.cores[0], trigger)
    return cosim.run(max_cycles=max_cycles).summarize()


@register_runner("fuzz")
def run_fuzz_job(params: Dict[str, object]) -> RunSummary:
    from ..workloads.fuzz import fuzz_workload

    workload = fuzz_workload(params["seed"], length=params["length"])
    return _run(params["dut"], params["config"], workload.image,
                params.get("max_cycles") or workload.max_cycles,
                collect_metrics=params.get("collect_metrics", False))


@register_runner("workload")
def run_workload_job(params: Dict[str, object]) -> RunSummary:
    from ..workloads import build

    workload = build(params["workload"], **params.get("build_kwargs", {}))
    return _run(params["dut"], params["config"], workload.image,
                params.get("max_cycles") or workload.max_cycles,
                seed=params.get("seed", 2025),
                uart_input=workload.uart_input,
                collect_metrics=params.get("collect_metrics", False))


@register_runner("fault")
def run_fault_job(params: Dict[str, object]) -> RunSummary:
    return _run(params["dut"], params["config"], params["image"],
                params["max_cycles"], fault=params["fault"],
                trigger=params["trigger"],
                collect_metrics=params.get("collect_metrics", False))


# Registers the ``slice`` runner as a side effect, so any process that
# dispatches jobs (pool workers included) can execute slice windows.
from . import slicing  # noqa: E402,F401  isort:skip
