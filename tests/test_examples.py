"""Smoke tests: every shipped example runs cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples").glob("*.py")
)

EXPECT = {
    "quickstart.py": ["co-simulation PASSED", "modeled co-simulation speed"],
    "bug_hunt.py": ["detected at cycle", "debug report",
                    "available fault catalogue"],
    "optimization_sweep.py": ["Baseline (Z)", "+Squash (EBINSD)",
                              "paper reference"],
    "parallel_fuzz.py": ["deterministic campaign report",
                         "reports identical: True", "throughput rollup"],
    "trace_workflow.py": ["top event types", "what-if fusion",
                          "trace-driven checking: PASSED"],
    "mini_os_boot.py": ["clean shutdown", "optimisation ladder"],
    "profile_run.py": ["instrumented run", "slowest stage:",
                       "Chrome trace", "metrics JSONL"],
    "sliced_run.py": ["per-slice windows", "stitched counters",
                      "byte-identical to serial: True"],
    "chaos_campaign.py": ["report identical to reference: True",
                          "quarantined",
                          "surviving seeds identical to reference: True"],
}


def test_every_example_has_expectations():
    assert {path.name for path in EXAMPLES} == set(EXPECT)


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(path):
    proc = subprocess.run([sys.executable, str(path)], capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    for needle in EXPECT[path.name]:
        assert needle in proc.stdout, (path.name, needle)
