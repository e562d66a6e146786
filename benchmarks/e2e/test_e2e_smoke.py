"""Smoke test of the end-to-end benchmark harness (marked ``bench``).

Runs ``run.py --smoke`` (tiny programs, two repeats, one set-up probe)
into a temp dir and checks the *shape* of what comes out — never the
numbers — plus ``BENCHMARK.json`` against the benchmark contract.

Run with:
``PYTHONPATH=src python -m pytest benchmarks/e2e -q -m bench``
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest
from workloads import SPECS

pytestmark = pytest.mark.bench

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH_PATH = ROOT / "BENCHMARK.json"
BENCH = json.loads(BENCH_PATH.read_text())

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_harness(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
        capture_output=True, text=True, timeout=600)


def last_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_meets_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert BENCH["paths"] == ["benchmarks/e2e"]
    assert BENCH["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(BENCH["run_seconds"], int)
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    assert BENCH_PATH.stat().st_size <= 64 * 1024

    for workload in BENCH["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    for metric in metrics:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower"), metric
    names = [entry["name"] for entry in BENCH["workloads"] + metrics]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "every name is used once"

    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    # The names are the harness's workloads, in its order.
    assert [w["name"] for w in BENCH["workloads"]] == [s.name for s in SPECS]


def test_full_set_at_smoke_sizes(tmp_path):
    before = BENCH_PATH.read_bytes()
    out = tmp_path / "results.json"
    line = last_line(run_harness("--smoke", "--seed", "11", "--out", str(out)))
    assert set(line) == RESULT_KEYS
    assert line["correct"] is True and line["failed"] == 0
    assert BENCH_PATH.read_bytes() == before, "the harness never writes it"

    results = json.loads(out.read_text())
    for key in ("git_commit", "python", "platform", "nproc", "cpu_model",
                "loadavg_before", "loadavg_after"):
        assert key in results["environment"]
    records = results["workloads"]
    assert list(records) == [w["name"] for w in BENCH["workloads"]]
    layer_names = {m["name"] for m in BENCH["per_layer"]}
    for name, record in records.items():
        assert record["failed"] == 0 and record["attempted"] >= 1
        assert re.fullmatch(r"[0-9a-f]{64}", record["sim_digest"])
        assert record["effective_config"]["name"]
        for metric in BENCH["end_to_end"]:
            summary = record["summary"][metric["name"]]
            assert set(summary) == {"median", "min", "max", "iqr", "n"}
            assert summary["median"] > 0, (name, metric["name"])
        layers = record["traced"]["layers"]
        assert set(layers) == layer_names
        # Every null carries its reason, and nothing else does.
        nulls = {k for k, v in layers.items() if v is None}
        assert nulls == set(record["traced"]["null_reasons"]), name
        shares = [v for k, v in layers.items()
                  if k.endswith("_s_share") and v is not None]
        if shares:
            assert abs(sum(shares) - 100.0) <= 1.0, name

    def layer(workload, metric):
        return records[workload]["traced"]["layers"][metric]

    # The workloads demonstrably take different paths.
    assert layer("alu_xs_default", "tiers.fast_capture_active") == 0
    assert layer("alu_xs_fasttiers", "tiers.fast_capture_active") == 1
    assert layer("alu_xs_fasttiers", "tiers.jit_active") == 1
    assert layer("boot_xs_baseline_z", "comm.fusion.fuse_s") == 0
    assert layer("bug_sort_xs", "core.replay.events_replayed") > 0
    assert layer("churn_nutshell_sliced_w2",
                 "parallel.slicing.boundary_s") > 0


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_driver_form_prints_every_metric(tmp_path, trace, key):
    line = last_line(run_harness(
        "--workload", "churn_nutshell_default", "--seed", "5", "--seconds",
        "1", "--trace", str(trace), "--smoke",
        "--out", str(tmp_path / "one.json")))
    assert set(line) == RESULT_KEYS
    assert line["correct"] is True and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {n: m["unit"] for n, m in line["metrics"].items()} == expected
    for name, metric in line["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float)), name
