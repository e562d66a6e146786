"""The end-to-end benchmark: ``run_cosim`` cycles/sec on eight workloads.

    python3 benchmarks/e2e/run.py                 # every workload, both runs
    python3 benchmarks/e2e/run.py --aa            # ... twice, compared
    python3 benchmarks/e2e/run.py --workload alu_xs_default --seed 3 \\
        --seconds 8 --trace 0                     # the driver's form

Metric and workload names, units, directions and bounds are read from
``BENCHMARK.json``; see ``README.md`` beside this file for what each one
means.  Every workload runs in its own fresh interpreter (``child.py``):
five set-up probes, then the timed repeats with tracing off
(``--trace 0``), or the traced run for the per-layer numbers
(``--trace 1``).  The last line of stdout is one JSON object; the exit
code is non-zero when any operation failed or any digest differed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import subprocess
import sys
from typing import Dict, Sequence

import report

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Set-up probes per run.  The issue asks for nine; the driver's time cap
#: (180 runs in 3420 s) leaves room for five.
SETUP_LAUNCHES = 5
#: A child that outlives this is killed with its workers; the driver
#: allows the whole run 180 s.
CHILD_TIMEOUT_S = 150


def launch(mode: str, workload: str, seed: int, *extra: str) -> dict:
    """Run ``child.py`` in a fresh interpreter; return its JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in (env.get("PYTHONPATH"),) if p])
    command = [sys.executable, str(HERE / "child.py"), "--mode", mode,
               "--workload", workload, "--seed", str(seed), *extra]
    # Own session, so a timeout can take the child's pool workers too.
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                             text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise SystemExit(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s")
    if child.returncode != 0:
        raise SystemExit(f"{workload}: child exited {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def measure_workload(bench: dict, name: str, seed: int, seconds: float,
                     traces: Sequence[int], smoke: bool) -> dict:
    """Run the requested children for one workload and merge them."""
    flags = ("--smoke",) if smoke else ()
    docs = {}
    record: dict = {"workload": name, "seed": seed}
    if 0 in traces:
        launches = 1 if smoke else SETUP_LAUNCHES
        setup = [launch("setup", name, seed, *flags)["setup_s"]
                 for _ in range(launches)]
        docs[0] = launch("measure", name, seed, "--seconds", str(seconds),
                         "--trace", "0", *flags)
        samples = dict(docs[0]["samples"], setup_s=setup,
                       peak_rss_mb=[docs[0]["peak_rss_mb"]])
        record["summary"] = {m["name"]: report.summarise(samples[m["name"]])
                             for m in bench["end_to_end"]}
    if 1 in traces:
        docs[1] = launch("measure", name, seed, "--trace", "1", *flags)
        layers = docs[1]["layers"]
        expected = {m["name"] for m in bench["per_layer"]}
        if set(layers) != expected:
            raise SystemExit(
                f"{name}: per-layer metrics differ from BENCHMARK.json: "
                f"{sorted(set(layers) ^ expected)}")
        record["traced"] = {"layers": layers,
                            "null_reasons": docs[1]["null_reasons"]}
    children = list(docs.values())
    digests = {child["sim_digest"] for child in children}
    attempted = sum(child["attempted"] for child in children)
    # The traced child's digest must also match the untraced child's.
    failed = sum(child["failed"] for child in children) + len(digests) - 1
    common = children[0]  # both children resolve the same configuration
    record.update(
        sim_digest=common["sim_digest"], attempted=attempted, failed=failed,
        fail_share=failed / attempted,
        effective_config=common["effective_config"],
        dropped_overrides=common["dropped_overrides"],
        workers=common["workers"],
        # ``*_w2`` workloads assume two cores; say so when they ran on one.
        short_of_cores=common["workers"] < common["workers_wanted"])
    return record


def result_line(bench: dict, record: dict, trace: int) -> dict:
    """The driver's object: medians with tracing off, layers with it on
    (an undefined layer metric is written as 0 — the reason is in the
    table above the line and in the results file)."""
    if trace == 0:
        metrics = {m["name"]: {"value": record["summary"][m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    else:
        layers = record["traced"]["layers"]
        metrics = {m["name"]: {"value": layers[m["name"]] or 0,
                               "unit": m["unit"]}
                   for m in bench["per_layer"]}
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def describe(bench: dict, record: dict) -> str:
    why = {w["name"]: w["why"] for w in bench["workloads"]}[record["workload"]]
    lines = [f"== {record['workload']} (seed {record['seed']}) — {why}",
             f"effective DiffConfig: {json.dumps(record['effective_config'])}"]
    if record["dropped_overrides"]:
        lines.append("overrides dropped (field gone from DiffConfig): "
                     + ", ".join(record["dropped_overrides"]))
    if record["short_of_cores"]:
        lines.append(f"NOTE: wanted 2 workers, this machine gave "
                     f"{record['workers']}; *_w2 numbers are not comparable")
    lines.append(f"sim_digest {record['sim_digest'][:16]}  "
                 f"fail_share {record['failed']}/{record['attempted']}")
    return "\n".join(lines)


def run_set(bench: dict, seed: int, seconds: float, smoke: bool
            ) -> Dict[str, dict]:
    records = {}
    for workload in bench["workloads"]:
        record = measure_workload(bench, workload["name"], seed, seconds,
                                  (0, 1), smoke)
        print(describe(bench, record))
        print(report.end_to_end_table(bench, record["summary"]), flush=True)
        records[workload["name"]] = record
    print()
    print(report.matrix_table(bench, records))
    print()
    print(report.layer_table(bench, {n: r["traced"]
                                     for n, r in records.items()}))
    for name, record in records.items():
        share = sum(v for k, v in record["traced"]["layers"].items()
                    if k.endswith("_s_share") and v is not None)
        if share and abs(share - 100.0) > 1.0:
            raise SystemExit(f"{name}: layer shares sum to {share:.2f} %")
    return records


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload",
                        choices=[w["name"] for w in bench["workloads"]],
                        help="run one workload (default: all eight)")
    parser.add_argument("--seed", type=int, default=1,
                        help="DUT seed and fuzz seed base")
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"],
                        help="timed section per workload (at least five "
                             "repeats are always taken)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 = end-to-end metrics, "
                             "1 = per-layer metrics from the traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny programs, two repeats, one set-up probe "
                             "(schema check only; numbers mean nothing)")
    parser.add_argument("--aa", action="store_true",
                        help="run the whole set twice and compare")
    parser.add_argument("--out", type=pathlib.Path,
                        default=HERE / "out" / "results.json")
    args = parser.parse_args(argv)
    if args.aa and args.workload:
        parser.error("--aa compares whole sets; drop --workload")
    if not (ROOT / "src" / "repro").is_dir():
        # Never fall back to some other installed copy of the program.
        raise SystemExit(f"no program source under {ROOT / 'src'}")

    output = {"environment": report.environment(ROOT), "seed": args.seed,
              "smoke": args.smoke}
    print(f"environment: {json.dumps(output['environment'])}", flush=True)
    if args.workload:
        record = measure_workload(bench, args.workload, args.seed,
                                  args.seconds, (args.trace,), args.smoke)
        print(describe(bench, record))
        if args.trace == 0:
            print(report.end_to_end_table(bench, record["summary"]))
        else:
            print(report.layer_table(bench,
                                     {args.workload: record["traced"]}))
        output["workloads"] = {args.workload: record}
        last = result_line(bench, record, args.trace)
        ok = record["failed"] == 0
    else:
        sets = [run_set(bench, args.seed, args.seconds, args.smoke)
                for _ in range(2 if args.aa else 1)]
        output["workloads"] = sets[0]
        records = [r for records in sets for r in records.values()]
        ok = all(r["failed"] == 0 for r in records)
        if args.aa:
            rows = report.compare_sets(bench, *sets)
            print()
            print(report.aa_table(rows))
            output["second_set"] = sets[1]
            output["aa"] = rows
            ok = ok and all(row["ok"] for row in rows)
        last = {"correct": ok,
                "attempted": sum(r["attempted"] for r in records),
                "failed": sum(r["failed"] for r in records),
                "metrics": {}}
    output["environment"]["loadavg_after"] = list(os.getloadavg())
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(output, indent=1) + "\n")
    print(f"results written to {args.out}")
    print(json.dumps(last))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
