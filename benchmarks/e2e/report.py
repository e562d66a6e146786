"""Summaries, the environment stamp, tables and the A/A comparison."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, Iterable, List, Sequence

from layers import is_wall_derived
from workloads import nproc


def summarise(samples: Sequence[float]) -> dict:
    """Median with min/max/IQR/n (IQR as ``statistics.quantiles`` cuts
    it; 0 below two samples)."""
    iqr = 0.0
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
        iqr = q3 - q1
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "iqr": iqr, "n": len(samples)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(root) -> dict:
    """Where the numbers were taken (load average is filled in twice:
    before the first run and after the last)."""
    return {
        "git_commit": _git_commit(root),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "loadavg_before": list(os.getloadavg()),
    }


# ----------------------------------------------------------------------
# Tables
# ----------------------------------------------------------------------
def _num(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, str):  # a digest
        return value[:12]
    if isinstance(value, int) or float(value).is_integer():
        return f"{int(value)}"
    return f"{value:.4g}" if abs(value) < 1000 else f"{value:.1f}"


def _table(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    rows = [list(row) for row in rows]
    widths = [max(len(str(cell)) for cell in column)
              for column in zip(header, *rows)]
    lines = ["  ".join(f"{cell:<{w}}" for cell, w in zip(header, widths))]
    lines += ["  ".join(f"{cell:<{w}}" for cell, w in zip(row, widths))
              for row in rows]
    return "\n".join(line.rstrip() for line in lines)


def end_to_end_table(bench: dict, summary: Dict[str, dict]) -> str:
    """One workload's end-to-end metrics with their spread."""
    rows = []
    for metric in bench["end_to_end"]:
        s = summary[metric["name"]]
        rows.append((metric["name"], metric["unit"], metric["better"],
                     _num(s["median"]), _num(s["min"]), _num(s["max"]),
                     _num(s["iqr"]), str(s["n"]),
                     f"{100 * metric['bound']:g} %"))
    return _table(("metric", "unit", "better", "median", "min", "max",
                   "IQR", "n", "bound"), rows)


def layer_table(bench: dict, columns: Dict[str, dict]) -> str:
    """Per-layer metrics, one column per workload; ``n/a`` cells carry
    their reason in the notes below the table."""
    names = list(columns)
    rows = []
    for metric in bench["per_layer"]:
        name = metric["name"]
        rows.append([name, metric["unit"], metric["better"]] + [
            _num(columns[w]["layers"][name]) for w in names])
    header = ["layer metric", "unit", "better"] + [
        f"[{i + 1}]" for i in range(len(names))]
    legend = "  ".join(f"[{i + 1}] {w}" for i, w in enumerate(names))
    reasons: Dict[str, List[str]] = {}
    for w in names:
        for name, reason in columns[w]["null_reasons"].items():
            reasons.setdefault(reason, []).append(f"{w}:{name}")
    notes = [f"n/a — {reason}: {len(cells)} cell(s), e.g. {cells[0]}"
             for reason, cells in sorted(reasons.items())]
    return "\n".join([legend, _table(header, rows)] + notes)


def matrix_table(bench: dict, records: Dict[str, dict]) -> str:
    """All workloads x the seven user-visible metrics (medians)."""
    e2e = [m["name"] for m in bench["end_to_end"]]
    header = ["workload"] + e2e + ["modeled_khz", "vs paper", "fail_share"]
    rows = []
    for name, record in records.items():
        layers = (record.get("traced") or {}).get("layers") or {}
        khz = layers.get("sim.modeled_khz")
        err = layers.get("sim.modeled_khz_err_pct")
        vs_paper = ("n/a" if khz is None else "unvalidated" if err is None
                    else f"{err:.1f} % off")
        rows.append([name] + [_num(record["summary"][m]["median"])
                              for m in e2e]
                    + [_num(khz), vs_paper, _num(record["fail_share"])])
    return _table(header, rows)


# ----------------------------------------------------------------------
# A/A: two sets of runs of the same code
# ----------------------------------------------------------------------
def compare_sets(bench: dict, first: Dict[str, dict],
                 second: Dict[str, dict]) -> List[dict]:
    """Per metric x workload, how far the second set is from the first.

    Wall-clock metrics may differ by their bound (relative to the first
    median); the digest, ``fail_share``, ``modeled_khz`` and every count
    must agree exactly.
    """
    rows = []
    for name in first:
        a, b = first[name], second[name]
        for metric in bench["end_to_end"]:
            ma = a["summary"][metric["name"]]["median"]
            mb = b["summary"][metric["name"]]["median"]
            diff = abs(mb - ma) / ma
            rows.append({"workload": name, "metric": metric["name"],
                         "first": ma, "second": mb, "rel_diff": diff,
                         "bound": metric["bound"],
                         "ok": diff <= metric["bound"]})
        exact = {"sim_digest": (a["sim_digest"], b["sim_digest"]),
                 "fail_share": (a["fail_share"], b["fail_share"])}
        for metric in bench["per_layer"]:
            if not is_wall_derived(metric["name"]):
                exact[metric["name"]] = (
                    a["traced"]["layers"][metric["name"]],
                    b["traced"]["layers"][metric["name"]])
        for metric_name, (va, vb) in exact.items():
            rows.append({"workload": name, "metric": metric_name,
                         "first": va, "second": vb,
                         "rel_diff": 0.0 if va == vb else None,
                         "bound": 0.0, "ok": va == vb})
    return rows


def aa_table(rows: List[dict]) -> str:
    """Timed rows in full; exact rows only when they disagree."""
    shown = [r for r in rows if r["bound"] > 0 or not r["ok"]]
    agreeing = len(rows) - len(shown)
    body = _table(
        ("workload", "metric", "first", "second", "diff", "bound", ""),
        [(r["workload"], r["metric"], _num(r["first"]), _num(r["second"]),
          "differs" if r["rel_diff"] is None
          else f"{100 * r['rel_diff']:.2f} %",
          f"{100 * r['bound']:g} %", "ok" if r["ok"] else "EXCEEDS")
         for r in shown])
    return (f"{body}\n{agreeing} exact comparison(s) (digest, fail_share, "
            "counts, modeled_khz) agree and are not listed")
