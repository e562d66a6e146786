"""Bench regression gate: compare fresh BENCH_*.json against committed.

The repo's benchmark suites each persist their headline numbers to a
``BENCH_*.json`` trajectory file at the repo root.  CI's bench lane
regenerates them in the working tree and then runs this guard against
the committed copies: any *headline ratio* (a ``speedup``-named leaf —
dimensionless, so comparable across machines of different absolute
speed) that regresses by more than the tolerance fails the lane.

Raw throughput leaves (cycles/sec, ops/sec) are deliberately *not*
gated — they track the host machine, not the code.  Cross-trajectory
reference ratios (``ratio_vs_*``, a fresh number divided by a figure
committed on another day) are excluded for the same reason.

Gated trajectories today: ``BENCH_jit.json`` (compiled-simulation
tier), ``BENCH_capture.json``
(straight-to-wire capture tier: ``capture_speedup`` plus the end-to-end
fast-on/off ratios), ``BENCH_reliability.json``, ``BENCH_slicing.json``
and ``BENCH_service.json`` — any new ``BENCH_*.json`` with ``speedup``
leaves joins the gate automatically.

Escape hatch: a PR label (default ``skip-benchguard``) passed via
``--labels`` or the ``BENCHGUARD_LABELS`` environment variable skips
the gate, for PRs that intentionally trade a headline ratio away.

Usage::

    cp BENCH_*.json /tmp/committed/
    PYTHONPATH=src python -m pytest benchmarks/ -m bench
    PYTHONPATH=src python -m repro.toolkit.benchguard \
        --committed /tmp/committed --fresh .
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Leaf keys treated as headline ratios.
def is_headline_key(key: str) -> bool:
    if key.startswith("ratio_vs_"):
        return False  # cross-trajectory reference, not a same-run ratio
    return key == "speedup" or key.endswith("_speedup")


def headline_ratios(doc: dict, prefix: str = "") -> Dict[str, float]:
    """Flatten a BENCH document to ``dotted.path -> ratio`` for every
    numeric headline leaf."""
    out: Dict[str, float] = {}
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(headline_ratios(value, path + "."))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            if is_headline_key(key):
                out[path] = float(value)
    return out


@dataclass(frozen=True)
class Regression:
    """One headline ratio that got worse (or disappeared)."""

    file: str
    path: str
    committed: float
    fresh: Optional[float]  # None: the key vanished from the fresh file

    def __str__(self) -> str:
        if self.fresh is None:
            return (f"{self.file}: {self.path} = {self.committed:g} "
                    f"committed, missing from fresh results")
        drop = 1.0 - self.fresh / self.committed
        return (f"{self.file}: {self.path} regressed "
                f"{self.committed:g} -> {self.fresh:g} (-{drop:.1%})")


def compare_docs(name: str, committed: dict, fresh: dict,
                 tolerance: float = 0.10) -> List[Regression]:
    """Regressions of ``fresh`` against ``committed`` for one file."""
    committed_ratios = headline_ratios(committed)
    fresh_ratios = headline_ratios(fresh)
    regressions = []
    for path, value in sorted(committed_ratios.items()):
        current = fresh_ratios.get(path)
        if current is None:
            regressions.append(Regression(name, path, value, None))
        elif current < value * (1.0 - tolerance):
            regressions.append(Regression(name, path, value, current))
    return regressions


def compare_dirs(committed_dir: pathlib.Path, fresh_dir: pathlib.Path,
                 tolerance: float = 0.10):
    """Compare every BENCH_*.json present in *both* directories.

    Returns ``(regressions, compared_names, skipped_names)`` — a file
    with no fresh counterpart is skipped (the bench lane may regenerate
    only a subset), and a fresh file with no committed counterpart is a
    brand-new trajectory with nothing to regress against.
    """
    regressions: List[Regression] = []
    compared: List[str] = []
    skipped: List[str] = []
    for committed_path in sorted(committed_dir.glob("BENCH_*.json")):
        fresh_path = fresh_dir / committed_path.name
        if not fresh_path.exists():
            skipped.append(committed_path.name)
            continue
        compared.append(committed_path.name)
        regressions.extend(compare_docs(
            committed_path.name,
            json.loads(committed_path.read_text()),
            json.loads(fresh_path.read_text()),
            tolerance))
    return regressions, compared, skipped


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchguard", description=__doc__.split("\n", 1)[0])
    parser.add_argument("--committed", required=True, type=pathlib.Path,
                        help="directory holding the committed BENCH_*.json")
    parser.add_argument("--fresh", required=True, type=pathlib.Path,
                        help="directory holding the regenerated BENCH_*.json")
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed relative drop (default 0.10 = 10%%)")
    parser.add_argument("--skip-label", default="skip-benchguard",
                        help="PR label that disables the gate")
    parser.add_argument("--labels", default=None,
                        help="comma-separated PR labels (default: "
                             "$BENCHGUARD_LABELS)")
    args = parser.parse_args(argv)

    labels = args.labels
    if labels is None:
        labels = os.environ.get("BENCHGUARD_LABELS", "")
    label_set = {label.strip() for label in labels.split(",") if label.strip()}
    if args.skip_label in label_set:
        print(f"benchguard: skipped ({args.skip_label!r} label present)")
        return 0

    regressions, compared, skipped = compare_dirs(
        args.committed, args.fresh, args.tolerance)
    for name in skipped:
        print(f"benchguard: {name} not regenerated, skipped")
    if not compared:
        print("benchguard: no benchmark files to compare")
        return 0
    if regressions:
        for regression in regressions:
            print(f"benchguard: FAIL {regression}")
        return 1
    print(f"benchguard: OK ({len(compared)} file(s), "
          f"tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
