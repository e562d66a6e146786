"""Span tracing: where inside a run wall-clock time and cycles go.

A *span* is one timed phase of the pipeline — ``capture``, ``fuse``,
``pack``, ``transfer``, ``dispatch``, ``ref_step``, ``compare``, or a
whole campaign job.  The tracer records each span on two timelines:

* **wall clock** — microseconds since the tracer was created, from
  ``time.perf_counter()``; this is what the Chrome-trace exporter lays
  out and what the per-stage profile aggregates.
* **modeled cycles** — the DUT cycle a span belongs to, when the caller
  supplies one; the exporter renders these as a second Perfetto process
  so phase activity can be read against simulated time.

Spans nest naturally (``with tracer.span("dispatch"): ...``) and the
Chrome trace-event format reconstructs the nesting from ts/dur alone, so
no explicit parent bookkeeping is needed.

Aggregates (per-phase count / total / min / max) are always maintained;
the individual span records that feed the trace file are bounded by
``max_records`` so a million-cycle run cannot exhaust memory — once the
cap is hit, further spans still aggregate but are counted in
``dropped_records`` instead of stored.

A tracer built with ``enabled=False`` hands out a shared no-op context
manager and records nothing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

#: Default cap on stored span records (aggregation is never capped).
DEFAULT_MAX_RECORDS = 200_000


@dataclass(frozen=True)
class SpanRecord:
    """One finished span on the wall-clock (and optional cycle) timeline."""

    name: str
    ts_us: float  # start, µs since tracer creation
    dur_us: float
    cycle: Optional[int] = None  # modeled-cycle timeline position
    tid: int = 0  # Chrome-trace track (campaign jobs use worker lanes)


@dataclass
class PhaseStat:
    """Aggregate of every span sharing one phase name."""

    count: int = 0
    total_us: float = 0.0
    min_us: float = float("inf")
    max_us: float = 0.0

    @property
    def mean_us(self) -> float:
        return self.total_us / self.count if self.count else 0.0

    def add(self, dur_us: float) -> None:
        self.count += 1
        self.total_us += dur_us
        if dur_us < self.min_us:
            self.min_us = dur_us
        if dur_us > self.max_us:
            self.max_us = dur_us


class _Span:
    """A live span; ``with tracer.span(name):`` is the only entry point."""

    __slots__ = ("_tracer", "_name", "_cycle", "_t0")

    def __init__(self, tracer: "Tracer", name: str,
                 cycle: Optional[int]) -> None:
        self._tracer = tracer
        self._name = name
        self._cycle = cycle

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self._tracer._finish(self._name, self._t0, time.perf_counter(),
                             self._cycle)


class _NullSpan:
    """Shared do-nothing span for disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records nested pipeline spans; exporters read it afterwards."""

    def __init__(self, enabled: bool = True,
                 max_records: int = DEFAULT_MAX_RECORDS) -> None:
        self.enabled = enabled
        self.max_records = max_records
        self.records: List[SpanRecord] = []
        self.dropped_records = 0
        self._aggregate: Dict[str, PhaseStat] = {}
        self._epoch = time.perf_counter()

    # ------------------------------------------------------------------
    def span(self, name: str, cycle: Optional[int] = None):
        """Context manager timing one phase occurrence."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, cycle)

    def _finish(self, name: str, t0: float, t1: float,
                cycle: Optional[int]) -> None:
        dur_us = (t1 - t0) * 1e6
        stat = self._aggregate.get(name)
        if stat is None:
            stat = self._aggregate[name] = PhaseStat()
        stat.add(dur_us)
        if len(self.records) < self.max_records:
            self.records.append(SpanRecord(
                name=name, ts_us=(t0 - self._epoch) * 1e6,
                dur_us=dur_us, cycle=cycle))
        else:
            self.dropped_records += 1

    def add_complete(self, name: str, ts_us: float, dur_us: float,
                     cycle: Optional[int] = None, tid: int = 0) -> None:
        """Record an externally timed span (e.g. a campaign job whose
        duration was measured in a worker process)."""
        if not self.enabled:
            return
        stat = self._aggregate.get(name)
        if stat is None:
            stat = self._aggregate[name] = PhaseStat()
        stat.add(dur_us)
        if len(self.records) < self.max_records:
            self.records.append(SpanRecord(name=name, ts_us=ts_us,
                                           dur_us=dur_us, cycle=cycle,
                                           tid=tid))
        else:
            self.dropped_records += 1

    # ------------------------------------------------------------------
    def aggregate(self) -> Dict[str, PhaseStat]:
        """Per-phase aggregate stats (uncapped, order by insertion)."""
        return dict(self._aggregate)


#: Shared disabled tracer (the zero-cost default).
NULL_TRACER = Tracer(enabled=False)
