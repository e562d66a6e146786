"""Typed metric instruments and the mergeable registry.

The registry is the numeric half of the observability subsystem: every
quantity the paper's argument rests on — invocations, bytes on the wire,
fusion ratios, packet utilisation, queue backpressure — becomes a named
instrument under a hierarchical dotted name (``comm.bytes_sent``,
``checker.compares``), snapshot-able into a plain value object that
crosses process boundaries and merges deterministically.

Three instrument kinds:

* :class:`Counter` — monotonically increasing totals; merge by sum.
* :class:`Gauge` — level/high-water-mark samples; merge by max (the
  only order-independent fold that preserves "worst seen anywhere").
* :class:`Histogram` — value distributions over fixed bucket bounds;
  merge by element-wise bucket addition.

All merge rules are commutative and associative, so folding N worker
snapshots into a campaign aggregate is independent of completion order —
the same determinism guarantee the campaign executor gives for reports.

**No-op mode**: a registry built with ``enabled=False`` hands out shared
do-nothing singleton instruments and allocates nothing per call, so
instrumented hot paths cost one branch when observability is off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

Number = Union[int, float]

#: Default histogram bucket upper bounds: powers of two up to 64 KiB —
#: sized for transfer bytes, queue occupancies and event payloads.
DEFAULT_BOUNDS: Tuple[int, ...] = tuple(2 ** i for i in range(17))


# ----------------------------------------------------------------------
# Live instruments
# ----------------------------------------------------------------------
class Counter:
    """A monotonically increasing total."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount


class Gauge:
    """A sampled level; campaign merges keep the maximum."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value

    def set_max(self, value: Number) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """A distribution over fixed, ascending bucket upper bounds.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]``; one extra
    overflow bucket catches everything above the last bound.
    """

    __slots__ = ("bounds", "bucket_counts", "count", "total",
                 "minimum", "maximum")
    kind = "histogram"

    def __init__(self, bounds: Tuple[Number, ...] = DEFAULT_BOUNDS) -> None:
        self.bounds = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total: Number = 0
        self.minimum: Optional[Number] = None
        self.maximum: Optional[Number] = None

    def observe(self, value: Number) -> None:
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[index] += 1
                return
        self.bucket_counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


# ----------------------------------------------------------------------
# No-op instruments (shared singletons; zero allocation when disabled)
# ----------------------------------------------------------------------
class _NullCounter:
    __slots__ = ()
    kind = "counter"
    value = 0

    def inc(self, amount: Number = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()
    kind = "gauge"
    value = 0

    def set(self, value: Number) -> None:
        pass

    def set_max(self, value: Number) -> None:
        pass


class _NullHistogram:
    __slots__ = ()
    kind = "histogram"
    count = 0
    total = 0
    mean = 0.0

    def observe(self, value: Number) -> None:
        pass


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()


# ----------------------------------------------------------------------
# Snapshots: the picklable, mergeable value objects
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MetricRecord:
    """One metric frozen to plain values (picklable, value-comparable)."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    value: Number = 0
    # Histogram-only fields.
    count: int = 0
    total: Number = 0
    minimum: Optional[Number] = None
    maximum: Optional[Number] = None
    bounds: Tuple[Number, ...] = ()
    bucket_counts: Tuple[int, ...] = ()

    def merge(self, other: "MetricRecord") -> "MetricRecord":
        """Order-independent fold of two records of the same metric."""
        if other.name != self.name or other.kind != self.kind:
            raise ValueError(
                f"cannot merge {self.kind} {self.name!r} with "
                f"{other.kind} {other.name!r}")
        if self.kind == "counter":
            return MetricRecord(self.name, "counter",
                                value=self.value + other.value)
        if self.kind == "gauge":
            return MetricRecord(self.name, "gauge",
                                value=max(self.value, other.value))
        if self.bounds != other.bounds:
            raise ValueError(
                f"histogram {self.name!r}: mismatched bucket bounds")
        mins = [m for m in (self.minimum, other.minimum) if m is not None]
        maxs = [m for m in (self.maximum, other.maximum) if m is not None]
        merged_counts = tuple(a + b for a, b in
                              zip(self.bucket_counts, other.bucket_counts))
        return MetricRecord(
            self.name, "histogram",
            value=self.value + other.value,
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=min(mins) if mins else None,
            maximum=max(maxs) if maxs else None,
            bounds=self.bounds,
            bucket_counts=merged_counts,
        )

    def to_dict(self) -> dict:
        """Plain-JSON form (the JSONL exporter's line payload)."""
        out = {"name": self.name, "kind": self.kind, "value": self.value}
        if self.kind == "histogram":
            out.update(count=self.count, total=self.total,
                       min=self.minimum, max=self.maximum,
                       bounds=list(self.bounds),
                       bucket_counts=list(self.bucket_counts))
        return out


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable point-in-time view of a registry.

    Snapshots are what cross process boundaries (inside
    :class:`~repro.core.summary.RunSummary`) and what campaign-level
    aggregation folds together; :meth:`merge` is commutative and
    associative, so any merge order over any partition of worker
    snapshots produces the same aggregate.
    """

    metrics: Dict[str, MetricRecord] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.metrics)

    def value(self, name: str, default: Number = 0) -> Number:
        record = self.metrics.get(name)
        return record.value if record is not None else default

    def records(self) -> List[MetricRecord]:
        """All records, deterministically ordered by name."""
        return [self.metrics[name] for name in sorted(self.metrics)]

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        merged = dict(self.metrics)
        for name, record in other.metrics.items():
            mine = merged.get(name)
            merged[name] = record if mine is None else mine.merge(record)
        return MetricsSnapshot(merged)

    @staticmethod
    def merge_all(
            snapshots: Iterable[Optional["MetricsSnapshot"]]
    ) -> "MetricsSnapshot":
        """Fold any number of snapshots (``None`` entries are skipped)."""
        total = MetricsSnapshot()
        for snapshot in snapshots:
            if snapshot is not None:
                total = total.merge(snapshot)
        return total

    def to_dicts(self) -> List[dict]:
        """All records as plain dicts, deterministically ordered."""
        return [record.to_dict() for record in self.records()]


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------
class MetricRegistry:
    """Creates, owns and snapshots named instruments.

    Names are hierarchical dotted paths (``comm.bytes_sent``); asking
    for an existing name returns the existing instrument, and asking for
    it under a different kind is an error (one name, one type).

    With ``enabled=False`` every factory returns the shared no-op
    singleton of the right kind and the registry stays empty — the cheap
    mode instrumented hot paths rely on.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: Dict[str, object] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def _get(self, name: str, factory, kind: str):
        instrument = self._metrics.get(name)
        if instrument is None:
            instrument = factory()
            self._metrics[name] = instrument
        elif instrument.kind != kind:
            raise ValueError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, not {kind}")
        return instrument

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_COUNTER
        return self._get(name, Counter, "counter")

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return NULL_GAUGE
        return self._get(name, Gauge, "gauge")

    def histogram(self, name: str,
                  bounds: Tuple[Number, ...] = DEFAULT_BOUNDS) -> Histogram:
        if not self.enabled:
            return NULL_HISTOGRAM
        return self._get(name, lambda: Histogram(bounds), "histogram")

    # ------------------------------------------------------------------
    def set_counter(self, name: str, value: Number) -> None:
        """Fold a final total into a counter (end-of-run accounting)."""
        if self.enabled:
            counter = self.counter(name)
            counter.inc(value - counter.value)

    def set_gauge(self, name: str, value: Number) -> None:
        if self.enabled:
            self.gauge(name).set(value)

    # ------------------------------------------------------------------
    def snapshot(self) -> MetricsSnapshot:
        records: Dict[str, MetricRecord] = {}
        for name, instrument in self._metrics.items():
            if instrument.kind == "histogram":
                records[name] = MetricRecord(
                    name, "histogram",
                    value=instrument.total,
                    count=instrument.count,
                    total=instrument.total,
                    minimum=instrument.minimum,
                    maximum=instrument.maximum,
                    bounds=instrument.bounds,
                    bucket_counts=tuple(instrument.bucket_counts),
                )
            else:
                records[name] = MetricRecord(name, instrument.kind,
                                             value=instrument.value)
        return MetricsSnapshot(records)
