"""Wire-level primitives shared by all packing schemes.

A :class:`WireItem` is one verification event ready for transmission: its
type/core/order-tag plus an encoded payload (full, or differenced by
Squash).  A :class:`Transfer` is one hardware->software communication — a
DPI-C call on the emulator, a DMA descriptor on the FPGA — whose count and
size drive the LogGP model.

Both classes sit on the per-event hot loop (one ``WireItem`` per captured
event, both sides of the channel), so they are hand-written ``__slots__``
classes rather than dataclasses: no per-instance ``__dict__``, no
generated-method indirection.  ``WireItem.payload`` may be ``bytes`` or a
``memoryview`` slice of the transfer buffer (the zero-copy unpack path);
equality treats the two interchangeably because ``memoryview`` compares by
content.
"""

from __future__ import annotations

from typing import List, Union

from ...events import VerificationEvent, event_class

#: Payload-encoding kinds.
ENC_FULL = 0
ENC_DIFF = 1

#: A wire payload: owned bytes, or a zero-copy view into a transfer buffer.
PayloadLike = Union[bytes, memoryview]


class TransferDecodeError(ValueError):
    """A transfer's bytes could not be decoded back into wire items.

    Mirrors the :class:`repro.toolkit.tracedump.TraceReader` ValueError
    contract: a structured error that names the packing ``scheme``, the
    byte ``offset`` at which decoding failed, and the ``expected`` /
    ``actual`` byte counts involved.  Subclasses ``ValueError`` so
    existing truncation-handling call sites keep working.  The
    co-simulation lets it propagate: it indicates a packer/unpacker
    protocol bug.
    """

    def __init__(self, scheme: str, message: str, *, offset: int,
                 expected=None, actual=None) -> None:
        super().__init__(
            f"{scheme} transfer decode error at byte offset {offset}: "
            f"{message}")
        self.scheme = scheme
        self.offset = offset
        self.expected = expected
        self.actual = actual


class WireItem:
    """One event as it crosses the hardware/software interface."""

    __slots__ = ("type_id", "core_id", "order_tag", "payload", "encoding")

    def __init__(self, type_id: int, core_id: int, order_tag: int,
                 payload: PayloadLike, encoding: int = ENC_FULL) -> None:
        self.type_id = type_id
        self.core_id = core_id
        self.order_tag = order_tag
        self.payload = payload
        self.encoding = encoding

    @classmethod
    def from_event(cls, event: VerificationEvent) -> "WireItem":
        return cls(
            type_id=event.DESCRIPTOR.event_id,
            core_id=event.core_id,
            order_tag=event.order_tag,
            payload=event.encode_payload(),
        )

    def to_event(self) -> VerificationEvent:
        """Decode a full-encoded item back into an event object."""
        if self.encoding != ENC_FULL:
            raise ValueError("diffed item must be completed first")
        klass = event_class(self.type_id)
        return klass.decode_payload(
            self.payload, core_id=self.core_id, order_tag=self.order_tag
        )

    def __eq__(self, other: object) -> bool:
        if type(other) is not WireItem:
            return NotImplemented
        return (
            self.type_id == other.type_id
            and self.core_id == other.core_id
            and self.order_tag == other.order_tag
            and self.payload == other.payload
            and self.encoding == other.encoding
        )

    __hash__ = None  # mutable value object, like the dataclass it replaces

    def __repr__(self) -> str:
        return (
            f"WireItem(type_id={self.type_id!r}, core_id={self.core_id!r}, "
            f"order_tag={self.order_tag!r}, payload={self.payload!r}, "
            f"encoding={self.encoding!r})"
        )


class Transfer:
    """One hardware->software communication.

    ``data`` is immutable ``bytes`` — unpackers hand out ``memoryview``
    slices of it as zero-copy payloads, which stay valid for as long as
    the ``bytes`` object is referenced (packers always build the next
    frame in their own scratch buffer, never in a previous transfer).
    """

    __slots__ = ("data", "items", "bubbles")

    def __init__(self, data: bytes, items: int = 0, bubbles: int = 0) -> None:
        self.data = data
        self.items = items  # events carried (0 for pure control transfers)
        self.bubbles = bubbles  # padding bytes carried (fixed-offset schemes)

    @property
    def size(self) -> int:
        return len(self.data)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Transfer:
            return NotImplemented
        return (self.data == other.data and self.items == other.items
                and self.bubbles == other.bubbles)

    __hash__ = None

    def __repr__(self) -> str:
        return (f"Transfer(data={self.data!r}, items={self.items!r}, "
                f"bubbles={self.bubbles!r})")


class PackingStats:
    """Instrumentation shared by all packers (Batch packet utilisation,
    bubble counts, ... — the paper's hardware performance counters)."""

    __slots__ = ("transfers", "bytes_sent", "payload_bytes", "bubble_bytes",
                 "meta_bytes", "events")

    def __init__(self, transfers: int = 0, bytes_sent: int = 0,
                 payload_bytes: int = 0, bubble_bytes: int = 0,
                 meta_bytes: int = 0, events: int = 0) -> None:
        self.transfers = transfers
        self.bytes_sent = bytes_sent
        self.payload_bytes = payload_bytes
        self.bubble_bytes = bubble_bytes
        self.meta_bytes = meta_bytes
        self.events = events

    def on_transfer(self, transfer: Transfer) -> None:
        self.transfers += 1
        self.bytes_sent += transfer.size
        self.bubble_bytes += transfer.bubbles
        self.events += transfer.items

    @property
    def utilization(self) -> float:
        if not self.bytes_sent:
            return 0.0
        return 1.0 - self.bubble_bytes / self.bytes_sent

    def fold_into(self, registry) -> None:
        """Publish the packer-side counters into a metric registry
        (:class:`repro.obs.MetricRegistry`) under ``pack.*`` names not
        already covered by the run-stats mapping."""
        registry.set_counter("pack.transfers", self.transfers)
        registry.set_counter("pack.bytes_sent", self.bytes_sent)
        registry.set_counter("pack.payload_bytes", self.payload_bytes)
        registry.set_counter("pack.events", self.events)

    def __repr__(self) -> str:
        return (f"PackingStats(transfers={self.transfers!r}, "
                f"bytes_sent={self.bytes_sent!r}, "
                f"payload_bytes={self.payload_bytes!r}, "
                f"bubble_bytes={self.bubble_bytes!r}, "
                f"meta_bytes={self.meta_bytes!r}, events={self.events!r})")

    def __eq__(self, other: object) -> bool:
        if type(other) is not PackingStats:
            return NotImplemented
        return all(
            getattr(self, name) == getattr(other, name)
            for name in PackingStats.__slots__
        )

    __hash__ = None


class Packer:
    """Interface: turn per-cycle wire items into transfers."""

    name = "abstract"

    def __init__(self) -> None:
        self.stats = PackingStats()
        self._raw_items: List[WireItem] = []

    def pack_cycle(self, items: List[WireItem]) -> List[Transfer]:
        """Accept one cycle's items; return any transfers now ready."""
        raise NotImplementedError

    def flush(self) -> List[Transfer]:
        """Emit any buffered partial transfer (end of run / drain)."""
        return []

    # ------------------------------------------------------------------
    # Append-raw entry point (straight-to-wire capture)
    # ------------------------------------------------------------------
    # One cycle's worth of appends between begin_append()/end_append() must
    # produce byte-identical transfers to a single pack_cycle() call with
    # the equivalent WireItem list.  The default implementation guarantees
    # that by buffering items and delegating; packers with a persistent
    # frame buffer (Batch) override these to write payload bytes in place.

    def begin_append(self) -> None:
        """Open one cycle's append window."""
        self._raw_items = []

    def append_raw(self, type_id: int, core_id: int, order_tag: int,
                   payload: PayloadLike, encoding: int = ENC_FULL) -> None:
        """Append one pre-encoded payload to the open window."""
        self._raw_items.append(
            WireItem(type_id, core_id, order_tag, payload, encoding))

    def append_units(self, cls: type, core_id: int, order_tag: int,
                     units) -> None:
        """Append one full-encoded event given its flat unit tuple."""
        self._raw_items.append(
            WireItem(cls.DESCRIPTOR.event_id, core_id, order_tag,
                     cls._STRUCT.pack(*units)))

    def end_append(self) -> List[Transfer]:
        """Close the window; return any transfers now ready."""
        items = self._raw_items
        if not items:
            return []
        self._raw_items = []
        return self.pack_cycle(items)


class Unpacker:
    """Interface: reconstruct wire items from received transfers.

    Payloads are ``memoryview`` slices of ``transfer.data``, valid for as
    long as they are referenced (each transfer owns immutable ``bytes``).
    """

    def unpack(self, transfer: Transfer) -> List[WireItem]:
        raise NotImplementedError
