"""Trace dump / reload: iterative debugging support (Section 5).

Recompiling and re-running the (unchanged) DUT while iterating on
verification logic wastes time; DiffTest-H instead dumps the original
verification events captured from the DUT on the first run (the "DUT
trace") and later regenerates the verification flow from the trace alone.

The dump format is a simple length-prefixed binary stream of encoded
events with a per-cycle header record, so traces are portable and
append-friendly.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Iterator, List, Optional, Tuple, Union

from ..events import VerificationEvent
from ..ref.model import RefModel

_MAGIC = b"DTHT"
_VERSION = 1
_HEADER = struct.Struct("<4sHH")
_CYCLE = struct.Struct("<IH")  # cycle number, event count
_EVENT = struct.Struct("<H")  # encoded-event length


class TraceWriter:
    """Streams (cycle, events) records into a binary trace."""

    def __init__(self, sink: Union[str, BinaryIO]) -> None:
        if isinstance(sink, str):
            self._file: BinaryIO = open(sink, "wb")
            self._owns = True
        else:
            self._file = sink
            self._owns = False
        self._file.write(_HEADER.pack(_MAGIC, _VERSION, 0))
        self.cycles = 0
        self.events = 0

    def write_cycle(self, cycle: int, events: List[VerificationEvent]) -> None:
        self._file.write(_CYCLE.pack(cycle, len(events)))
        for event in events:
            encoded = event.encode()
            self._file.write(_EVENT.pack(len(encoded)))
            self._file.write(encoded)
        self.cycles += 1
        self.events += len(events)

    def close(self) -> None:
        if self._owns:
            self._file.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceReader:
    """Iterates (cycle, events) records from a binary trace.

    Malformed input — an empty file, a truncated header, a cycle record
    cut off mid-event — raises :class:`ValueError` naming the byte
    offset and what was expected there, never a bare ``struct.error``.
    """

    def __init__(self, source: Union[str, bytes, BinaryIO]) -> None:
        if isinstance(source, str):
            self._file: BinaryIO = open(source, "rb")
            self._owns = True
        elif isinstance(source, bytes):
            self._file = io.BytesIO(source)
            self._owns = False
        else:
            self._file = source
            self._owns = False
        self._offset = 0
        header = self._read_exact(_HEADER.size, "trace header")
        magic, version, _flags = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError("not a DiffTest-H trace")
        if version != _VERSION:
            raise ValueError(f"unsupported trace version {version}")

    def _read_exact(self, size: int, what: str) -> bytes:
        """Read exactly ``size`` bytes or fail with offset context."""
        data = self._file.read(size)
        if len(data) != size:
            raise ValueError(
                f"truncated trace: expected {size} bytes for {what} at "
                f"byte offset {self._offset}, got {len(data)}")
        self._offset += size
        return data

    def __iter__(self) -> Iterator[Tuple[int, List[VerificationEvent]]]:
        while True:
            header = self._file.read(_CYCLE.size)
            if not header:
                return  # clean end of trace (cycle boundary)
            if len(header) < _CYCLE.size:
                raise ValueError(
                    f"truncated trace: expected {_CYCLE.size} bytes for "
                    f"cycle record at byte offset {self._offset}, got "
                    f"{len(header)}")
            self._offset += _CYCLE.size
            cycle, count = _CYCLE.unpack(header)
            events = []
            for index in range(count):
                length_bytes = self._read_exact(
                    _EVENT.size, f"event {index + 1}/{count} length of "
                                 f"cycle {cycle}")
                (length,) = _EVENT.unpack(length_bytes)
                payload = self._read_exact(
                    length, f"event {index + 1}/{count} payload of "
                            f"cycle {cycle}")
                events.append(VerificationEvent.decode(payload))
            yield cycle, events

    def close(self) -> None:
        if self._owns:
            self._file.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay_trace(source, image: bytes,
                 mmio_ranges=None) -> "TraceCheckResult":
    """Drive the checker from a dumped trace, no DUT required.

    This is the toolkit's lightweight iteration loop: the verification
    logic (fusion, packing, checking) runs against the recorded event
    stream, with a fresh REF executing the same program image.
    """
    from ..core.checker import Checker
    from ..core.framework import REF_MMIO_RANGES

    ref = RefModel(mmio_ranges=mmio_ranges or REF_MMIO_RANGES)
    ref.load_image(image)
    checker = Checker(ref)
    cycles = 0
    events = 0
    mismatch = None
    with TraceReader(source) as reader:
        for _cycle, cycle_events in reader:
            cycles += 1
            for event in cycle_events:
                events += 1
                mismatch = checker.process(event)
                if mismatch is not None:
                    return TraceCheckResult(cycles, events, mismatch,
                                            checker.finished)
    return TraceCheckResult(cycles, events, mismatch, checker.finished)


class TraceCheckResult:
    """Outcome of a trace-driven checking run."""

    def __init__(self, cycles: int, events: int, mismatch,
                 exit_code: Optional[int]) -> None:
        self.cycles = cycles
        self.events = events
        self.mismatch = mismatch
        self.exit_code = exit_code

    @property
    def passed(self) -> bool:
        return self.mismatch is None and self.exit_code == 0
