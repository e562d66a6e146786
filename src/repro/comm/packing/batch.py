"""Batch: tight packing of structurally diverse events (Section 4.2).

Batch exploits *structural semantics* — every event type's length and
layout are known to both sides — to pack variable-length events with no
bubbles, at three levels:

1. **Type level** — valid events of one type within a cycle are compacted
   in parallel by a mux tree with per-entry prefix-valid counters
   (:func:`mux_tree_pack` simulates the hardware structure of Figure 7).
2. **Cycle level** — per-type blocks are concatenated with offsets
   computed as the running sum of preceding block lengths; a metadata
   record (type, core, count) describes each block.
3. **Transmission level** — cycle packets are assembled into fixed-size
   frames; a cycle packet that does not fit is *split at event
   boundaries*, filling the current frame completely (Figure 6).

The software side (:class:`BatchUnpacker`) walks the metadata, computes
each block's offset from the accumulated lengths, and invokes the event
type's parser to reconstruct the original structures.

Zero-copy frame assembly
------------------------

:class:`BatchPacker` serialises directly into one persistent,
preallocated ``bytearray`` with ``Struct.pack_into`` — there is no
per-event ``bytearray +=`` growth and no deferred block list to re-walk
at frame close.  Block headers are written when a (type, core) run
starts and their event count is back-patched when the run ends; payload
and metadata byte counts are maintained incrementally, so closing a
frame is a single ``bytes(...)`` copy of the filled prefix.  The wire
format is byte-identical to the previous implementation.
"""

from __future__ import annotations

import struct
from typing import List, Optional, Sequence

from .base import ENC_FULL, Packer, Transfer, TransferDecodeError, \
    Unpacker, WireItem

#: Fixed transmission-frame size (the paper's example: 4 KB transfers).
DEFAULT_FRAME_SIZE = 4096

_FRAME_HEADER = struct.Struct("<H")  # number of blocks in the frame
_BLOCK_HEADER = struct.Struct("<BBH")  # type, core, count
_EVENT_HEADER = struct.Struct("<IBH")  # tag, encoding, payload length

FRAME_HEADER_SIZE = _FRAME_HEADER.size
BLOCK_HEADER_SIZE = _BLOCK_HEADER.size
EVENT_HEADER_SIZE = _EVENT_HEADER.size

#: Offset of the u16 count field inside a block header ("<BBH": B, B, H).
_BLOCK_COUNT_OFFSET = 2
_PACK_U16 = struct.Struct("<H").pack_into


def mux_tree_pack(slots: Sequence[Optional[WireItem]]) -> List[WireItem]:
    """Type-level packing: compact valid entries with prefix counters.

    Simulates the hardware mux tree of Figure 7: entry ``k`` of the output
    is the input whose prefix-valid count equals ``k`` — all selects are
    computable in parallel in hardware.  Functionally equal to filtering
    out ``None`` (a property the tests verify), but written the way the
    hardware computes it.
    """
    prefix = 0
    selected: List[Optional[WireItem]] = [None] * len(slots)
    for slot in slots:
        valid = slot is not None
        if valid:
            # This entry's prefix-valid count is `prefix`; it becomes the
            # (prefix+1)-th packed entry.
            selected[prefix] = slot
            prefix += 1
    return [item for item in selected[:prefix]]


class BatchPacker(Packer):
    """The three-level Batch packer (persistent-buffer implementation)."""

    name = "batch"

    def __init__(self, frame_size: int = DEFAULT_FRAME_SIZE) -> None:
        super().__init__()
        self.frame_size = frame_size
        self._buf = bytearray(max(frame_size, FRAME_HEADER_SIZE))
        self._pos = FRAME_HEADER_SIZE  # frame header is patched at close
        self._block_count = 0
        self._run_start = -1  # offset of the open block's header
        self._run_type = -1
        self._run_core = -1
        self._run_count = 0
        self._frame_items = 0
        self._frame_payload = 0  # incremental payload-byte counter
        self._append_transfers: List[Transfer] = []

    # ------------------------------------------------------------------
    def pack_cycle(self, items: List[WireItem]) -> List[Transfer]:
        """Append one cycle's events; emit frames that became full."""
        transfers: List[Transfer] = []
        for item in items:
            self.stats.payload_bytes += len(item.payload)
            self._append(item, transfers)
        return transfers

    def _append(self, item: WireItem, transfers: List[Transfer]) -> None:
        payload_len = len(item.payload)
        pos = self._reserve(item.type_id, item.core_id, item.order_tag,
                            item.encoding, payload_len, transfers)
        self._buf[pos : pos + payload_len] = item.payload

    def _reserve(self, type_id: int, core_id: int, order_tag: int,
                 encoding: int, payload_len: int,
                 transfers: List[Transfer]) -> int:
        """Write block/event headers for one event; return its payload
        offset in ``self._buf`` (``self._pos`` already advanced past it).

        Callers must re-read ``self._buf`` *after* this returns — frame
        splits and oversized events may have swapped or grown the buffer.
        """
        needed = EVENT_HEADER_SIZE + payload_len
        same_run = (self._run_count > 0 and self._run_type == type_id
                    and self._run_core == core_id)
        if not same_run:
            needed += BLOCK_HEADER_SIZE
        if self._pos + needed > self.frame_size and self._pos \
                > FRAME_HEADER_SIZE:
            # Split at the event boundary: close this frame, continue the
            # cycle packet in the next one.
            transfers.append(self._close_frame())
            same_run = False
            needed = BLOCK_HEADER_SIZE + EVENT_HEADER_SIZE + payload_len
        buf = self._buf
        pos = self._pos
        if pos + needed > len(buf):
            # Oversized event on an empty frame: grow the scratch buffer
            # (the resulting over-budget frame is allowed by the format).
            self._buf = buf = buf.ljust(max(len(buf) * 2, pos + needed), b"\0")
        if not same_run:
            self._end_run()
            _BLOCK_HEADER.pack_into(buf, pos, type_id, core_id, 0)
            self._run_start = pos
            self._run_type = type_id
            self._run_core = core_id
            self._block_count += 1
            pos += BLOCK_HEADER_SIZE
        _EVENT_HEADER.pack_into(buf, pos, order_tag, encoding, payload_len)
        pos += EVENT_HEADER_SIZE
        self._pos = pos + payload_len
        self._run_count += 1
        self._frame_items += 1
        self._frame_payload += payload_len
        return pos

    # ------------------------------------------------------------------
    # Append-raw entry point: serialise straight into the frame buffer.
    # ------------------------------------------------------------------
    def begin_append(self) -> None:
        self._append_transfers = []

    def append_raw(self, type_id: int, core_id: int, order_tag: int,
                   payload, encoding: int = ENC_FULL) -> None:
        payload_len = len(payload)
        self.stats.payload_bytes += payload_len
        pos = self._reserve(type_id, core_id, order_tag, encoding,
                            payload_len, self._append_transfers)
        self._buf[pos : pos + payload_len] = payload

    def append_units(self, cls: type, core_id: int, order_tag: int,
                     units) -> None:
        packer = cls._STRUCT
        self.stats.payload_bytes += packer.size
        pos = self._reserve(cls.DESCRIPTOR.event_id, core_id, order_tag,
                            ENC_FULL, packer.size, self._append_transfers)
        packer.pack_into(self._buf, pos, *units)

    def end_append(self) -> List[Transfer]:
        transfers = self._append_transfers
        self._append_transfers = []
        return transfers

    def _end_run(self) -> None:
        """Back-patch the open block header's event count."""
        if self._run_count:
            _PACK_U16(self._buf, self._run_start + _BLOCK_COUNT_OFFSET,
                      self._run_count)
            self._run_count = 0

    def _close_frame(self) -> Transfer:
        self._end_run()
        _FRAME_HEADER.pack_into(self._buf, 0, self._block_count)
        data = bytes(memoryview(self._buf)[: self._pos])
        transfer = Transfer(data, items=self._frame_items)
        self.stats.on_transfer(transfer)
        self.stats.meta_bytes += self._pos - self._frame_payload
        self._pos = FRAME_HEADER_SIZE
        self._block_count = 0
        self._run_start = -1
        self._run_type = -1
        self._run_core = -1
        self._frame_items = 0
        self._frame_payload = 0
        return transfer

    def flush(self) -> List[Transfer]:
        if not self._block_count:
            return []
        return [self._close_frame()]


class BatchUnpacker(Unpacker):
    """Meta-guided dynamic unpacking (Figure 6, right).

    The parser reads each block's metadata, derives the payload offsets
    from the running length sum, and reconstructs events of the block's
    type.  Payloads are ``memoryview`` slices of ``transfer.data``.
    """

    def unpack(self, transfer: Transfer) -> List[WireItem]:
        data = transfer.data
        view = memoryview(data)
        offset = 0
        # The walk itself carries no per-event bounds checks (hot loop);
        # a header that crosses the end of the frame raises struct.error,
        # and a payload that does so leaves ``offset`` past the end —
        # both are converted to a structured TransferDecodeError below.
        try:
            (block_count,) = _FRAME_HEADER.unpack_from(data, 0)
            offset = FRAME_HEADER_SIZE
            items: List[WireItem] = []
            append = items.append
            for _ in range(block_count):
                type_id, core_id, count = _BLOCK_HEADER.unpack_from(data,
                                                                    offset)
                offset += BLOCK_HEADER_SIZE
                for _ in range(count):
                    tag, encoding, length = _EVENT_HEADER.unpack_from(data,
                                                                      offset)
                    offset += EVENT_HEADER_SIZE
                    append(WireItem(type_id, core_id, tag,
                                    view[offset : offset + length], encoding))
                    offset += length
        except struct.error as exc:
            raise TransferDecodeError(
                "batch",
                f"truncated frame: a header crosses the end of the "
                f"{len(data)}-byte frame ({exc})",
                offset=offset, actual=len(data)) from exc
        if offset != len(data):
            raise TransferDecodeError(
                "batch",
                f"frame parse error: consumed {offset} of "
                f"{len(data)} bytes",
                offset=min(offset, len(data)), expected=offset,
                actual=len(data))
        return items
