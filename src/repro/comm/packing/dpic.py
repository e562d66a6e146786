"""Baseline DiffTest transport: one DPI-C call per event.

Every verification event is transmitted through its own interface call
with a 6-byte header (type, core, order tag) plus an encoding byte —
the unoptimised configuration (``DIFF_CONFIG=Z``) whose startup cost
dominates Figure 2.
"""

from __future__ import annotations

import struct
from typing import List

from .base import Packer, Transfer, TransferDecodeError, Unpacker, WireItem

_HEADER = struct.Struct("<BBIB")  # type, core, tag, encoding


def encode_item(item: WireItem) -> bytes:
    return _HEADER.pack(item.type_id, item.core_id, item.order_tag,
                        item.encoding) + item.payload


def decode_item(data, offset: int, payload_len: int) -> WireItem:
    """Decode one item from ``data`` (``bytes`` or ``memoryview``).

    The payload is sliced from ``data`` as-is — pass a ``memoryview`` for
    a zero-copy payload, ``bytes`` for an owned copy.
    """
    type_id, core_id, tag, encoding = _HEADER.unpack_from(data, offset)
    start = offset + _HEADER.size
    return WireItem(type_id, core_id, tag, data[start : start + payload_len],
                    encoding)


ITEM_HEADER_SIZE = _HEADER.size


class DpicPacker(Packer):
    """One transfer per event — no packing at all."""

    name = "dpic"

    def pack_cycle(self, items: List[WireItem]) -> List[Transfer]:
        transfers = []
        for item in items:
            transfer = Transfer(encode_item(item), items=1)
            self.stats.on_transfer(transfer)
            self.stats.payload_bytes += len(item.payload)
            transfers.append(transfer)
        return transfers


class DpicUnpacker(Unpacker):
    """Each transfer holds exactly one item."""

    def unpack(self, transfer: Transfer) -> List[WireItem]:
        data = transfer.data
        payload_len = len(data) - ITEM_HEADER_SIZE
        if payload_len < 0:
            raise TransferDecodeError(
                "dpic",
                f"truncated item: expected at least {ITEM_HEADER_SIZE} "
                f"header bytes, got {len(data)}",
                offset=len(data), expected=ITEM_HEADER_SIZE,
                actual=len(data))
        return [decode_item(memoryview(data), 0, payload_len)]
