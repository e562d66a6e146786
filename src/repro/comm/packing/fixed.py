"""Fixed-offset packing: the existing scheme Batch improves upon.

Every enabled event type gets a statically allocated region of
``instances`` slots per core in each cycle packet (Figure 5, left).  The
packer writes valid events into their assigned slots and *pads invalid
slots with bubbles* so the offsets of later regions stay fixed; the
parser always reads each region at the same offset.

The cost is bandwidth: with DiffTest-like event coverage more than half
the packet is bubbles, so transmitting the same valid events needs ~1.7x
the bytes (and proportionally more fixed-size packets) compared to Batch.
"""

from __future__ import annotations

import struct
from typing import Dict, List, Sequence, Tuple, Type

from ...events import VerificationEvent
from .base import Packer, Transfer, TransferDecodeError, Unpacker, WireItem

_SLOT_HEADER = struct.Struct("<BIBH")  # valid, tag, encoding, payload length
SLOT_HEADER_SIZE = _SLOT_HEADER.size


class FixedLayout:
    """The static slot layout shared by packer and parser."""

    def __init__(self, event_classes: Sequence[Type[VerificationEvent]],
                 num_cores: int = 1) -> None:
        self.num_cores = num_cores
        self.regions: List[Tuple[int, int, int, int]] = []  # (type, core, offset, slots)
        offset = 0
        self._offset_of: Dict[Tuple[int, int], int] = {}
        self._payload_of: Dict[int, int] = {}
        for cls in event_classes:
            descriptor = cls.DESCRIPTOR
            self._payload_of[descriptor.event_id] = cls.payload_size()
            slot = SLOT_HEADER_SIZE + cls.payload_size()
            for core in range(num_cores):
                self.regions.append(
                    (descriptor.event_id, core, offset, descriptor.instances))
                self._offset_of[(descriptor.event_id, core)] = offset
                offset += slot * descriptor.instances
        self.packet_size = offset

    def region_offset(self, type_id: int, core_id: int) -> int:
        return self._offset_of[(type_id, core_id)]

    def slot_size(self, type_id: int) -> int:
        return SLOT_HEADER_SIZE + self._payload_of[type_id]

    def payload_size(self, type_id: int) -> int:
        return self._payload_of[type_id]


class FixedPacker(Packer):
    """One fixed-layout packet per cycle (plus overflow packets when a
    cycle produces more events of a type than its hardware slots)."""

    name = "fixed"

    def __init__(self, layout: FixedLayout) -> None:
        super().__init__()
        self.layout = layout

    def pack_cycle(self, items: List[WireItem]) -> List[Transfer]:
        if not items:
            return []
        # Split the cycle into packets *in program order*: a packet closes
        # when the next event's hardware slots are exhausted.  This models
        # the structural stall a real fixed-slot interface exhibits and
        # keeps the transmission order consistent with the checking order.
        transfers: List[Transfer] = []
        current: List[WireItem] = []
        used: Dict[Tuple[int, int], int] = {}
        instances = {
            (type_id, core_id): slots
            for type_id, core_id, _offset, slots in self.layout.regions
        }
        for item in items:
            key = (item.type_id, item.core_id)
            if key not in instances:
                raise ValueError(
                    f"event type {item.type_id} not in the fixed layout")
            if used.get(key, 0) >= instances[key]:
                transfers.append(self._one_packet(current))
                current = []
                used = {}
            current.append(item)
            used[key] = used.get(key, 0) + 1
        if current:
            transfers.append(self._one_packet(current))
        return transfers

    def _one_packet(self, items: List[WireItem]) -> Transfer:
        layout = self.layout
        packet = bytearray(layout.packet_size)
        next_slot: Dict[Tuple[int, int], int] = {}
        carried = 0
        payload_bytes = 0
        for item in items:
            key = (item.type_id, item.core_id)
            slot = next_slot.get(key, 0)
            next_slot[key] = slot + 1
            base = layout.region_offset(*key) + slot * layout.slot_size(
                item.type_id)
            if len(item.payload) > layout.payload_size(item.type_id):
                raise ValueError("payload exceeds fixed slot")
            _SLOT_HEADER.pack_into(packet, base, 1, item.order_tag,
                                   item.encoding, len(item.payload))
            start = base + SLOT_HEADER_SIZE
            packet[start : start + len(item.payload)] = item.payload
            carried += 1
            payload_bytes += len(item.payload)
        transfer = Transfer(
            bytes(packet),
            items=carried,
            bubbles=layout.packet_size - payload_bytes - carried * SLOT_HEADER_SIZE,
        )
        self.stats.on_transfer(transfer)
        self.stats.payload_bytes += payload_bytes
        return transfer


class FixedUnpacker(Unpacker):
    """Reads every region at its fixed offset, extracting valid slots."""

    def __init__(self, layout: FixedLayout) -> None:
        self.layout = layout

    def unpack(self, transfer: Transfer) -> List[WireItem]:
        layout = self.layout
        data = transfer.data
        if len(data) != layout.packet_size:
            raise TransferDecodeError(
                "fixed",
                f"packet size mismatch: layout expects "
                f"{layout.packet_size} bytes, got {len(data)}",
                offset=min(len(data), layout.packet_size),
                expected=layout.packet_size, actual=len(data))
        view = memoryview(data)
        items: List[WireItem] = []
        for type_id, core_id, offset, slots in layout.regions:
            slot_size = layout.slot_size(type_id)
            payload_size = layout.payload_size(type_id)
            for slot in range(slots):
                base = offset + slot * slot_size
                valid, tag, encoding, length = _SLOT_HEADER.unpack_from(data, base)
                if not valid:
                    continue
                if length > payload_size:
                    raise TransferDecodeError(
                        "fixed",
                        f"slot payload length {length} exceeds the "
                        f"{payload_size}-byte region of type {type_id}",
                        offset=base, expected=payload_size, actual=length)
                start = base + SLOT_HEADER_SIZE
                items.append(WireItem(type_id, core_id, tag,
                                      view[start : start + length],
                                      encoding))
        # Restore checking order: by tag, with the slot-consuming event
        # (commit/exception/interrupt) after the checks that share its tag
        # would be wrong — consumers advance the REF, so they must come
        # last among same-tag items except TrapFinish, which ends the run.
        items.sort(key=lambda item: (item.order_tag,
                                     item.type_id in _SLOT_CONSUMERS))
        return items


#: Event ids that advance the checker's slot position (see
#: repro.core.checker): InstrCommit, ArchException, ArchInterrupt,
#: TrapFinish.
_SLOT_CONSUMERS = frozenset({0, 1, 2, 3})
