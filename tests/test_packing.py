"""Tests for the packing schemes: DPI-C baseline, fixed-offset, Batch."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.events as EV
from repro.comm.packing import (
    BatchPacker,
    BatchUnpacker,
    DpicPacker,
    DpicUnpacker,
    FixedLayout,
    FixedPacker,
    FixedUnpacker,
    Transfer,
    TransferDecodeError,
    WireItem,
    mux_tree_pack,
)
from repro.comm.packing.batch import (
    BLOCK_HEADER_SIZE,
    EVENT_HEADER_SIZE,
    FRAME_HEADER_SIZE,
)
from repro.events import all_event_classes


def items_for_cycle(tag0: int = 0, core: int = 0):
    """A representative mixed cycle: commits, writebacks, loads, snapshots."""
    events = []
    for i in range(3):
        tag = tag0 + i
        events.append(EV.IntWriteback(core_id=core, order_tag=tag,
                                      addr=i + 1, data=100 + i))
        events.append(EV.InstrCommit(core_id=core, order_tag=tag,
                                     pc=0x80000000 + 4 * i, instr=0x13,
                                     wdata=100 + i, rd=i + 1,
                                     flags=EV.FLAG_RF_WEN, fused_count=1))
        events.append(EV.LoadEvent(core_id=core, order_tag=tag,
                                   paddr=0x80200000 + 8 * i, data=7,
                                   op_type=8, fu_type=0, mmio=0))
    events.append(EV.IntRegState(core_id=core, order_tag=tag0 + 2,
                                 regs=tuple(range(32))))
    return [WireItem.from_event(event) for event in events]


def roundtrip(packer, unpacker, cycles):
    received = []
    for items in cycles:
        for transfer in packer.pack_cycle(items):
            received.extend(unpacker.unpack(transfer))
    for transfer in packer.flush():
        received.extend(unpacker.unpack(transfer))
    return received


class TestDpic:
    def test_one_transfer_per_event(self):
        packer = DpicPacker()
        items = items_for_cycle()
        transfers = packer.pack_cycle(items)
        assert len(transfers) == len(items)
        assert packer.stats.transfers == len(items)

    def test_roundtrip(self):
        items = items_for_cycle()
        received = roundtrip(DpicPacker(), DpicUnpacker(), [items])
        assert received == items

    def test_wire_size_includes_header(self):
        packer = DpicPacker()
        item = WireItem.from_event(EV.FpCsrState())
        (transfer,) = packer.pack_cycle([item])
        assert transfer.size == 7 + EV.FpCsrState.payload_size()


class TestFixed:
    @pytest.fixture()
    def layout(self):
        return FixedLayout(all_event_classes(), num_cores=1)

    def test_packet_size_is_static(self, layout):
        packer = FixedPacker(layout)
        small = packer.pack_cycle(items_for_cycle()[:2])
        assert small[0].size == layout.packet_size

    def test_bubbles_dominate_sparse_cycles(self, layout):
        packer = FixedPacker(layout)
        packer.pack_cycle(items_for_cycle())
        # The paper reports >60% bubbles for fixed-offset packing.
        assert packer.stats.utilization < 0.4

    def test_roundtrip_orders_by_tag(self, layout):
        items = items_for_cycle()
        received = roundtrip(FixedPacker(layout), FixedUnpacker(layout),
                             [items])
        assert sorted(i.order_tag for i in received) == \
            [i.order_tag for i in received]
        assert {(i.type_id, i.order_tag, i.payload) for i in received} == \
            {(i.type_id, i.order_tag, i.payload) for i in items}

    def test_overflow_splits_in_program_order(self, layout):
        # More commits than InstrCommit has hardware slots (8).
        items = []
        for tag in range(10):
            items.append(WireItem.from_event(EV.InstrCommit(
                order_tag=tag, pc=tag, fused_count=1)))
        packer = FixedPacker(layout)
        transfers = packer.pack_cycle(items)
        assert len(transfers) == 2
        unpacker = FixedUnpacker(layout)
        first = unpacker.unpack(transfers[0])
        second = unpacker.unpack(transfers[1])
        assert max(i.order_tag for i in first) < min(i.order_tag
                                                     for i in second)

    def test_unknown_type_rejected(self):
        layout = FixedLayout([EV.InstrCommit], num_cores=1)
        packer = FixedPacker(layout)
        with pytest.raises(ValueError, match="not in the fixed layout"):
            packer.pack_cycle([WireItem.from_event(EV.LoadEvent())])

    def test_dual_core_regions(self):
        layout = FixedLayout(all_event_classes(), num_cores=2)
        items = [WireItem.from_event(EV.InstrCommit(core_id=c, order_tag=c))
                 for c in (0, 1)]
        received = roundtrip(FixedPacker(layout), FixedUnpacker(layout),
                             [items])
        assert {i.core_id for i in received} == {0, 1}


class TestMuxTree:
    def test_compacts_valid_entries(self):
        a = WireItem.from_event(EV.InstrCommit(order_tag=1))
        b = WireItem.from_event(EV.InstrCommit(order_tag=2))
        assert mux_tree_pack([None, a, None, b, None]) == [a, b]

    def test_empty(self):
        assert mux_tree_pack([None, None]) == []

    @given(st.lists(st.one_of(st.none(), st.integers(0, 100)), max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_equivalent_to_filter(self, slots):
        items = [None if s is None else
                 WireItem.from_event(EV.IntWriteback(order_tag=s))
                 for s in slots]
        assert mux_tree_pack(items) == [i for i in items if i is not None]


class TestBatch:
    def test_tight_packing_no_bubbles(self):
        packer = BatchPacker()
        packer.pack_cycle(items_for_cycle())
        for transfer in packer.flush():
            assert transfer.bubbles == 0
        assert packer.stats.utilization == 1.0

    def test_roundtrip_exact(self):
        cycles = [items_for_cycle(0), items_for_cycle(4), items_for_cycle(8)]
        received = roundtrip(BatchPacker(), BatchUnpacker(), cycles)
        flat = [item for cycle in cycles for item in cycle]
        assert received == flat

    def test_multi_cycle_packing_reduces_transfers(self):
        packer = BatchPacker(frame_size=4096)
        total_transfers = 0
        for start in range(0, 40, 4):
            total_transfers += len(packer.pack_cycle(items_for_cycle(start)))
        total_transfers += len(packer.flush())
        dpic_transfers = 10 * len(items_for_cycle())
        assert total_transfers < dpic_transfers / 10

    def test_frames_respect_size_limit(self):
        packer = BatchPacker(frame_size=1024)
        transfers = []
        for start in range(0, 64, 4):
            transfers.extend(packer.pack_cycle(items_for_cycle(start)))
        transfers.extend(packer.flush())
        for transfer in transfers[:-1]:
            assert transfer.size <= 1024

    def test_oversized_event_gets_own_frame(self):
        packer = BatchPacker(frame_size=256)
        big = WireItem.from_event(EV.VecRegState())  # 1 KiB payload
        transfers = packer.pack_cycle([big]) + packer.flush()
        assert len(transfers) == 1
        received = BatchUnpacker().unpack(transfers[0])
        assert received == [big]

    def test_split_at_event_boundary(self):
        # Frame that holds ~1.5 IntRegState events: the block must split.
        item_size = EVENT_HEADER_SIZE + EV.IntRegState.payload_size()
        frame = FRAME_HEADER_SIZE + BLOCK_HEADER_SIZE + int(item_size * 1.5)
        packer = BatchPacker(frame_size=frame)
        items = [WireItem.from_event(EV.IntRegState(order_tag=i))
                 for i in range(3)]
        transfers = packer.pack_cycle(items) + packer.flush()
        assert len(transfers) >= 2
        received = []
        for transfer in transfers:
            received.extend(BatchUnpacker().unpack(transfer))
        assert received == items

    def test_meta_bytes_tracked(self):
        packer = BatchPacker()
        packer.pack_cycle(items_for_cycle())
        packer.flush()
        assert packer.stats.meta_bytes > 0
        assert packer.stats.meta_bytes < packer.stats.payload_bytes

    def test_parse_error_on_corrupt_frame(self):
        packer = BatchPacker()
        packer.pack_cycle(items_for_cycle())
        (transfer,) = packer.flush()
        from repro.comm.packing.base import Transfer

        corrupt = Transfer(transfer.data + b"\x00\x00\x00")
        with pytest.raises(ValueError, match="frame parse error"):
            BatchUnpacker().unpack(corrupt)

    def test_interleaved_cores_roundtrip(self):
        cycles = [items_for_cycle(0, core=0) + items_for_cycle(0, core=1)]
        received = roundtrip(BatchPacker(), BatchUnpacker(), cycles)
        assert received == cycles[0]


@given(st.lists(st.lists(st.tuples(st.integers(0, 31), st.integers(0, 1000)),
                         max_size=6), max_size=6))
@settings(max_examples=60, deadline=None)
def test_batch_roundtrip_property(cycle_specs):
    """Any mix of default-valued events round-trips through Batch."""
    classes = all_event_classes()
    cycles = []
    for spec in cycle_specs:
        cycles.append([
            WireItem.from_event(classes[type_index](order_tag=tag))
            for type_index, tag in spec
        ])
    packer = BatchPacker(frame_size=2048)
    unpacker = BatchUnpacker()
    received = roundtrip(packer, unpacker, cycles)
    assert received == [item for cycle in cycles for item in cycle]


class TestTransferDecodeErrors:
    def test_dpic_truncated(self):
        with pytest.raises(TransferDecodeError) as excinfo:
            DpicUnpacker().unpack(Transfer(b"\x01\x02"))
        err = excinfo.value
        assert err.scheme == "dpic"
        assert err.offset == 2 and err.actual == 2
        assert err.expected > 2
        assert "byte offset" in str(err)

    def test_batch_truncated_header(self):
        # Frame header says 1 block but the block header is cut off.
        with pytest.raises(TransferDecodeError) as excinfo:
            BatchUnpacker().unpack(Transfer(b"\x01\x00\x05"))
        err = excinfo.value
        assert err.scheme == "batch"
        assert err.actual == 3

    def test_batch_trailing_garbage(self):
        with pytest.raises(TransferDecodeError, match="frame parse error"):
            BatchUnpacker().unpack(Transfer(b"\x00\x00" + b"junk"))

    def test_fixed_size_mismatch(self):
        layout = FixedLayout([EV.InstrCommit], num_cores=1)
        with pytest.raises(TransferDecodeError) as excinfo:
            FixedUnpacker(layout).unpack(Transfer(b"\x00" * 7))
        err = excinfo.value
        assert err.scheme == "fixed"
        assert err.expected == layout.packet_size and err.actual == 7

    def test_decode_error_is_value_error(self):
        assert issubclass(TransferDecodeError, ValueError)
