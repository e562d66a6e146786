"""The byte-compare fast path and zero-copy frames (PR 4).

The software drain compares received payload bytes directly against the
REF-side expected encoding and only materialises event objects on
mismatch, NDEs or replay capture; unpackers hand out ``memoryview``
payloads into the transfer buffer.  These tests pin that the fast path is
*observationally identical* to the object-level reference — every
transfer of a wire-tapped run replayed through ``unpack`` →
``Completer.complete`` → ``Checker.process`` on a fresh REF: same
counters on passing runs, same mismatch on fault-injected runs — and
that zero-copy payload views survive arbitrarily many later frames.
"""

import random

import pytest

from repro.comm.fusion.differencing import Completer
from repro.comm.packing import BatchUnpacker, DpicUnpacker
from repro.comm.packing.base import WireItem
from repro.comm.packing.batch import BatchPacker
from repro.core import CONFIG_BNSD, CONFIG_Z, CoSimulation
from repro.core.checker import Checker
from repro.core.framework import REF_MMIO_RANGES
from repro.dut import XIANGSHAN_DEFAULT, fault_by_name
from repro.events import all_event_classes
from repro.isa import assemble
from repro.ref.model import RefModel

# Every written register is live, so any single-write corruption
# propagates to architectural state (same program as test_replay).
WORKLOAD = """
_start:
    li sp, 0x80100000
    li t0, 200
    li t1, 0
loop:
    add t1, t1, t0
    sd t1, -8(sp)
    ld t2, -8(sp)
    add t1, t1, t2
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    ebreak
"""

_UNPACKERS = {"batch": BatchUnpacker, "dpic": DpicUnpacker}


def _run_tapped(config, fault=None, trigger=300):
    """A default run with every transfer it sent recorded."""
    cosim = CoSimulation(XIANGSHAN_DEFAULT, config, assemble(WORKLOAD))
    if fault is not None:
        fault_by_name(fault).install(cosim.dut.cores[0], trigger)
    wire = []
    send_all = cosim.channel.send_all

    def tap(transfers):
        wire.extend(transfers)
        return send_all(transfers)

    cosim.channel.send_all = tap
    return cosim.run(max_cycles=60_000), wire


def _reference_check(config, wire):
    """The object-level reference: every item completed into an event
    and checked field by field on a fresh REF.  Returns the checker's
    counters, the items consumed and the first mismatch."""
    ref = RefModel(0, mmio_ranges=REF_MMIO_RANGES)
    ref.load_image(assemble(WORKLOAD))
    checker = Checker(ref, 0)
    completer = Completer()
    unpacker = _UNPACKERS[config.packing]()
    transmitted = 0
    for transfer in wire:
        checker.counters.sw_dispatches += 1
        for item in unpacker.unpack(transfer):
            transmitted += 1
            mismatch = checker.process(completer.complete(item))
            if mismatch is not None:
                return checker.counters, transmitted, mismatch
    return checker.counters, transmitted, None


def _software_work(counters, transmitted):
    return (counters.sw_dispatches, counters.sw_events_checked,
            counters.sw_bytes_checked, counters.sw_ref_steps, transmitted)


def _mismatch_key(mismatch):
    return (mismatch.core_id, mismatch.slot, type(mismatch.event).__name__,
            mismatch.field_name, mismatch.expected, mismatch.actual)


class TestFastCompareEquivalence:
    @staticmethod
    def _assert_passing_run_matches_reference(config):
        fast, wire = _run_tapped(config)
        counters, transmitted, mismatch = _reference_check(config, wire)
        assert fast.passed and mismatch is None
        assert (_software_work(fast.stats.counters,
                               fast.stats.events_transmitted)
                == _software_work(counters, transmitted))
        assert counters.sw_events_checked > 0

    def test_passing_run_identical_counters(self):
        self._assert_passing_run_matches_reference(CONFIG_BNSD)

    @pytest.mark.parametrize("fault", [
        "control_flow_wdata", "store_queue_mismatch", "sbuffer_lost_bytes",
    ])
    def test_fault_detected_identically(self, fault):
        fast, wire = _run_tapped(CONFIG_BNSD, fault=fault)
        _counters, transmitted, reference = _reference_check(CONFIG_BNSD,
                                                             wire)
        assert fast.mismatch is not None and reference is not None
        # The fast path materialises the event object on divergence: the
        # report must be as rich as the object-level one.
        assert fast.mismatch.event is not None
        assert fast.debug_report is not None
        assert _mismatch_key(fast.mismatch) == _mismatch_key(reference)
        assert fast.stats.events_transmitted == transmitted

    def test_baseline_config_also_equivalent(self):
        self._assert_passing_run_matches_reference(CONFIG_Z)


def _random_items(count, seed):
    rng = random.Random(seed)
    classes = all_event_classes()
    items = []
    for tag in range(count):
        cls = rng.choice(classes)
        event = cls(core_id=rng.randrange(2), order_tag=tag)
        items.append(WireItem.from_event(event))
    return items


class TestZeroCopyLifetime:
    def test_views_survive_later_frames(self):
        """Payload views into a transfer stay valid after the packer has
        built arbitrarily many later frames (buffer-reuse hazard)."""
        packer = BatchPacker(frame_size=512)
        unpacker = BatchUnpacker()
        kept = []  # (WireItem view, expected payload bytes)
        for batch in range(20):
            items = _random_items(8, seed=batch)
            transfers = packer.pack_cycle(items) + packer.flush()
            for transfer in transfers:
                for item in unpacker.unpack(transfer):
                    kept.append((item, bytes(item.payload)))
        assert len(kept) >= 100
        for item, expected in kept:
            assert isinstance(item.payload, memoryview)
            assert bytes(item.payload) == expected
            # The view still decodes into a well-formed event.
            event = item.to_event()
            assert event.encode_payload() == expected
