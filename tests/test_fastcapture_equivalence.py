"""Straight-to-wire capture must be byte-identical to the object path.

The contract of :mod:`repro.comm.fastcapture` is *invisibility*: on an
eligible run the monitors serialise raw field values directly into the
packer — no ``VerificationEvent``, no ``WireItem`` — and the resulting
wire stream, counters and reports must match the event-object path bit
for bit.  Every test compares a fast run/stream against a freshly
executed object-path reference, in the style of
``test_jit_equivalence.py``; for whole runs the reference is the same
run pinned to event objects by a test-only fallback reason (patched into
``repro.core.framework``) and to the interpreted DUT by an identity trap
hook, neither of which changes the stream, with the replay window on
and off on both sides.

Coverage map:

* per-class emitter unit tuples vs ``_flatten`` on event objects;
* synthetic event streams for all 32 classes through the capture engine
  vs the legacy fuser+packer pipeline, under ENC_FULL and ENC_DIFF, for
  all three packers, with shared-counter equality;
* the packer append-raw entry vs ``pack_cycle`` on identical items;
* end-to-end co-simulations (all ladder configs, multi-core, restricted
  event sets) with a wire tap asserting frame-level byte identity;
* raw-record Replay vs object Replay: an un-armed mismatching run
  renders the same debug report, the slot-span bound drops the same
  slots, sliced runs fill the rebuilt buffers;
* fallback triggers: obs instrumentation and order-coupled fusion —
  each recorded in ``capture_fallbacks`` — and none under any ladder
  config's defaults, nor for an armed fault (its run is identical fast
  vs pinned);
* ``advance(k); run()`` keeps the open fusion window;
* the process-wide emitter-factory cache: compiled once, shared code,
  private state;
* fast x JIT x slicing stitched identity;
* the monitor enable-memo staleness regression (config reassignment
  between runs must invalidate the per-class cache).
"""

import contextlib
import dataclasses
import random
import struct

import pytest

from repro.comm.fastcapture import (
    FALLBACK_REASONS,
    FastCaptureEngine,
    emitter_factory,
    fallback_reasons,
)
from repro.comm.fusion.differencing import DIFF_MIN_PAYLOAD
from repro.comm.fusion.squash import SquashFuser
from repro.comm.packing import (
    BatchPacker,
    DpicPacker,
    FixedLayout,
    FixedPacker,
    WireItem,
)
from repro.core import (
    CONFIG_B,
    CONFIG_BN,
    CONFIG_BNSD,
    CONFIG_COUPLED,
    CONFIG_FIXED,
    CONFIG_Z,
    LADDER as SHIPPED_LADDER,
    CoSimulation,
)
from repro.dut import NUTSHELL, XIANGSHAN_DEFAULT, XIANGSHAN_DUAL, \
    fault_by_name
from repro.dut.config import DutConfig
from repro.dut.monitor import Monitor
from repro.events import (
    FLAG_SKIP,
    InstrCommit,
    LoadEvent,
    all_event_classes,
)
from repro.isa import assemble
from repro.isa.const import DRAM_BASE
from repro.isa.state import ArchState
from repro.obs import ObsContext
from repro.parallel import epoch_for, sliced_run
from repro.toolkit import render_report
from repro.workloads import build
from tests.conftest import tap_wire

SEED = 0xFA57_CA97

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

PACKERS = ("dpic", "batch", "fixed")
LADDER = (CONFIG_Z, CONFIG_B, CONFIG_BN, CONFIG_BNSD, CONFIG_FIXED)


def _element_limit(code):
    return (1 << (8 * struct.calcsize("<" + code))) - 1


def _random_kwargs(cls, rng):
    kwargs = {}
    for spec in cls.FIELDS:
        limit = _element_limit(spec.code)
        if spec.count == 1:
            kwargs[spec.name] = rng.randint(0, limit)
        else:
            kwargs[spec.name] = tuple(
                rng.randint(0, limit) for _ in range(spec.count))
    return kwargs


# ----------------------------------------------------------------------
# Emitter unit tuples vs object flattening
# ----------------------------------------------------------------------

class _MonitorShim:
    """The two attributes ``emitter_table`` reads off a monitor."""

    def __init__(self, config, core_id):
        self.config = config
        self.core_id = core_id


class _UnitRecorder:
    """A packer that keeps the unit tuples the emitters hand it."""

    def __init__(self):
        self.units = []

    def append_units(self, cls, core_id, tag, units):
        self.units.append(units)


def _capture_units(cls, **kwargs):
    """The flat unit tuple ``cls``'s unfused emitter builds from raw
    keyword arguments."""
    recorder = _UnitRecorder()
    table = FastCaptureEngine(None, recorder).emitter_table(
        _MonitorShim(XIANGSHAN_DUAL, 1))
    table[cls](7, **kwargs)
    (units,) = recorder.units
    return units


@pytest.mark.parametrize("cls", all_event_classes(),
                         ids=lambda c: c.__name__)
def test_capture_units_matches_flatten(cls):
    rng = random.Random(SEED ^ cls.DESCRIPTOR.event_id)
    for _ in range(5):
        kwargs = _random_kwargs(cls, rng)
        units = _capture_units(cls, **kwargs)
        event = cls(core_id=1, order_tag=7, **kwargs)
        assert list(units) == list(event._flatten())
        # The units round-trip through the struct like the object encoding.
        assert cls._STRUCT.pack(*units) == event.encode_payload()


def test_capture_units_rejects_unknown_and_short_fields():
    with pytest.raises(TypeError):
        _capture_units(InstrCommit, pc=4, bogus=1)
    array_cls = next(cls for cls in all_event_classes()
                     if any(spec.count > 1 for spec in cls.FIELDS))
    spec = next(spec for spec in array_cls.FIELDS if spec.count > 1)
    with pytest.raises(ValueError):
        _capture_units(array_cls, **{spec.name: (1, 2)})


def test_capture_units_defaults_match_default_event():
    for cls in all_event_classes():
        event = cls(core_id=0, order_tag=0)
        assert list(_capture_units(cls)) == list(event._flatten())


# ----------------------------------------------------------------------
# Synthetic streams: engine vs legacy fuser+packer, per class
# ----------------------------------------------------------------------

def _make_packer(name, cores=2):
    if name == "batch":
        return BatchPacker(4096)
    if name == "fixed":
        return FixedPacker(FixedLayout(all_event_classes(), cores))
    return DpicPacker()


def _legacy_wire(stream, packer_name, squash, differencing, cores=2,
                 flush_each_cycle=False):
    """Drive (cls, core, tag, kwargs) bundles through the object path."""
    packer = _make_packer(packer_name, cores)
    fuser = SquashFuser(differencing=differencing) if squash else None
    wire = []

    def send(items):
        if items:
            wire.extend(bytes(t.data) for t in packer.pack_cycle(items))

    for bundles in stream:
        for bundle in bundles:
            events = [cls(core_id=core, order_tag=tag, **kwargs)
                      for cls, core, tag, kwargs in bundle]
            if not events:
                continue
            if fuser is not None:
                send(fuser.on_cycle(events))
            else:
                send([WireItem.from_event(event) for event in events])
        if flush_each_cycle and fuser is not None:
            send(fuser.flush())
    if fuser is not None:
        send(fuser.flush())
    wire.extend(bytes(t.data) for t in packer.flush())
    return wire, fuser


def _fast_wire(stream, packer_name, squash, differencing, cores=2,
               flush_each_cycle=False):
    """Drive the same bundles through the straight-to-wire engine."""
    packer = _make_packer(packer_name, cores)
    fuser = SquashFuser(differencing=differencing) if squash else None
    engine = FastCaptureEngine(fuser, packer)
    tables = [engine.emitter_table(_MonitorShim(XIANGSHAN_DUAL, core))
              for core in range(cores)]
    wire = []
    for bundles in stream:
        for bundle in bundles:
            engine.begin_bundle()
            for cls, core, tag, kwargs in bundle:
                tables[core][cls](tag, **kwargs)
            wire.extend(bytes(t.data) for t in engine.end_bundle())
        if flush_each_cycle and fuser is not None:
            wire.extend(bytes(t.data) for t in engine.flush())
    wire.extend(bytes(t.data) for t in engine.flush())
    wire.extend(bytes(t.data) for t in packer.flush())
    return wire, fuser


def _single_class_stream(cls, instances=12, cores=2, mutate=True):
    """Successive near-identical instances: a diff-eligible class takes
    the ENC_DIFF path from the second instance on."""
    rng = random.Random(SEED ^ (cls.DESCRIPTOR.event_id << 8))
    base = _random_kwargs(cls, rng)
    scalar = next((s for s in cls.FIELDS if s.count == 1), None)
    stream = []
    for tag in range(instances):
        kwargs = dict(base)
        if mutate and scalar is not None:
            kwargs[scalar.name] = rng.randint(0, _element_limit(scalar.code))
        stream.append([[(cls, tag % cores, tag, kwargs)]])
    return stream


def _fusion_counters(fuser):
    if fuser is None:
        return None
    stats = fuser.stats
    counters = (stats.events_in, stats.events_out, stats.commits_in,
                stats.fused_commits_out, stats.nde_sent_ahead,
                stats.fusion_breaks)
    diff = fuser.differencer
    if diff is not None:
        counters += (diff.full_sent, diff.diff_sent, diff.bytes_saved,
                     {k: list(v) for k, v in diff._last.items()})
    return counters


@pytest.mark.parametrize("cls", all_event_classes(),
                         ids=lambda c: c.__name__)
def test_single_class_stream_identity_all_packers(cls):
    """Every event class, through every packer, with differencing on and
    off (per-cycle flushes chain ENC_DIFF for the large classes)."""
    stream = _single_class_stream(cls)
    for packer_name in PACKERS:
        for differencing in (False, True):
            legacy, lf = _legacy_wire(stream, packer_name, True,
                                      differencing, flush_each_cycle=True)
            fast, ff = _fast_wire(stream, packer_name, True, differencing,
                                  flush_each_cycle=True)
            assert legacy == fast, (packer_name, differencing)
            assert _fusion_counters(lf) == _fusion_counters(ff)


def test_diff_eligible_classes_actually_take_diff_path():
    """The matrix above must exercise ENC_DIFF, not vacuously pass."""
    diffed = 0
    for cls in all_event_classes():
        if cls._STRUCT.size < DIFF_MIN_PAYLOAD:
            continue
        stream = _single_class_stream(cls)
        _, fuser = _fast_wire(stream, "batch", True, True,
                              flush_each_cycle=True)
        assert fuser.differencer.diff_sent > 0, cls.__name__
        diffed += 1
    assert diffed >= 5


@pytest.mark.parametrize("packer_name", PACKERS)
@pytest.mark.parametrize("squash", [False, True], ids=["nofuse", "squash"])
def test_mixed_stream_identity(packer_name, squash):
    """Seeded random multi-class, multi-core bundles (NDE commits, MMIO
    loads, window-filling commit runs all arise from the random fields)."""
    rng = random.Random(SEED)
    classes = all_event_classes()
    stream = []
    tag = 0
    for _ in range(60):
        bundles = []
        for core in range(2):
            bundle = []
            for _ in range(rng.randint(0, 4)):
                cls = rng.choice(classes)
                bundle.append((cls, core, tag, _random_kwargs(cls, rng)))
                tag += 1
            bundles.append(bundle)
        stream.append(bundles)
    legacy, lf = _legacy_wire(stream, packer_name, squash, squash)
    fast, ff = _fast_wire(stream, packer_name, squash, squash)
    assert legacy == fast
    assert _fusion_counters(lf) == _fusion_counters(ff)


def test_commit_window_fill_flushes_identically():
    """More commits than the fusion window: the fused-commit flush (and
    its fused_count patch) must land at the same bundle boundary."""
    stream = []
    for tag in range(100):
        stream.append([[(InstrCommit, 0, tag,
                         dict(pc=0x80000000 + 4 * tag, instr=0x13,
                              wdata=tag, rd=5, flags=0, fused_count=1))]])
    for packer_name in PACKERS:
        legacy, lf = _legacy_wire(stream, packer_name, True, True)
        fast, ff = _fast_wire(stream, packer_name, True, True)
        assert legacy == fast, packer_name
        assert _fusion_counters(lf) == _fusion_counters(ff)
        assert lf.stats.fused_commits_out >= 3


def test_nde_routing_matches_is_nde_predicates():
    """The engine's inlined NDE checks must agree with ``is_nde()`` —
    this pins the flat-index/flag assumptions the emitters bake in."""
    rng = random.Random(SEED)
    for cls in all_event_classes():
        for _ in range(8):
            kwargs = _random_kwargs(cls, rng)
            event = cls(core_id=0, order_tag=0, **kwargs)
            units = event._flatten()
            if cls is InstrCommit:
                inline = bool(units[4] & FLAG_SKIP)
            elif cls is LoadEvent:
                mmio_index = sum(
                    spec.count for spec in
                    cls.FIELDS[:[s.name for s in cls.FIELDS].index("mmio")])
                inline = bool(units[mmio_index])
            else:
                inline = cls.DESCRIPTOR.is_nde
            assert inline == event.is_nde(), cls.__name__


# ----------------------------------------------------------------------
# Packer append-raw entry vs pack_cycle
# ----------------------------------------------------------------------

@pytest.mark.parametrize("packer_name", PACKERS)
def test_append_api_matches_pack_cycle(packer_name):
    rng = random.Random(SEED ^ 77)
    classes = all_event_classes()
    cycles = []
    for _ in range(30):
        items = []
        for tag in range(rng.randint(0, 6)):
            cls = rng.choice(classes)
            event = cls(core_id=rng.randrange(2), order_tag=tag,
                        **_random_kwargs(cls, rng))
            items.append((cls, WireItem.from_event(event)))
        cycles.append(items)
    buffered = _make_packer(packer_name)
    direct = _make_packer(packer_name)
    wire_a, wire_b = [], []
    for items in cycles:
        wire_a.extend(bytes(t.data)
                      for t in buffered.pack_cycle([i for _, i in items]))
        direct.begin_append()
        for cls, item in items:
            if item.order_tag % 2:
                direct.append_raw(item.type_id, item.core_id,
                                  item.order_tag, item.payload,
                                  item.encoding)
            else:
                direct.append_units(cls, item.core_id, item.order_tag,
                                    cls._STRUCT.unpack(item.payload))
        wire_b.extend(bytes(t.data) for t in direct.end_append())
    wire_a.extend(bytes(t.data) for t in buffered.flush())
    wire_b.extend(bytes(t.data) for t in direct.flush())
    assert wire_a == wire_b
    assert buffered.stats.payload_bytes == direct.stats.payload_bytes
    assert buffered.stats.meta_bytes == direct.stats.meta_bytes


# ----------------------------------------------------------------------
# End-to-end co-simulation identity (wire tap)
# ----------------------------------------------------------------------

#: The object-path reference's fallback reason (no ``src/`` reason pins
#: a plain run to event objects any more).
PINNED = ("pinned",)


@contextlib.contextmanager
def _capture_pinned(pin):
    """With ``pin``, runs selecting capture inside take the object path
    for the test-only reason :data:`PINNED`."""
    with pytest.MonkeyPatch.context() as patch:
        if pin:
            patch.setattr("repro.core.framework.fallback_reasons",
                          lambda diff_config, obs_on: list(PINNED))
        yield


def _tapped(config, dut=XIANGSHAN_DEFAULT, source=WORKLOAD, image=None,
            fault=None, trigger=300, obs=None, pin=False):
    """A co-simulation whose wire is tapped; ``pin`` installs an identity
    trap hook, which keeps the DUT interpreted (with no fault latch) and
    changes nothing in the stream — run it under
    :func:`_capture_pinned` to make it the object-path reference."""
    cosim = CoSimulation(dut, config,
                         image if image is not None else assemble(source),
                         obs=obs)
    if fault is not None:
        fault_by_name(fault).install(cosim.dut.cores[0], trigger)
    if pin:
        for core in cosim.dut.cores:
            core.hart.hooks.on_trap = lambda cause, tval: (cause, tval)
    return cosim, tap_wire(cosim)


def _run_tapped(config, max_cycles=60_000, pin=False, **kwargs):
    cosim, wire = _tapped(config, pin=pin, **kwargs)
    with _capture_pinned(pin):
        result = cosim.run(max_cycles=max_cycles)
    return result, wire, cosim


def _run_pair(config, **kwargs):
    """The same run on the fast path and pinned to the object path."""
    return _run_tapped(config, **kwargs), _run_tapped(config, pin=True,
                                                      **kwargs)


def _assert_stats_identical(fast, reference, pinned_by=PINNED):
    """Counters, profile, fusion/packing stats, ``replay_buffer_peak``
    and the rendered report — everything but ``capture_fallbacks``."""
    assert fast.capture_fallbacks == ()
    assert reference.capture_fallbacks == pinned_by
    aligned = dataclasses.replace(
        reference, capture_fallbacks=fast.capture_fallbacks)
    assert fast == aligned
    assert render_report(fast) == render_report(aligned)


def _assert_identical(fast, reference):
    _assert_stats_identical(fast.stats, reference.stats)
    assert fast.summarize() == reference.summarize()


def _assert_buffers_identical(fast_sim, object_sim):
    """Raw-record and object replay buffers hold the same window."""
    for raw, objects in zip(fast_sim.replay_buffers,
                            object_sim.replay_buffers):
        assert len(raw) == len(objects)
        assert raw.dropped_slots == objects.dropped_slots
        assert raw.fetch_range(0, 1 << 62) == objects.fetch_range(0, 1 << 62)


#: Both settings of the replay window, looped inside each test (the test
#: ids predate the window being fast-capture eligible).
REPLAY = (True, False)


@pytest.mark.parametrize("config", LADDER, ids=lambda c: c.name)
def test_run_wire_identity_all_ladder_configs(config):
    for replay in REPLAY:
        (fast, fast_wire, cosim), (legacy, legacy_wire, object_sim) = \
            _run_pair(config.with_(replay=replay))
        assert fast.passed and legacy.passed
        assert fast_wire == legacy_wire
        _assert_identical(fast, legacy)
        _assert_buffers_identical(cosim, object_sim)
        assert cosim._capture is not None  # the fast tier actually engaged
        assert cosim.dut.cores[0].monitor.fast_events > 0
        assert object_sim._capture is None
        assert (fast.stats.replay_buffer_peak > 0) == replay


def test_run_wire_identity_multicore():
    for replay in REPLAY:
        (fast, fast_wire, cosim), (legacy, legacy_wire, object_sim) = \
            _run_pair(CONFIG_BNSD.with_(replay=replay), dut=XIANGSHAN_DUAL)
        assert fast_wire == legacy_wire
        _assert_identical(fast, legacy)
        _assert_buffers_identical(cosim, object_sim)


def test_run_wire_identity_restricted_event_set():
    """NutShell's 6-event coverage: disabled classes must be absent from
    the emitter table, not merely dropped late."""
    workload = build("memory_churn", array_kb=8, passes=1)
    for replay in REPLAY:
        (fast, fast_wire, cosim), (legacy, legacy_wire, _) = _run_pair(
            CONFIG_BNSD.with_(replay=replay), dut=NUTSHELL,
            image=workload.image, max_cycles=4500)
        assert fast_wire == legacy_wire
        _assert_identical(fast, legacy)
        table = cosim.dut.cores[0].monitor._fast_emitters
        assert {cls.__name__ for cls in table} == set(NUTSHELL.event_set)


def test_run_identity_with_stalls_and_interrupts():
    workload = build("memory_churn", array_kb=8, passes=1)
    for replay in REPLAY:
        (fast, fast_wire, _), (legacy, legacy_wire, _) = _run_pair(
            CONFIG_BNSD.with_(replay=replay), image=workload.image,
            max_cycles=6000)
        assert fast_wire == legacy_wire
        _assert_identical(fast, legacy)


def test_faulted_run_identical_fast_vs_pinned():
    """An armed fault corrupts below the monitor (hart hooks) or through
    its dispatch (monitor wrappers), so its run stays straight-to-wire
    and matches the object-path reference — wire, mismatch and Replay's
    debug report — with the replay window on and off."""
    # A store hook, an ``_emit`` wrapper, an ``end_of_cycle_state`` one.
    for fault in ("sbuffer_lost_bytes", "icache_refill_corruption",
                  "vs_dirty_wrong"):
        for replay in REPLAY:
            (fast, fast_wire, cosim), (legacy, legacy_wire, object_sim) = \
                _run_pair(CONFIG_BNSD.with_(replay=replay), fault=fault)
            assert cosim._capture is not None
            assert object_sim._capture is None
            assert fast.mismatch is not None
            assert fast_wire == legacy_wire
            _assert_identical(fast, legacy)
            _assert_buffers_identical(cosim, object_sim)
            assert (fast.debug_report is not None) == replay


# ----------------------------------------------------------------------
# Raw-record Replay vs object Replay
# ----------------------------------------------------------------------

def _diverged_run(config, pin, at=150, **kwargs):
    """A bug no fault arms: run ``at`` cycles, flip a bit of the DUT's
    accumulator behind the monitor's back, run on to the mismatch."""
    cosim, wire = _tapped(config, pin=pin, **kwargs)
    with _capture_pinned(pin):
        cosim.advance(at)
        cosim.dut.cores[0].state.xregs[6] ^= 1 << 40  # t1
        result = cosim.run(60_000)
    return result, wire, cosim


def test_unarmed_mismatch_replays_identically_from_raw_records():
    fast, fast_wire, cosim = _diverged_run(CONFIG_BNSD, pin=False)
    legacy, legacy_wire, object_sim = _diverged_run(CONFIG_BNSD, pin=True)
    assert cosim._capture is not None and object_sim._capture is None
    assert fast.mismatch is not None
    assert fast_wire == legacy_wire
    report, reference = fast.debug_report, legacy.debug_report
    assert report.localized is not None
    assert report.render() == reference.render()
    assert (report.replayed_events, report.replay_slots,
            report.reverted_records) == (
        reference.replayed_events, reference.replay_slots,
        reference.reverted_records)
    assert report.replayed_events > 0
    _assert_identical(fast, legacy)
    _assert_buffers_identical(cosim, object_sim)


def test_slot_span_bound_drops_identically():
    """A replay window smaller than the checkpoint interval: the bound
    (not the checkpoint trim) is what keeps the buffer short."""
    cfg = CONFIG_BNSD.with_(replay_buffer_slots=24)
    (fast, _, cosim), (legacy, _, object_sim) = _run_pair(cfg)
    assert fast.passed and legacy.passed
    assert cosim.replay_buffers[0].dropped_slots > 0
    _assert_identical(fast, legacy)
    _assert_buffers_identical(cosim, object_sim)


# ----------------------------------------------------------------------
# Fallback triggers
# ----------------------------------------------------------------------

@pytest.mark.parametrize("config", SHIPPED_LADDER, ids=lambda c: c.name)
def test_shipped_ladder_defaults_take_the_fast_tier(config):
    """Every ladder config with its default ``replay`` and ``jit`` runs
    straight-to-wire over compiled stepping: a future fallback reason or
    bail condition cannot silently re-pin what users get by default."""
    assert config.replay and config.jit  # the shipped defaults
    result, _, cosim = _run_tapped(config)
    assert result.passed
    assert result.stats.capture_fallbacks == ()
    assert cosim.dut.cores[0].monitor.fast_events > 0
    # WORKLOAD loops 200 times: both harts leave the interpreter.
    assert cosim.dut.cores[0].jit.stats.hits > 0
    assert cosim.refs[0].hart.jit.stats.hits > 0


@pytest.mark.parametrize("replay", [True, False])
def test_fallback_replay(replay):
    """The replay window is no longer a fallback: the tier attaches with
    it on (raw records) and off."""
    result, _, cosim = _run_tapped(CONFIG_BNSD.with_(replay=replay))
    assert result.passed
    assert result.stats.capture_fallbacks == ()
    assert cosim._capture is not None
    assert "replay" not in FALLBACK_REASONS


def test_fallback_obs():
    fast, _, cosim = _run_tapped(CONFIG_BNSD, obs=ObsContext())
    assert cosim._capture is None
    assert fast.stats.capture_fallbacks == ("obs",)
    assert fast.metrics.value("capture.fallback.obs") == 1


def test_fallback_order_coupled():
    fast, _, cosim = _run_tapped(CONFIG_COUPLED)
    assert fast.passed
    assert cosim._capture is None
    assert fast.stats.capture_fallbacks == ("order_coupled",)


def test_fallback_reasons_canonical_order_and_hooks():
    cfg = CONFIG_COUPLED  # squash + order_coupled + replay default
    reasons = fallback_reasons(cfg, True)
    assert reasons == ["obs", "order_coupled"]
    assert tuple(reasons) == FALLBACK_REASONS
    assert fallback_reasons(CONFIG_BNSD, False) == []
    # Armed faults and hart hooks are no reason.
    fast, _, cosim = _run_tapped(CONFIG_BNSD, fault="control_flow_wdata",
                                 trigger=100)
    assert fast.mismatch is not None
    assert fast.stats.capture_fallbacks == ()
    assert cosim._capture is not None


# ----------------------------------------------------------------------
# advance(k); run() keeps the attached engine and its open window
# ----------------------------------------------------------------------

@pytest.mark.parametrize("replay", REPLAY, ids=["replay", "noreplay"])
def test_advance_then_run_matches_run(replay):
    """``run()`` after ``advance()`` re-selects capture; it must keep the
    engine that holds the open fusion window (a fresh one dropped the
    fused commits and reported a false mismatch)."""
    cfg = CONFIG_BNSD.with_(replay=replay)
    workload = build("sort", elements=32)

    def drive(stop):
        cosim, wire = _tapped(cfg, image=workload.image)
        if stop:
            cosim.advance(stop)
            # Mid-window: fused commits are waiting for the flush.
            assert cosim._capture._fused
        return cosim.run(workload.max_cycles), wire

    whole, whole_wire = drive(0)
    split, split_wire = drive(3001)
    assert whole.passed and split.passed
    assert split_wire == whole_wire
    assert split.stats == whole.stats
    assert split.summarize() == whole.summarize()


# ----------------------------------------------------------------------
# The process-wide emitter-factory cache
# ----------------------------------------------------------------------

def test_emitter_source_compiles_once_per_process():
    _run_tapped(CONFIG_BNSD)  # whatever this process had not compiled yet
    before = emitter_factory.cache_info()
    _, _, first = _run_tapped(CONFIG_BNSD)
    _, _, second = _run_tapped(CONFIG_BNSD)
    after = emitter_factory.cache_info()
    assert after.misses == before.misses
    assert after.currsize == before.currsize
    assert after.hits > before.hits
    # Shared code, private state: same code objects, distinct cells,
    # differencing priors and replay deques.
    one, two = first._capture, second._capture
    for key, emitter in one._emitters.items():
        assert emitter is not two._emitters[key]
        assert emitter.__code__ is two._emitters[key].__code__
    assert one._cells is not two._cells
    assert all(one._cells[eid] is not two._cells[eid] for eid in one._cells)
    assert one.differencer._last is not two.differencer._last
    assert (first.replay_buffers[0].records
            is not second.replay_buffers[0].records)


def test_runs_sharing_factories_do_not_share_state():
    """Interleave two runs cycle by cycle: each must end exactly like the
    same run made alone."""
    alone, alone_wire, _ = _run_tapped(CONFIG_BNSD)
    (a, wire_a), (b, wire_b) = _tapped(CONFIG_BNSD), _tapped(CONFIG_BNSD)
    for cycle in range(50, 60_000, 50):
        a.advance(cycle)
        b.advance(cycle)
        if a.dut.finished() and b.dut.finished():
            break
    for cosim, wire in ((a, wire_a), (b, wire_b)):
        result = cosim.run(60_000)
        assert result.passed
        assert wire == alone_wire
        assert result.stats == alone.stats


# ----------------------------------------------------------------------
# fast x JIT x slicing
# ----------------------------------------------------------------------

def test_run_identity_with_jit(monkeypatch):
    monkeypatch.setattr("repro.isa.jit.DEFAULT_WARMUP", 2)
    workload = build("memory_churn", array_kb=8, passes=1)
    for replay in REPLAY:
        (fast, fast_wire, cosim), (legacy, legacy_wire, _) = _run_pair(
            CONFIG_BNSD.with_(replay=replay, jit=True),
            image=workload.image, max_cycles=4500)
        assert cosim._capture is not None
        assert cosim.dut.cores[0].jit.stats.hits > 0  # both tiers engaged
        assert fast_wire == legacy_wire
        _assert_identical(fast, legacy)


def test_sliced_run_identity_with_fast_capture(monkeypatch):
    monkeypatch.setattr("repro.isa.jit.DEFAULT_WARMUP", 4)
    workload = build("memory_churn", array_kb=8, passes=1)
    max_cycles = 4500
    for replay in REPLAY:
        cfg = CONFIG_BNSD.with_(replay=replay, jit=True)
        serial = CoSimulation(
            NUTSHELL,
            cfg.with_(slice_epoch_cycles=epoch_for(max_cycles, 3)),
            workload.image, seed=2025,
            uart_input=workload.uart_input).run(max_cycles)
        sliced = sliced_run(NUTSHELL, cfg, workload.image,
                            max_cycles=max_cycles, slices=3, seed=2025,
                            uart_input=workload.uart_input)
        assert sliced.passed
        assert render_report(serial.stats) == render_report(sliced.stats)
        assert serial.summarize() == sliced.summary
        assert serial.stats.capture_fallbacks == ()
        assert (serial.stats.replay_buffer_peak > 0) == replay


def test_sliced_fast_matches_sliced_legacy():
    """Slice workers resume from a boundary (replay buffers rebuilt
    before the engine attaches); the object-path reference is the same
    sliced run observed."""
    workload = build("memory_churn", array_kb=8, passes=1)
    for replay in REPLAY:
        cfg = CONFIG_BNSD.with_(replay=replay)
        fast = sliced_run(NUTSHELL, cfg, workload.image, max_cycles=4500,
                          slices=3, seed=2025,
                          uart_input=workload.uart_input)
        legacy = sliced_run(NUTSHELL, cfg, workload.image, max_cycles=4500,
                            slices=3, seed=2025,
                            uart_input=workload.uart_input,
                            collect_metrics=True)
        assert fast.passed and legacy.passed
        _assert_stats_identical(fast.stats, legacy.stats,
                                pinned_by=("obs",))
        assert fast.summary == dataclasses.replace(legacy.summary,
                                                   metrics=None)


# ----------------------------------------------------------------------
# Monitor enable-memo staleness (regression) and engine rebinding
# ----------------------------------------------------------------------

def _monitor(config):
    return Monitor(config, core_id=0, state=ArchState(0, DRAM_BASE))


def test_enable_memo_invalidated_on_config_change():
    """Reassigning ``monitor.config`` between runs must drop the
    per-class enable memo (it caches the *previous* config's answers)."""
    monitor = _monitor(XIANGSHAN_DEFAULT)
    out = []
    monitor._emit(out, LoadEvent, tag=0, paddr=8, data=1, op_type=3,
                  fu_type=0, mmio=0)
    assert len(out) == 1  # memoised as enabled
    restricted = DutConfig(name="only-commit", commit_width=1,
                           gates_millions=1.0, event_set=("InstrCommit",))
    monitor.config = restricted
    out2 = []
    monitor._emit(out2, LoadEvent, tag=1, paddr=8, data=1, op_type=3,
                  fu_type=0, mmio=0)
    assert out2 == []  # stale memo would have emitted
    monitor._emit(out2, InstrCommit, tag=2, pc=4, instr=0x13, wdata=0,
                  rd=0, flags=0, fused_count=1)
    assert len(out2) == 1


def test_enable_memo_reenable_direction():
    restricted = DutConfig(name="only-commit", commit_width=1,
                           gates_millions=1.0, event_set=("InstrCommit",))
    monitor = _monitor(restricted)
    out = []
    monitor._emit(out, LoadEvent, tag=0, paddr=8, data=1, op_type=3,
                  fu_type=0, mmio=0)
    assert out == []  # memoised as disabled
    monitor.config = XIANGSHAN_DEFAULT
    monitor._emit(out, LoadEvent, tag=1, paddr=8, data=1, op_type=3,
                  fu_type=0, mmio=0)
    assert len(out) == 1


def test_config_change_rebinds_fast_emitter_table():
    engine = FastCaptureEngine(None, DpicPacker())
    monitor = _monitor(XIANGSHAN_DEFAULT)
    monitor.attach_fast_capture(engine)
    assert LoadEvent in monitor._fast_emitters
    restricted = DutConfig(name="only-commit", commit_width=1,
                           gates_millions=1.0, event_set=("InstrCommit",))
    monitor.config = restricted
    assert LoadEvent not in monitor._fast_emitters
    assert InstrCommit in monitor._fast_emitters
    before = monitor.fast_events
    monitor._emit([], LoadEvent, tag=0, paddr=8, data=1, op_type=3,
                  fu_type=0, mmio=0)
    assert monitor.fast_events == before  # disabled: dropped, not counted
    monitor.detach_fast_capture()
    out = []
    monitor._emit(out, InstrCommit, tag=1, pc=4, instr=0x13, wdata=0,
                  rd=0, flags=0, fused_count=1)
    assert len(out) == 1  # detached: the object path is back
