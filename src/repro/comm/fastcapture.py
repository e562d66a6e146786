"""Straight-to-wire capture: the hardware-side mirror of the byte-level compare.

The object capture path materialises every probe hit three times: the
monitor constructs a :class:`~repro.events.VerificationEvent`, the
differencer re-flattens it into units, and the fuser wraps it in a
:class:`~repro.comm.packing.base.WireItem` before the packer copies the
payload bytes once more.  None of that materialisation is *semantically*
required — DiffTest-H's contract is about the wire (order tags, fusion,
diff-encoding), not host-side objects — so this tier compiles it away:

* a per-(class, core) *emitter* takes the monitor's raw keyword arguments
  as its parameters, builds the flat unit tuple inline and re-expresses
  the Squash fusion rules and the XOR differencing chain over those raw
  tuples, sharing the fuser's
  :class:`~repro.comm.fusion.squash.FusionStats` and the differencer's
  counters and prior cache so every run-level statistic is identical to
  the object path;
* with the replay window on, the emitter first appends the raw
  ``(tag, class, units)`` record to its core's
  :class:`~repro.core.replay.ReplayBuffer` — the unit tuple is built
  anyway, and Replay materialises events only after a mismatch;
* encoded payloads go through the packer's append-raw entry point
  (:meth:`~repro.comm.packing.base.Packer.append_raw`), which for the
  Batch packer serialises straight into the persistent frame buffer.

Emitter source is ``exec``-compiled once per process
(:func:`emitter_factory`); a run only binds closures over its own cells,
priors and buffers.  Eligibility is decided when the run loop binds its
stages (:func:`fallback_reasons`): a run that *needs* event objects — obs
instrumentation or order-coupled fusion — keeps the object path, and the
wire bytes are byte-identical either way (pinned by
``tests/test_fastcapture_equivalence.py`` the same way
``test_codec_equivalence.py`` pins the codecs).  An armed fault is no
reason: hart hooks act below the monitor, and monitor wrappers call
through ``Monitor._emit``'s dispatch, so they corrupt the same wire.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import Callable, Dict, List, Tuple

from ..events import FusionRule, InstrCommit, LoadEvent, TrapFinish, \
    all_event_classes
from .fusion.differencing import _UNIT_PACKERS
from .fusion.squash import OrderCoupledFuser
from .packing.base import ENC_DIFF

#: Canonical fallback-reason order (stable across runs and slices, so
#: sliced-window unions reproduce the serial tuple exactly).
FALLBACK_REASONS = ("obs", "order_coupled")


def fallback_reasons(diff_config, obs_on: bool) -> List[str]:
    """Why this run must keep the event-object capture path.

    Returns a list drawn from :data:`FALLBACK_REASONS`, empty when the
    straight-to-wire tier is eligible.
    """
    reasons: List[str] = []
    if obs_on:
        # The tracer spans wrap the object path's stages.
        reasons.append("obs")
    if diff_config.squash and diff_config.order_coupled:
        # Order-coupled fusion breaks on every NDE/exception — a control
        # flow the emitters do not re-express; it exists as a comparator,
        # not a performance path.
        reasons.append("order_coupled")
    return reasons


#: Emitter variant -> (names its body captures besides ``_cell`` and
#: ``_encode``, body lines).  Each body re-expresses what
#: ``SquashFuser.on_cycle`` does for that kind of class; it reads the
#: class's fields (``flags``, ``mmio``, ``addr``) as plain locals, and
#: ``$UNITS`` expands to the flat unit tuple.
_VARIANTS: Dict[str, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {
    # No fusion: every event is transmitted full, in order.
    "unfused": ((), (
        "_cell[0] += 1",
        "_encode(tag, $UNITS)",
    )),
    # Flat order is (pc, instr, wdata, rd, flags, fused_count); the
    # window record keeps everything but fused_count, which the flush
    # patches in from the run length.
    "commit": (("_fstats", "_fused", "_counts", "_window", "_flush_box",
                "_core"), (
        "_cell[0] += 1",
        "_fstats.events_in += 1",
        "if flags & 8:",  # events.FLAG_SKIP
        "    # MMIO-skip commit: an NDE, transmitted ahead",
        "    # with its tag; fusion continues across the gap.",
        "    _fstats.nde_sent_ahead += 1",
        "    _encode(tag, $UNITS)",
        "    return",
        "_fstats.commits_in += 1",
        "rec = _fused.get(_core)",
        "if rec is None:",
        "    _fused[_core] = [tag, pc, instr, wdata, rd, flags]",
        "    _counts[_core] = 1",
        "else:",
        "    rec[0] = tag",
        "    rec[1] = pc",
        "    rec[2] = instr",
        "    rec[3] = wdata",
        "    rec[4] = rd",
        "    rec[5] = flags",
        "    _counts[_core] += 1",
        "if _counts[_core] >= _window:",
        "    _flush_box[0] = True",
    )),
    # Statically non-deterministic: always transmitted ahead.
    "nde": (("_fstats",), (
        "_cell[0] += 1",
        "_fstats.events_in += 1",
        "_fstats.nde_sent_ahead += 1",
        "_encode(tag, $UNITS)",
    )),
    "load": (("_fstats", "_passthrough"), (
        "_cell[0] += 1",
        "_fstats.events_in += 1",
        "if mmio:",
        "    _fstats.nde_sent_ahead += 1",
        "    _encode(tag, $UNITS)",
        "else:",
        "    _passthrough.append((_encode, tag, $UNITS))",
    )),
    "keep_latest": (("_fstats", "_latest", "_key"), (
        "_cell[0] += 1",
        "_fstats.events_in += 1",
        "_latest[_key] = (_encode, tag, $UNITS)",
    )),
    # Every ACCUMULATE class keys on a scalar ``addr`` field.
    "accumulate": (("_fstats", "_accumulated", "_eid", "_core"), (
        "_cell[0] += 1",
        "_fstats.events_in += 1",
        "_accumulated[(_eid, _core, addr)] = (_encode, tag, $UNITS)",
    )),
    "trap": (("_fstats", "_flush"), (
        "_cell[0] += 1",
        "_fstats.events_in += 1",
        "# End of simulation: drain the window, then the trap.",
        "_flush()",
        "_encode(tag, $UNITS)",
    )),
    # PASS_THROUGH (also COLLAPSE types that are not InstrCommit,
    # mirroring the fuser's isinstance guard).
    "passthrough": (("_fstats", "_passthrough"), (
        "_cell[0] += 1",
        "_fstats.events_in += 1",
        "_passthrough.append((_encode, tag, $UNITS))",
    )),
}


def _emit_signature(cls, namespace: dict):
    """Parameter list, array-coercion lines and unit-tuple expression for
    a generated emitter whose keyword parameters *are* the class's field
    names (scalars default to 0, array fields to zeros and are
    length-checked), so each emission costs a single call."""
    params = []
    coerce = []
    parts = []
    for spec in cls.FIELDS:
        name = spec.name
        if spec.count == 1:
            params.append(f"{name}=0")
            parts.append(name)
        else:
            default = f"_default_{name}"
            namespace[default] = (0,) * spec.count
            params.append(f"{name}={default}")
            coerce.append(f"if type({name}) is not tuple:")
            coerce.append(f"    {name} = tuple({name})")
            coerce.append(f"if len({name}) != {spec.count}:")
            coerce.append("    raise ValueError(")
            coerce.append(f"        \"{cls.__name__}.{name} expects \"")
            coerce.append(f"        f\"{spec.count} elements, "
                          f"got {{len({name})}}\")")
            parts.append(f"*{name}")
    if len(cls.FIELDS) == 1 and cls.FIELDS[0].count > 1:
        # Single array field (the state-snapshot classes): the coerced
        # tuple *is* the unit tuple — no copy.
        units = cls.FIELDS[0].name
    elif parts:
        units = f"({', '.join(parts)},)"
    else:
        units = "()"
    return ", ".join(params), coerce, units


@lru_cache(maxsize=None)
def emitter_factory(cls, variant: str, replay: bool) -> Callable:
    """``make(_cell, _encode, ...) -> emit(tag, **fields)`` for one event
    class: the one place emitter source is compiled, once per process.

    A run binds its own state by calling ``make`` (hundreds of campaign
    jobs share the compiled code, never a cell, prior or buffer).  With
    ``replay`` the emitter first appends the raw record to ``_record``
    (the core's replay-buffer append); without it the body carries no
    extra line at all.
    """
    captured, body = _VARIANTS[variant]
    if variant == "accumulate" and "addr" not in {
            spec.name for spec in cls.FIELDS}:
        raise KeyError(f"{cls.__name__} has no field 'addr'")
    namespace: dict = {"_cls": cls}
    params, lines, units = _emit_signature(cls, namespace)
    names = ("_cell", "_encode") + captured
    if replay:
        names += ("_record",)
        lines += [f"units = {units}", "_record((tag, _cls, units))"]
        units = "units"
    lines += [line.replace("$UNITS", units) for line in body]
    name = f"emit_{cls.__name__}"
    source = (f"def make({', '.join(names)}):\n"
              f"    def {name}(tag, {params}):\n"
              + "".join(f"        {line}\n" for line in lines)
              + f"    return {name}\n")
    exec(source, namespace)
    return namespace["make"]


class FastCaptureEngine:
    """Per-run compiled emit→encode→pack pipeline.

    One engine serves every monitor of a run.  It *shares* the fuser's
    stats object and the differencer's counters/prior cache rather than
    keeping its own, so ``CoSimulation._finish`` and slice stitching
    read exactly the numbers the object path would have produced.
    Event-profile counts (which the object path accumulates per bundle
    in ``_record_bundle``) are kept in cheap per-class cells and folded
    into ``RunStats`` by :meth:`fold_stats`.

    ``replay_buffers`` (one :class:`~repro.core.replay.ReplayBuffer` per
    core, or None with the replay window off) receive the raw records.
    Nothing an emitter captures refers back to the engine, and the engine
    holds no monitor: a finished run is freed by reference counting.
    """

    def __init__(self, fuser, packer, replay_buffers=None) -> None:
        if isinstance(fuser, OrderCoupledFuser):
            raise ValueError(
                "order-coupled fusion is not fast-capture eligible")
        self.fuser = fuser
        self.packer = packer
        self.differencer = fuser.differencer if fuser is not None else None
        self.replay_buffers = replay_buffers
        #: Per-event-id (count cell, payload size) for profile folding.
        self._cells: Dict[int, List[int]] = {}
        self._sizes: Dict[int, int] = {}
        # Fusion-window state, re-expressed over raw tuples.  Containers
        # are mutated in place (never rebound): the emitter closures
        # capture them once.
        self._flush_box = [False]
        self._passthrough: List[Tuple[Callable, int, tuple]] = []
        self._latest: Dict[Tuple[int, int], Tuple[Callable, int, tuple]] = {}
        self._accumulated: Dict[Tuple[int, int, int],
                                Tuple[Callable, int, tuple]] = {}
        self._fused: Dict[int, list] = {}
        self._fused_count: Dict[int, int] = {}
        #: Per-core InstrCommit encoder, registered when the commit
        #: emitter for that core is built; used by the window flush.
        self._commit_encoders: Dict[int, Callable] = {}
        self._emitters: Dict[Tuple[type, int], Callable] = {}
        self.flush_window = self._window_flusher()

    # ------------------------------------------------------------------
    # Emitter construction
    # ------------------------------------------------------------------
    def _cell(self, cls) -> List[int]:
        eid = cls.DESCRIPTOR.event_id
        cell = self._cells.get(eid)
        if cell is None:
            cell = self._cells[eid] = [0]
            self._sizes[eid] = cls._STRUCT.size
        return cell

    def _make_encoder(self, cls, core_id: int) -> Callable:
        """``encode(tag, units)``: byte-identical to ``fuser._emit`` /
        ``WireItem.from_event`` on an equivalent event object."""
        packer = self.packer
        fuser = self.fuser
        diff = self.differencer
        if fuser is None:
            def encode(tag, units, _append=packer.append_units, _cls=cls,
                       _core=core_id):
                _append(_cls, _core, tag, units)
            return encode
        fstats = fuser.stats
        if diff is None:
            def encode(tag, units, _append=packer.append_units, _cls=cls,
                       _core=core_id, _fstats=fstats):
                _fstats.events_out += 1
                _append(_cls, _core, tag, units)
            return encode
        full_size = cls._STRUCT.size
        if full_size < diff.min_payload:
            def encode(tag, units, _append=packer.append_units, _cls=cls,
                       _core=core_id, _fstats=fstats, _diff=diff):
                _fstats.events_out += 1
                _diff.full_sent += 1
                _append(_cls, _core, tag, units)
            return encode
        # Diff-eligible: the Differencer.encode algorithm inlined over
        # raw tuples, sharing its prior cache and counters.
        eid = cls.DESCRIPTOR.event_id
        key = (eid, core_id)
        priors = diff._last
        sizes = cls._UNIT_SIZES
        count = len(sizes)
        bitmap_len = (count + 7) // 8
        fmts = tuple(_UNIT_PACKERS[size] for size in sizes)
        pack = struct.pack
        append_units = packer.append_units
        append_raw = packer.append_raw

        def encode(tag, units):
            fstats.events_out += 1
            last = priors.get(key)
            if last is not None:
                changed = [i for i in range(count) if units[i] != last[i]]
                diff_size = bitmap_len + sum(sizes[i] for i in changed)
                if diff_size < full_size:
                    bitmap = bytearray(bitmap_len)
                    body = bytearray()
                    for i in changed:
                        bitmap[i >> 3] |= 1 << (i & 7)
                        body += pack(fmts[i], units[i])
                    payload = bytes(bitmap + body)
                    priors[key] = units
                    diff.diff_sent += 1
                    diff.bytes_saved += full_size - len(payload)
                    append_raw(eid, core_id, tag, payload, ENC_DIFF)
                    return
            priors[key] = units
            diff.full_sent += 1
            append_units(cls, core_id, tag, units)

        return encode

    def _variant(self, cls, core_id: int) -> Tuple[str, dict]:
        """Which :data:`_VARIANTS` body serves ``cls`` under this run's
        fuser, and the values it captures."""
        fuser = self.fuser
        if fuser is None:
            return "unfused", {}
        desc = cls.DESCRIPTOR
        if cls is InstrCommit:
            return "commit", dict(
                _fused=self._fused, _counts=self._fused_count,
                _window=fuser.window, _flush_box=self._flush_box,
                _core=core_id)
        if desc.is_nde:
            return "nde", {}
        if cls is LoadEvent:
            return "load", dict(_passthrough=self._passthrough)
        rule = desc.fusion_rule
        if rule is FusionRule.KEEP_LATEST:
            return "keep_latest", dict(
                _latest=self._latest, _key=(desc.event_id, core_id))
        if rule is FusionRule.ACCUMULATE:
            return "accumulate", dict(
                _accumulated=self._accumulated, _eid=desc.event_id,
                _core=core_id)
        if cls is TrapFinish:
            return "trap", dict(_flush=self.flush_window)
        return "passthrough", dict(_passthrough=self._passthrough)

    def _make_emitter(self, cls, core_id: int) -> Callable:
        """``emit(tag, **fields)`` for one event class on one core: the
        process-wide compiled factory bound to this run's state."""
        encode = self._make_encoder(cls, core_id)
        variant, captured = self._variant(cls, core_id)
        if variant == "commit":
            self._commit_encoders[core_id] = encode
        if variant != "unfused":
            captured["_fstats"] = self.fuser.stats
        buffers = self.replay_buffers
        if buffers is not None:
            captured["_record"] = buffers[core_id].records.append
        make = emitter_factory(cls, variant, buffers is not None)
        return make(_cell=self._cell(cls), _encode=encode, **captured)

    def emitter_table(self, monitor) -> Dict[type, Callable]:
        """The per-class emitter table for one monitor, honouring its
        ``DutConfig.event_enabled`` filter (disabled classes are simply
        absent, so ``Monitor._emit`` drops them like the memoised
        object-path check does)."""
        config = monitor.config
        core_id = monitor.core_id
        table: Dict[type, Callable] = {}
        for cls in all_event_classes():
            if not config.event_enabled(cls.__name__):
                continue
            emitter = self._emitters.get((cls, core_id))
            if emitter is None:
                emitter = self._make_emitter(cls, core_id)
                self._emitters[(cls, core_id)] = emitter
            table[cls] = emitter
        return table

    # ------------------------------------------------------------------
    # Window / bundle control
    # ------------------------------------------------------------------
    def _window_flusher(self) -> Callable[[], None]:
        """``flush_window()``: close the fusion window into the open
        append window — buffered events first, fused commits last, in the
        exact order of ``SquashFuser.flush``.  A closure over the window
        containers rather than a method: the TrapFinish emitter calls it,
        and an emitter holding the engine would close a reference cycle
        through ``_emitters``."""
        fstats = self.fuser.stats if self.fuser is not None else None
        flush_box = self._flush_box
        passthrough = self._passthrough
        accumulated = self._accumulated
        latest = self._latest
        fused = self._fused
        counts = self._fused_count
        encoders = self._commit_encoders

        def flush_window() -> None:
            flush_box[0] = False
            for encode, tag, units in passthrough:
                encode(tag, units)
            passthrough.clear()
            for key in sorted(accumulated):
                encode, tag, units = accumulated[key]
                encode(tag, units)
            accumulated.clear()
            for key in sorted(latest):
                encode, tag, units = latest[key]
                encode(tag, units)
            latest.clear()
            for core in sorted(fused):
                rec = fused[core]
                fstats.fused_commits_out += 1
                encoders[core](rec[0], (rec[1], rec[2], rec[3], rec[4],
                                        rec[5], counts[core]))
            fused.clear()
            counts.clear()

        return flush_window

    def begin_bundle(self) -> None:
        """Open the append window for one core's cycle bundle."""
        self.packer.begin_append()

    def end_bundle(self):
        """Close the bundle; flush the fusion window if it filled (at the
        bundle boundary, like ``SquashFuser.on_cycle``); return ready
        transfers."""
        if self._flush_box[0]:
            self.flush_window()
        return self.packer.end_append()

    def flush(self):
        """End-of-run / barrier flush (the fuser half of
        ``CoSimulation._flush_hardware``); returns ready transfers."""
        self.packer.begin_append()
        if self.fuser is not None:
            self.flush_window()
        return self.packer.end_append()

    # ------------------------------------------------------------------
    # Stats folding
    # ------------------------------------------------------------------
    def fold_stats(self, stats) -> None:
        """Fold the capture cells into ``RunStats`` (the fast-path twin
        of ``_record_bundle``'s per-event accounting).  Idempotent: cells
        are zeroed, so folding at detach *and* at ``_finish`` is safe."""
        profile = stats.profile
        counts = profile.counts
        payload_bytes = profile.payload_bytes
        sizes = self._sizes
        total = 0
        for eid, cell in self._cells.items():
            n = cell[0]
            if not n:
                continue
            cell[0] = 0
            total += n
            counts[eid] = counts.get(eid, 0) + n
            payload_bytes[eid] = payload_bytes.get(eid, 0) + n * sizes[eid]
        stats.events_captured += total
