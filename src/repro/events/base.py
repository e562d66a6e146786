"""Core definitions for verification events.

A *verification event* is a unit of architectural information extracted from
the design under test (DUT) and shipped to the software checker.  The paper
(Table 1) organises 32 event types into five categories; each type has a
fixed binary layout ("structural semantics"), a checking-order requirement
("order semantics"), and a mapping to microarchitectural components
("behavioral semantics").

This module provides:

* :class:`EventCategory` — the five categories of Table 1.
* :class:`FieldSpec` — one field of an event's binary layout.
* :class:`EventDescriptor` — static metadata for an event type.
* :class:`VerificationEvent` — the base class all 32 event types extend.
* A registry mapping event ids to classes (:func:`register_event`,
  :func:`event_class`, :func:`all_event_classes`).

Hot-loop codecs
---------------

Event construction, flattening and decoding sit on the per-cycle hot loop
(every captured event is constructed once on the DUT side and — on the
slow path — once more on the checker side).  Instead of interpreting
``FIELDS`` with a Python loop per event, each subclass gets *compiled
codecs*: ``__init_subclass__`` generates specialised ``__init__``,
``_flatten``, ``encode_payload``, ``decode_payload`` and ``from_units``
functions with ``exec`` (the same technique ``dataclasses`` and
``namedtuple`` use) and the metaclass injects ``__slots__`` derived from
``FIELDS`` so instances carry no per-object ``__dict__``.

The original interpreted implementations are kept as module-level
``generic_*`` functions; they remain the executable specification the
equivalence tests and the hot-loop benchmark compare against.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import ClassVar, Dict, List, NamedTuple, Optional, Tuple, Type


class EventCategory(enum.Enum):
    """The five verification-event categories of Table 1."""

    CONTROL_FLOW = "control_flow"
    REGISTER_UPDATE = "register_update"
    MEMORY_ACCESS = "memory_access"
    MEMORY_HIERARCHY = "memory_hierarchy"
    EXTENSION = "extension"


class FusionRule(enum.Enum):
    """How Squash fuses instances of an event type across instructions.

    * ``COLLAPSE`` — a run of events folds into one carrying a count and the
      collective effect (instruction commits).
    * ``KEEP_LATEST`` — the event is an idempotent state snapshot; only the
      most recent instance within a fusion window needs to be transmitted
      (architectural register/CSR state dumps).
    * ``ACCUMULATE`` — per-destination updates where the last write per
      destination wins (register writebacks).
    * ``PASS_THROUGH`` — every instance must reach the checker, but the
      event is deterministic and may be delayed inside the fusion window
      (cache refills, TLB fills).
    """

    COLLAPSE = "collapse"
    KEEP_LATEST = "keep_latest"
    ACCUMULATE = "accumulate"
    PASS_THROUGH = "pass_through"


class FieldSpec(NamedTuple):
    """One field in an event's binary layout.

    ``code`` is a ``struct`` format character (``B``, ``H``, ``I``, ``Q``);
    ``count`` > 1 denotes a fixed-size array stored as a tuple of ints.
    """

    name: str
    code: str
    count: int = 1


@dataclass(frozen=True)
class EventDescriptor:
    """Static metadata describing one of the 32 event types.

    ``instances`` is the number of hardware probe slots per core (e.g. an
    8-slot commit stage produces up to 8 `InstrCommit` instances per cycle);
    the aggregate interface size of Section 2.2 is ``payload_size *
    instances`` summed over all types.
    """

    event_id: int
    name: str
    category: EventCategory
    fusion_rule: FusionRule
    instances: int = 1
    is_nde: bool = False
    component: str = "core"


#: Size of the per-event wire header: type id (u8), core id (u8) and a
#: 32-bit order tag (the event's position in the global check order).
HEADER_SIZE = 6
_HEADER = struct.Struct("<BBI")


# ----------------------------------------------------------------------
# Generic (interpreted) codecs — the executable specification
# ----------------------------------------------------------------------
# These are the original per-field loops the compiled codecs replace.
# They stay importable so tests can assert byte/field equivalence and the
# hot-loop benchmark can measure the compiled speedup against them.

def generic_init(event: "VerificationEvent", core_id: int = 0,
                 order_tag: int = 0, **fields: object) -> None:
    """Interpreted keyword constructor (one ``setattr`` per field)."""
    event.core_id = core_id
    event.order_tag = order_tag
    for spec in event.FIELDS:
        if spec.count == 1:
            value = fields.pop(spec.name, 0)
        else:
            value = tuple(fields.pop(spec.name, (0,) * spec.count))
            if len(value) != spec.count:
                raise ValueError(
                    f"{type(event).__name__}.{spec.name} expects "
                    f"{spec.count} elements, got {len(value)}"
                )
        setattr(event, spec.name, value)
    if fields:
        unknown = ", ".join(sorted(fields))
        raise TypeError(f"unknown fields for {type(event).__name__}: {unknown}")


def generic_flatten(event: "VerificationEvent") -> List[int]:
    """Interpreted unit decomposition (one ``getattr`` per field)."""
    flat: List[int] = []
    for name, count in event._FLAT_NAMES:
        value = getattr(event, name)
        if count == 1:
            flat.append(value)
        else:
            flat.extend(value)
    return flat


def generic_encode_payload(event: "VerificationEvent") -> bytes:
    return event._STRUCT.pack(*generic_flatten(event))


def generic_decode_payload(cls: Type["VerificationEvent"], data: bytes,
                           offset: int = 0, core_id: int = 0,
                           order_tag: int = 0) -> "VerificationEvent":
    """Interpreted payload decoder (one ``setattr`` per field)."""
    flat = cls._STRUCT.unpack_from(data, offset)
    event = cls.__new__(cls)
    event.core_id = core_id
    event.order_tag = order_tag
    index = 0
    for name, count in cls._FLAT_NAMES:
        if count == 1:
            setattr(event, name, flat[index])
            index += 1
        else:
            setattr(event, name, tuple(flat[index : index + count]))
            index += count
    return event


def generic_from_units(cls: Type["VerificationEvent"], units: List[int],
                       core_id: int = 0, order_tag: int = 0
                       ) -> "VerificationEvent":
    """Interpreted unit recomposition (one ``setattr`` per field)."""
    event = cls.__new__(cls)
    event.core_id = core_id
    event.order_tag = order_tag
    index = 0
    for name, count in cls._FLAT_NAMES:
        if count == 1:
            setattr(event, name, units[index])
            index += 1
        else:
            setattr(event, name, tuple(units[index : index + count]))
            index += count
    return event


# ----------------------------------------------------------------------
# Codec compilation
# ----------------------------------------------------------------------

def _compile_function(source: str, name: str, namespace: dict):
    """``exec`` one generated function and return it (dataclasses-style)."""
    exec(source, namespace)
    return namespace[name]


def _compile_codecs(cls: Type["VerificationEvent"]) -> None:
    """Generate specialised codec methods for one event class.

    The generated code is behaviourally identical to the ``generic_*``
    functions above (same defaults, same error messages) but contains no
    per-field loops: every field access is an inlined attribute or tuple
    index, which is what makes the per-cycle event path cheap.
    """
    fields = cls.FIELDS
    namespace: dict = {"_struct_pack": cls._STRUCT.pack,
                       "_struct_unpack_from": cls._STRUCT.unpack_from,
                       "_obj_new": object.__new__}

    # --- __init__ ------------------------------------------------------
    params = ["self", "core_id=0", "order_tag=0", "*"]
    body = ["    self.core_id = core_id", "    self.order_tag = order_tag"]
    for spec in fields:
        name = spec.name
        if spec.count == 1:
            params.append(f"{name}=0")
            body.append(f"    self.{name} = {name}")
        else:
            default = f"_default_{name}"
            namespace[default] = (0,) * spec.count
            params.append(f"{name}={default}")
            body.append(f"    if type({name}) is not tuple:")
            body.append(f"        {name} = tuple({name})")
            body.append(f"    if len({name}) != {spec.count}:")
            body.append("        raise ValueError(")
            body.append(f"            f\"{{type(self).__name__}}.{name} "
                        f"expects \"")
            body.append(f"            f\"{spec.count} elements, "
                        f"got {{len({name})}}\")")
            body.append(f"    self.{name} = {name}")
    params.append("**_unknown")
    body.append("    if _unknown:")
    body.append("        unknown = ', '.join(sorted(_unknown))")
    body.append("        raise TypeError(")
    body.append("            f'unknown fields for "
                "{type(self).__name__}: {unknown}')")
    source = f"def __init__({', '.join(params)}):\n" + "\n".join(body)
    cls.__init__ = _compile_function(source, "__init__", namespace)

    # --- _flatten / to_units ------------------------------------------
    parts = [f"self.{s.name}" if s.count == 1 else f"*self.{s.name}"
             for s in fields]
    source = f"def _flatten(self):\n    return [{', '.join(parts)}]"
    flatten = _compile_function(source, "_flatten", namespace)
    flatten.__doc__ = VerificationEvent._flatten.__doc__
    cls._flatten = flatten
    cls.to_units = flatten

    # --- encode_payload ------------------------------------------------
    source = ("def encode_payload(self):\n"
              f"    return _struct_pack({', '.join(parts)})")
    encode = _compile_function(source, "encode_payload", namespace)
    encode.__doc__ = VerificationEvent.encode_payload.__doc__
    cls.encode_payload = encode

    # --- decode_payload ------------------------------------------------
    body = ["    event = _obj_new(cls)",
            "    event.core_id = core_id",
            "    event.order_tag = order_tag"]
    if all(spec.count == 1 for spec in fields):
        # All-scalar event: unpack straight into the attributes (the
        # struct's arity guarantees the lengths match).
        targets = ", ".join(f"event.{spec.name}" for spec in fields)
        body.append(f"    ({targets},) = _struct_unpack_from(data, offset)")
    elif len(fields) == 1:
        # Single array field: the unpacked tuple IS the field value.
        body.append(f"    event.{fields[0].name} = "
                    "_struct_unpack_from(data, offset)")
    else:
        body.append("    flat = _struct_unpack_from(data, offset)")
        index = 0
        for spec in fields:
            if spec.count == 1:
                body.append(f"    event.{spec.name} = flat[{index}]")
                index += 1
            else:
                body.append(f"    event.{spec.name} = "
                            f"flat[{index}:{index + spec.count}]")
                index += spec.count
    body.append("    return event")
    source = ("def decode_payload(cls, data, offset=0, core_id=0, "
              "order_tag=0):\n" + "\n".join(body))
    decode = _compile_function(source, "decode_payload", namespace)
    decode.__doc__ = VerificationEvent.decode_payload.__func__.__doc__
    cls.decode_payload = classmethod(decode)

    # --- from_units ----------------------------------------------------
    body = ["    event = _obj_new(cls)",
            "    event.core_id = core_id",
            "    event.order_tag = order_tag"]
    index = 0
    for spec in fields:
        if spec.count == 1:
            body.append(f"    event.{spec.name} = units[{index}]")
            index += 1
        else:
            body.append(f"    event.{spec.name} = "
                        f"tuple(units[{index}:{index + spec.count}])")
            index += spec.count
    body.append("    return event")
    source = ("def from_units(cls, units, core_id=0, order_tag=0):\n"
              + "\n".join(body))
    from_units = _compile_function(source, "from_units", namespace)
    from_units.__doc__ = VerificationEvent.from_units.__func__.__doc__
    cls.from_units = classmethod(from_units)

    for func in (cls.__init__, flatten, encode):
        func.__qualname__ = f"{cls.__name__}.{func.__name__}"


class _EventMeta(type):
    """Injects ``__slots__`` derived from the class-body ``FIELDS``.

    ``__slots__`` must exist before the class object is created, so this
    cannot live in ``__init_subclass__``; the metaclass adds one slot per
    field name (classes that declare their own ``__slots__``, and classes
    without new ``FIELDS``, are left untouched).
    """

    def __new__(mcls, name, bases, namespace, **kwargs):
        if "__slots__" not in namespace:
            fields = namespace.get("FIELDS")
            namespace["__slots__"] = (
                tuple(spec.name for spec in fields) if fields else ())
        return super().__new__(mcls, name, bases, namespace, **kwargs)


class VerificationEvent(metaclass=_EventMeta):
    """Base class for all verification events.

    Subclasses define ``DESCRIPTOR`` and ``FIELDS``; this base class derives
    the ``struct`` codec, a keyword constructor, equality, and the
    unit-decomposition used by Squash differencing.  At subclass-creation
    time the per-field loops are replaced by compiled codecs (see the
    module docstring) and ``__slots__`` keep instances ``__dict__``-free.

    Every event instance carries two pieces of order semantics:

    * ``core_id`` — originating DUT core.
    * ``order_tag`` — position in the global architectural check order
      (monotonically increasing per core; NDEs transmitted ahead of fused
      events carry their tag so the software can reorder them back).
    """

    __slots__ = ("core_id", "order_tag")

    DESCRIPTOR: ClassVar[EventDescriptor]
    FIELDS: ClassVar[Tuple[FieldSpec, ...]] = ()
    _STRUCT: ClassVar[struct.Struct]
    _FLAT_NAMES: ClassVar[Tuple[Tuple[str, int], ...]]
    _UNIT_SIZES: ClassVar[Tuple[int, ...]] = ()

    def __init_subclass__(cls, **kwargs: object) -> None:
        super().__init_subclass__(**kwargs)
        if not cls.FIELDS or "FIELDS" not in cls.__dict__:
            # No new layout: inherit the parent's compiled codecs.
            return
        fmt = "<" + "".join(f.code * f.count for f in cls.FIELDS)
        cls._STRUCT = struct.Struct(fmt)
        cls._FLAT_NAMES = tuple((f.name, f.count) for f in cls.FIELDS)
        sizes: List[int] = []
        for spec in cls.FIELDS:
            sizes.extend([struct.calcsize("<" + spec.code)] * spec.count)
        cls._UNIT_SIZES = tuple(sizes)
        _compile_codecs(cls)

    def __init__(self, core_id: int = 0, order_tag: int = 0,
                 **fields: object) -> None:
        # Fallback for field-less classes; subclasses with FIELDS get a
        # compiled replacement in __init_subclass__.
        generic_init(self, core_id, order_tag, **fields)

    # ------------------------------------------------------------------
    # Structural semantics: binary layout
    # ------------------------------------------------------------------
    @classmethod
    def payload_size(cls) -> int:
        """Size in bytes of the event payload (excluding the wire header)."""
        return cls._STRUCT.size

    @classmethod
    def wire_size(cls) -> int:
        """Size of the event as individually transmitted (header + payload)."""
        return HEADER_SIZE + cls._STRUCT.size

    def _flatten(self) -> List[int]:
        """Decompose the payload into fixed-order integer units."""
        return generic_flatten(self)

    def encode_payload(self) -> bytes:
        """Serialise the payload fields into their fixed binary layout."""
        return self._STRUCT.pack(*self._flatten())

    @classmethod
    def decode_payload(
        cls, data: bytes, offset: int = 0, core_id: int = 0, order_tag: int = 0
    ) -> "VerificationEvent":
        """Reconstruct an event from its binary payload at ``offset``."""
        return generic_decode_payload(cls, data, offset, core_id, order_tag)

    def encode(self) -> bytes:
        """Serialise header + payload, as the unpacked DPI-C baseline sends."""
        header = _HEADER.pack(self.DESCRIPTOR.event_id, self.core_id, self.order_tag)
        return header + self.encode_payload()

    @classmethod
    def decode(cls, data: bytes, offset: int = 0) -> "VerificationEvent":
        """Inverse of :meth:`encode`; dispatches on the type id header."""
        event_id, core_id, order_tag = _HEADER.unpack_from(data, offset)
        klass = event_class(event_id)
        return klass.decode_payload(
            data, offset + HEADER_SIZE, core_id=core_id, order_tag=order_tag
        )

    # ------------------------------------------------------------------
    # Order semantics
    # ------------------------------------------------------------------
    def is_nde(self) -> bool:
        """Whether this *instance* is non-deterministic (must be synchronised
        to the REF rather than independently reproduced by it).

        Most types are statically deterministic or non-deterministic;
        types where it depends on the instance (e.g. a load that may or may
        not target MMIO space) override this method.
        """
        return self.DESCRIPTOR.is_nde

    # ------------------------------------------------------------------
    # Differencing units (Squash)
    # ------------------------------------------------------------------
    def to_units(self) -> List[int]:
        """Decompose the payload into fixed-order integer units.

        Squash differencing XORs consecutive instances of the same type and
        transmits only the changed units; the unit granularity is one field
        element (one CSR entry, one register, one scalar field).
        """
        return self._flatten()

    @classmethod
    def from_units(
        cls, units: List[int], core_id: int = 0, order_tag: int = 0
    ) -> "VerificationEvent":
        """Rebuild an event from its unit decomposition."""
        return generic_from_units(cls, units, core_id, order_tag)

    @classmethod
    def unit_count(cls) -> int:
        return len(cls._UNIT_SIZES)

    @classmethod
    def unit_sizes(cls) -> List[int]:
        """Byte size of each unit, in unit order."""
        return list(cls._UNIT_SIZES)

    # ------------------------------------------------------------------
    # Value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.core_id == other.core_id
            and self.order_tag == other.order_tag
            and self._flatten() == other._flatten()
        )

    def __hash__(self) -> int:
        return hash((type(self), self.core_id, self.order_tag, tuple(self._flatten())))

    def __repr__(self) -> str:
        parts = [f"core={self.core_id}", f"tag={self.order_tag}"]
        for spec in self.FIELDS:
            value = getattr(self, spec.name)
            if spec.count == 1:
                parts.append(f"{spec.name}={value:#x}" if value else f"{spec.name}=0")
            else:
                parts.append(f"{spec.name}=<{spec.count} elems>")
        return f"{type(self).__name__}({', '.join(parts)})"


_REGISTRY: Dict[int, Type[VerificationEvent]] = {}
#: Flat lookup list indexed by event id.  The id space is dense (32 types,
#: ids 0..31) and :func:`event_class` is hit once per decoded event, so a
#: list index beats the dict probe on the hot loop; the dict stays the
#: canonical registry for introspection.
_CLASS_BY_ID: List[Optional[Type[VerificationEvent]]] = []


def register_event(cls: Type[VerificationEvent]) -> Type[VerificationEvent]:
    """Class decorator adding an event type to the global registry."""
    event_id = cls.DESCRIPTOR.event_id
    if event_id in _REGISTRY:
        raise ValueError(
            f"duplicate event id {event_id}: {cls.__name__} vs "
            f"{_REGISTRY[event_id].__name__}"
        )
    _REGISTRY[event_id] = cls
    if event_id >= len(_CLASS_BY_ID):
        _CLASS_BY_ID.extend([None] * (event_id + 1 - len(_CLASS_BY_ID)))
    _CLASS_BY_ID[event_id] = cls
    return cls


def event_class(event_id: int) -> Type[VerificationEvent]:
    """Look up the event class for a type id (raises ``KeyError`` if unknown)."""
    if 0 <= event_id < len(_CLASS_BY_ID):
        klass = _CLASS_BY_ID[event_id]
        if klass is not None:
            return klass
    raise KeyError(event_id)


def event_classes_by_id() -> List[Optional[Type[VerificationEvent]]]:
    """The flat id->class lookup table (``None`` for unassigned ids).

    Exposed for hot-loop consumers that want to hoist the lookup out of
    their per-event path; treat it as read-only.
    """
    return _CLASS_BY_ID


def all_event_classes() -> List[Type[VerificationEvent]]:
    """All registered event classes, ordered by event id."""
    return [_REGISTRY[i] for i in sorted(_REGISTRY)]


def aggregate_interface_size() -> int:
    """Aggregate per-cycle interface size (Section 2.2, ~11.5 KB in DiffTest).

    Sum over all event types of payload size times probe instances.
    """
    return sum(
        cls.payload_size() * cls.DESCRIPTOR.instances for cls in all_event_classes()
    )
