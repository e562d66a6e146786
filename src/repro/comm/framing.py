"""Framed link integrity: versioned headers, sequence numbers, CRC32.

On the paper's real platforms the emulator<->host link (PCIe DMA on the
VU19P, the TBA channel on Palladium) is exactly where corruption,
truncation and drops happen — so the resilient transport wraps every
:class:`~repro.comm.packing.base.Transfer` in a small framed envelope
before it crosses the link:

.. code-block:: text

    offset  size  field
    0       4     magic      b"DTHF"
    4       1     version    frame-format version (currently 1)
    5       1     packer_id  packing scheme of the payload (dpic/fixed/batch)
    6       4     seq        u32 little-endian sequence number
    10      4     length     u32 payload byte count
    14      4     items      u32 events carried (Transfer.items)
    18      4     bubbles    u32 padding bytes carried (Transfer.bubbles)
    22      4     crc32      CRC32 over bytes [0, 22) + payload
    26      ...   payload    the packed Transfer bytes

The CRC covers the header prefix *and* the payload, so a bit flip
anywhere in the frame is detected.  ``items``/``bubbles`` ride in the
header so the receiving side reconstructs a Transfer identical to the
one the packer produced.  The ``packer_id`` names the scheme the payload
was packed under; the framework resynchronises the link whenever it
degrades the scheme, so frames of two schemes are never in flight at once.

Framing is **off the fast path**: with ``reliable=False`` (the default)
no frame is ever built and the wire format is byte-identical to the
unframed protocol.
"""

from __future__ import annotations

import struct
import zlib
from typing import Tuple, Union

#: Frame magic: DiffTest-H Frame.
MAGIC = b"DTHF"
#: Current frame-format version.
FRAME_VERSION = 1

#: magic, version, packer_id, seq, length, items, bubbles.
_PREFIX = struct.Struct("<4sBBIIII")
_CRC = struct.Struct("<I")

PREFIX_SIZE = _PREFIX.size
HEADER_SIZE = PREFIX_SIZE + _CRC.size

#: Wire ids of the packing schemes (``packer_id`` header field).
PACKER_IDS = {"dpic": 0, "fixed": 1, "batch": 2}


class FrameError(ValueError):
    """A received frame failed validation.

    ``offset`` is the byte offset within the frame where validation
    failed; ``expected``/``actual`` carry the mismatching quantity when
    one exists (length, CRC, magic).
    """

    def __init__(self, message: str, *, offset: int = 0,
                 expected=None, actual=None) -> None:
        super().__init__(message)
        self.offset = offset
        self.expected = expected
        self.actual = actual


class FrameTruncatedError(FrameError):
    """The frame is shorter than its header (or its declared length)."""


class FrameMagicError(FrameError):
    """The frame does not start with the DTHF magic."""


class FrameVersionError(FrameError):
    """The frame carries an unsupported format version."""


class FrameCrcError(FrameError):
    """The frame's CRC32 does not match its contents."""


class FrameHeader:
    """Decoded header of one frame."""

    __slots__ = ("seq", "packer_id", "length", "items", "bubbles")

    def __init__(self, seq: int, packer_id: int, length: int,
                 items: int, bubbles: int) -> None:
        self.seq = seq
        self.packer_id = packer_id
        self.length = length
        self.items = items
        self.bubbles = bubbles

    def __repr__(self) -> str:
        return (f"FrameHeader(seq={self.seq}, packer_id={self.packer_id}, "
                f"length={self.length}, items={self.items}, "
                f"bubbles={self.bubbles})")


def encode_frame(seq: int, payload: Union[bytes, memoryview],
                 packer_id: int = 0, items: int = 0,
                 bubbles: int = 0) -> bytes:
    """Wrap one packed Transfer payload in a framed envelope."""
    payload = bytes(payload)
    prefix = _PREFIX.pack(MAGIC, FRAME_VERSION, packer_id, seq,
                          len(payload), items, bubbles)
    crc = zlib.crc32(payload, zlib.crc32(prefix))
    return prefix + _CRC.pack(crc) + payload


def decode_frame(frame: Union[bytes, memoryview]
                 ) -> Tuple[FrameHeader, bytes]:
    """Validate one frame; return its header and an owned payload copy.

    Raises a :class:`FrameError` subclass on any violation — truncation,
    bad magic, unsupported version, length mismatch, CRC mismatch.  The
    payload is returned as owned ``bytes`` (frames may be retransmitted
    and buffered, so zero-copy views into them would be fragile).
    """
    frame = bytes(frame)
    if len(frame) < HEADER_SIZE:
        raise FrameTruncatedError(
            f"truncated frame: expected at least {HEADER_SIZE} header "
            f"bytes, got {len(frame)}",
            offset=len(frame), expected=HEADER_SIZE, actual=len(frame))
    magic, version, packer_id, seq, length, items, bubbles = \
        _PREFIX.unpack_from(frame, 0)
    if magic != MAGIC:
        raise FrameMagicError(
            f"bad frame magic {magic!r} (expected {MAGIC!r})",
            offset=0, expected=MAGIC, actual=magic)
    if version != FRAME_VERSION:
        raise FrameVersionError(
            f"unsupported frame version {version} "
            f"(expected {FRAME_VERSION})",
            offset=4, expected=FRAME_VERSION, actual=version)
    actual_payload = len(frame) - HEADER_SIZE
    if length != actual_payload:
        raise FrameTruncatedError(
            f"frame length mismatch: header declares {length} payload "
            f"bytes, frame carries {actual_payload}",
            offset=HEADER_SIZE + min(length, actual_payload),
            expected=length, actual=actual_payload)
    (crc,) = _CRC.unpack_from(frame, PREFIX_SIZE)
    computed = zlib.crc32(frame[HEADER_SIZE:],
                          zlib.crc32(frame[:PREFIX_SIZE]))
    if crc != computed:
        raise FrameCrcError(
            f"frame CRC mismatch: header {crc:#010x}, "
            f"computed {computed:#010x}",
            offset=PREFIX_SIZE, expected=crc, actual=computed)
    return (FrameHeader(seq, packer_id, length, items, bubbles),
            frame[HEADER_SIZE:])
