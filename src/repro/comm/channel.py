"""The hardware/software communication unit.

The channel carries :class:`~repro.comm.packing.base.Transfer` objects
from the acceleration unit to the software checker, counting invocations
and bytes for the LogGP model.

**Non-blocking mode** models the send/receive queues of Section 4.5: the
hardware keeps running while transfers are in flight, and the bounded
send queue (``queue_depth`` entries) applies backpressure when software
falls behind.  A send that finds the queue at or above ``queue_depth``
occupancy *after* enqueueing means the hardware produced into a full
queue and would stall that cycle; every such send counts one
``backpressure_events``.  (The queue itself never drops or blocks —
backpressure is an accounting signal for the time model, not a transport
limit.)

**Blocking mode** is the step-and-compare handshake: every transfer is a
synchronous round trip, so the hardware can never run ahead of software
and a send queue cannot build up.  ``queue_depth`` is deliberately not
applied and ``backpressure_events`` stays zero — the blocking cost is
charged per-invocation by the LogGP model (``t_sync_us`` plus the
per-cycle ``gate_cycles`` term), not as queue pressure.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional

from ..obs import ObsContext, resolve_obs
from .framing import FrameError, decode_frame, encode_frame
from .packing.base import Transfer


class Channel:
    """A counted, optionally non-blocking transfer queue."""

    def __init__(self, nonblocking: bool = False, queue_depth: int = 64,
                 obs: Optional[ObsContext] = None) -> None:
        self.nonblocking = nonblocking
        self.queue_depth = queue_depth
        self._queue: Deque[Transfer] = deque()
        self.invokes = 0
        self.bytes_sent = 0
        self.max_occupancy = 0
        self.backpressure_events = 0
        obs = resolve_obs(obs)
        self._obs_on = obs.enabled
        self._h_transfer_bytes = obs.registry.histogram("comm.transfer_bytes")
        self._g_occupancy = obs.registry.gauge("comm.queue_occupancy")

    # ------------------------------------------------------------------
    def send(self, transfer: Transfer) -> None:
        """Hardware side: enqueue one transfer.

        In non-blocking mode, a post-append occupancy of ``queue_depth``
        or more means the queue was already full when the hardware
        produced this transfer — the send stalls and is counted in
        ``backpressure_events``.  Occupancy exactly at depth *is* stall
        pressure: a full queue leaves no room for the next producer.
        """
        self.invokes += 1
        self.bytes_sent += transfer.size
        self._queue.append(transfer)
        occupancy = len(self._queue)
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy
        if self.nonblocking and occupancy >= self.queue_depth:
            self.backpressure_events += 1
        if self._obs_on:
            self._h_transfer_bytes.observe(transfer.size)
            self._g_occupancy.set_max(occupancy)

    def send_all(self, transfers: List[Transfer]) -> None:
        for transfer in transfers:
            self.send(transfer)

    # ------------------------------------------------------------------
    def receive(self) -> Optional[Transfer]:
        """Software side: dequeue the next transfer (None when empty)."""
        if self._queue:
            return self._queue.popleft()
        return None

    def drain(self) -> List[Transfer]:
        out = list(self._queue)
        self._queue.clear()
        return out

    def __len__(self) -> int:
        return len(self._queue)


class LinkFailure(Exception):
    """An unrecoverable link-level failure.

    Raised by :class:`ReliableChannel` when a frame cannot be recovered:
    retransmission retries exhausted (``kind="exhausted"``), the frame
    evicted from the bounded retransmit buffer (``"evicted"``), or lost
    to a link reset (``"reset"``).  The framework reacts by restoring
    the latest recovery snapshot (and possibly degrading the transport)
    or, failing that, by reporting a structured transport error — never
    a DUT mismatch.
    """

    def __init__(self, kind: str, seq: int, detail: str) -> None:
        super().__init__(f"link failure ({kind}) at seq {seq}: {detail}")
        self.kind = kind
        self.seq = seq
        self.detail = detail


class ReliableChannel(Channel):
    """A framed, CRC-checked channel with retransmission and backoff.

    The sender side wraps every transfer in a
    :mod:`~repro.comm.framing` envelope (magic, version, seq, length,
    CRC32) and keeps the last ``retransmit_slots`` frames in a bounded
    retransmit buffer.  The receiver side validates each frame, discards
    duplicates, holds out-of-order frames in a reorder buffer, and —
    when the next expected sequence number is missing with nothing in
    flight — requests retransmission with capped exponential backoff.
    Every retransmission re-traverses the (possibly faulty) link and is
    charged to the LogGP time model via ``recovery_us`` plus one extra
    ``t_sync_us`` round trip per retransmit.

    ``invokes``/``bytes_sent`` count *physical* transmissions, so framing
    overhead and retransmissions show up in the modeled time.  An
    optional :class:`~repro.comm.linkfaults.LinkFaultInjector` sits
    between ``send`` and the queue.

    Unrecoverable conditions raise :class:`LinkFailure`;
    ``consecutive_failures`` counts them since the last clean delivery,
    which drives the framework's degradation ladder.
    """

    def __init__(self, nonblocking: bool = False, queue_depth: int = 64,
                 obs: Optional[ObsContext] = None,
                 injector=None, max_retries: int = 6,
                 backoff_base_us: float = 50.0,
                 backoff_cap_us: float = 10_000.0,
                 retransmit_slots: int = 64, packer_id: int = 0) -> None:
        super().__init__(nonblocking=nonblocking, queue_depth=queue_depth,
                         obs=obs)
        self._frames: Deque[bytes] = deque()  # in-flight frames
        self._injector = injector
        self.max_retries = max_retries
        self.backoff_base_us = backoff_base_us
        self.backoff_cap_us = backoff_cap_us
        self.retransmit_slots = retransmit_slots
        #: Packing scheme stamped into outgoing frame headers.
        self.packer_id = packer_id
        self._retransmit: "OrderedDict[int, bytes]" = OrderedDict()
        self._reorder: Dict[int, Transfer] = {}
        self._retry_counts: Dict[int, int] = {}
        self._next_seq = 0
        self._expected = 0
        self._reset_seen = False
        # Link-integrity counters (folded into CommCounters at _finish).
        self.crc_errors = 0
        self.retransmits = 0
        self.frames_dropped = 0  # distinct frames detected as lost
        self.duplicates = 0
        self.resets = 0
        self.recovery_us = 0.0  # modeled backoff charged to recovery
        self.consecutive_failures = 0
        self._rel_tracer = resolve_obs(obs).tracer

    # -- sender side ---------------------------------------------------
    def send(self, transfer: Transfer) -> None:
        seq = self._next_seq
        self._next_seq = seq + 1
        frame = encode_frame(seq, transfer.data, packer_id=self.packer_id,
                             items=transfer.items, bubbles=transfer.bubbles)
        buffer = self._retransmit
        buffer[seq] = frame
        while len(buffer) > self.retransmit_slots:
            buffer.popitem(last=False)
        self._transmit(frame)

    def _transmit(self, frame: bytes) -> None:
        """One physical transmission (first send or retransmission)."""
        self.invokes += 1
        self.bytes_sent += len(frame)
        if self._injector is None:
            self._frames.append(frame)
        else:
            for delivered in self._injector.apply(frame):
                self._frames.append(delivered)
            if self._injector.reset_pending:
                self._injector.reset_pending = False
                self._link_reset()
        occupancy = len(self._frames)
        if occupancy > self.max_occupancy:
            self.max_occupancy = occupancy
        if self.nonblocking and occupancy >= self.queue_depth:
            self.backpressure_events += 1
        if self._obs_on:
            self._h_transfer_bytes.observe(len(frame))
            self._g_occupancy.set_max(occupancy)

    def _link_reset(self) -> None:
        """A reset fault fired: all in-flight state is lost."""
        self.resets += 1
        self._frames.clear()
        self._retransmit.clear()
        self._reset_seen = True

    # -- receiver side -------------------------------------------------
    def receive(self) -> Optional[Transfer]:
        """Deliver the next in-sequence transfer, recovering as needed.

        Returns ``None`` only when every sent frame has been delivered.
        Raises :class:`LinkFailure` when the next expected frame is
        unrecoverable.
        """
        while True:
            stashed = self._reorder.pop(self._expected, None)
            if stashed is not None:
                return self._deliver(stashed)
            if not self._frames:
                if self._injector is not None:
                    released = self._injector.flush()
                    if released:
                        self._frames.extend(released)
                        continue
                if self._expected >= self._next_seq:
                    return None  # fully drained
                self._recover_expected()
                continue
            raw = self._frames.popleft()
            try:
                header, payload = decode_frame(raw)
            except FrameError:
                # Corrupted beyond attribution; the seq-gap logic will
                # recover whichever frame this was.
                self.crc_errors += 1
                continue
            if header.seq < self._expected:
                self.duplicates += 1
                continue
            transfer = Transfer(payload, items=header.items,
                                bubbles=header.bubbles)
            if header.seq == self._expected:
                return self._deliver(transfer)
            self._reorder[header.seq] = transfer

    def _deliver(self, transfer: Transfer) -> Transfer:
        seq = self._expected
        self._expected = seq + 1
        self._retransmit.pop(seq, None)
        self._retry_counts.pop(seq, None)
        self.consecutive_failures = 0
        return transfer

    def _recover_expected(self) -> None:
        """The expected frame is missing with nothing in flight:
        retransmit it (with capped exponential backoff), or fail."""
        seq = self._expected
        frame = self._retransmit.get(seq)
        if frame is None:
            if self._reset_seen:
                self._fail("reset", seq,
                           "frame lost to a link reset (retransmit "
                           "buffer wiped)")
            self._fail("evicted", seq,
                       f"frame evicted from the {self.retransmit_slots}-"
                       f"slot retransmit buffer")
        retries = self._retry_counts.get(seq, 0)
        if retries >= self.max_retries:
            self._fail("exhausted", seq,
                       f"{retries} retransmissions failed")
        self._retry_counts[seq] = retries + 1
        self.retransmits += 1
        if retries == 0:
            self.frames_dropped += 1
        self.recovery_us += min(self.backoff_base_us * (2.0 ** retries),
                                self.backoff_cap_us)
        if self._obs_on:
            with self._rel_tracer.span("recovery"):
                self._transmit(frame)
        else:
            self._transmit(frame)

    def _fail(self, kind: str, seq: int, detail: str) -> None:
        self.consecutive_failures += 1
        raise LinkFailure(kind, seq, detail)

    # ------------------------------------------------------------------
    def reset_link(self) -> None:
        """Resynchronise after the framework restored a recovery point:
        drop all in-flight state and expect the next fresh sequence."""
        self._frames.clear()
        self._reorder.clear()
        self._retransmit.clear()
        self._retry_counts.clear()
        self._expected = self._next_seq
        self._reset_seen = False
        if self._injector is not None:
            self._injector.clear_held()

    def drain(self) -> List[Transfer]:
        out: List[Transfer] = []
        while True:
            transfer = self.receive()
            if transfer is None:
                return out
            out.append(transfer)

    def __len__(self) -> int:
        return len(self._frames) + len(self._reorder)
