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

from collections import deque
from typing import Deque, List, Optional

from ..obs import ObsContext, resolve_obs
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

    def __len__(self) -> int:
        return len(self._queue)
