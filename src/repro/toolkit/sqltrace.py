"""SQL analysis support (tuning toolkit, Section 5).

Records online transmission data in a SQLite database for offline
analysis, and re-simulates what-if fusion/differencing strategies on the
recorded trace — "fully exploiting event correlations" without re-running
the DUT.

A file-backed :class:`TraceDb` opens with WAL journaling, so readers
never block the writer, and ``synchronous=NORMAL``, so a commit costs
one fsync of the WAL instead of two of the main file (a power loss can
lose the final commit, never corrupt the database).
"""

from __future__ import annotations

import sqlite3
from typing import Iterable, List, Tuple

from ..comm.fusion.squash import OrderCoupledFuser, SquashFuser
from ..events import VerificationEvent, event_class


_SCHEMA = """
CREATE TABLE IF NOT EXISTS events (
    seq        INTEGER PRIMARY KEY AUTOINCREMENT,
    cycle      INTEGER NOT NULL,
    core_id    INTEGER NOT NULL,
    order_tag  INTEGER NOT NULL,
    type_id    INTEGER NOT NULL,
    type_name  TEXT NOT NULL,
    is_nde     INTEGER NOT NULL,
    size       INTEGER NOT NULL,
    payload    BLOB NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_events_type ON events(type_id);
CREATE INDEX IF NOT EXISTS idx_events_cycle ON events(cycle);
"""


class TraceDb:
    """A SQLite-backed event trace."""

    def __init__(self, path: str = ":memory:") -> None:
        # In-memory databases ignore the WAL pragma (they have no
        # journal); the connection is still valid, just not durable.
        self._db = sqlite3.connect(path)
        self._db.execute("PRAGMA journal_mode=WAL")
        self._db.execute("PRAGMA synchronous=NORMAL")
        self._db.executescript(_SCHEMA)
        self._closed = False

    def close(self) -> None:
        """Release the connection (idempotent)."""
        if not self._closed:
            self._db.close()
            self._closed = True

    def __enter__(self) -> "TraceDb":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_cycle(self, cycle: int,
                     events: Iterable[VerificationEvent]) -> None:
        rows = [
            (cycle, event.core_id, event.order_tag,
             event.DESCRIPTOR.event_id, type(event).__name__,
             int(event.is_nde()), event.payload_size(),
             event.encode_payload())
            for event in events
        ]
        self._db.executemany(
            "INSERT INTO events (cycle, core_id, order_tag, type_id, "
            "type_name, is_nde, size, payload) VALUES (?,?,?,?,?,?,?,?)",
            rows)
        self._db.commit()

    # ------------------------------------------------------------------
    # Offline analysis queries
    # ------------------------------------------------------------------
    def volume_by_type(self) -> List[Tuple[str, int, int]]:
        """(type name, count, total bytes) descending by bytes."""
        cursor = self._db.execute(
            "SELECT type_name, COUNT(*), SUM(size) FROM events "
            "GROUP BY type_name ORDER BY SUM(size) DESC")
        return cursor.fetchall()

    def nde_fraction(self) -> float:
        (ndes,) = self._db.execute(
            "SELECT COUNT(*) FROM events WHERE is_nde = 1").fetchone()
        (total,) = self._db.execute("SELECT COUNT(*) FROM events").fetchone()
        return ndes / total if total else 0.0

    def events_per_cycle(self) -> float:
        row = self._db.execute(
            "SELECT COUNT(*), MAX(cycle) FROM events").fetchone()
        count, max_cycle = row
        return count / max_cycle if max_cycle else 0.0

    def cycles(self) -> List[Tuple[int, List[VerificationEvent]]]:
        """Reload the trace grouped by cycle (insertion order preserved)."""
        cursor = self._db.execute(
            "SELECT cycle, core_id, order_tag, type_id, payload FROM events "
            "ORDER BY seq")
        grouped: List[Tuple[int, List[VerificationEvent]]] = []
        for cycle, core_id, tag, type_id, payload in cursor:
            event = event_class(type_id).decode_payload(
                payload, core_id=core_id, order_tag=tag)
            if grouped and grouped[-1][0] == cycle:
                grouped[-1][1].append(event)
            else:
                grouped.append((cycle, [event]))
        return grouped

    # ------------------------------------------------------------------
    # What-if strategy simulation
    # ------------------------------------------------------------------
    def simulate_fusion(self, window: int = 32, differencing: bool = True,
                        order_coupled: bool = False) -> dict:
        """Re-run a fusion/differencing strategy over the recorded trace.

        Returns transmitted-bytes and fusion metrics, letting the user
        explore strategies offline (the paper's SQL backend use case).
        """
        fuser_cls = OrderCoupledFuser if order_coupled else SquashFuser
        fuser = fuser_cls(window=window, differencing=differencing)
        raw_bytes = 0
        wire_bytes = 0
        items_out = 0
        for _cycle, events in self.cycles():
            raw_bytes += sum(event.payload_size() for event in events)
            for item in fuser.on_cycle(events):
                wire_bytes += len(item.payload)
                items_out += 1
        for item in fuser.flush():
            wire_bytes += len(item.payload)
            items_out += 1
        return {
            "raw_bytes": raw_bytes,
            "wire_bytes": wire_bytes,
            "reduction": raw_bytes / wire_bytes if wire_bytes else float("inf"),
            "fusion_ratio": fuser.stats.fusion_ratio,
            "fusion_breaks": fuser.stats.fusion_breaks,
            "items_out": items_out,
        }
