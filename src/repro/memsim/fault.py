"""Far-fault bookkeeping.

A :class:`FarFault` records one SM access that missed device memory.  The
GMMU groups faults by chunk: while a migration for a chunk is in flight,
additional faults to pages covered by that migration merge into it (they are
resolved together, as the replayable-far-fault hardware of [9] does), and
faults to same-chunk pages *not* covered queue as fresh faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set

__all__ = ["FarFault", "InFlightMigration"]


class _CallbackReplayer:
    """Adapter giving a bare ``on_resolve(time)`` callback the SM's
    ``replay(vpn, is_write, time)`` surface (faults raised outside an SM)."""

    __slots__ = ("_callback",)

    def __init__(self, callback: Callable[[int], None]) -> None:
        self._callback = callback

    def replay(self, vpn: int, is_write: bool, time: int) -> None:
        self._callback(time)


class FarFault:
    """One outstanding faulted access.

    A plain slotted record: ``sm`` is the replayer that re-issues the parked
    access once the page is resident (``sm.replay(vpn, is_write, time)``),
    normally the faulting :class:`~repro.engine.sm.StreamingMultiprocessor`
    itself, so raising a fault allocates no per-fault closure.  Callers
    without an SM pass ``on_resolve(time)`` instead.
    """

    __slots__ = ("vpn", "sm_id", "time", "is_write", "sm")

    def __init__(
        self,
        vpn: int,
        sm_id: int,
        time: int,
        is_write: bool,
        on_resolve: Optional[Callable[[int], None]] = None,
        sm: Any = None,
    ) -> None:
        self.vpn = vpn
        self.sm_id = sm_id
        self.time = time
        self.is_write = is_write
        self.sm = sm if on_resolve is None else _CallbackReplayer(on_resolve)

    def on_resolve(self, time: int) -> None:
        """Replay the parked access at ``time`` (the page is resident)."""
        self.sm.replay(self.vpn, self.is_write, time)

    def trace_args(self) -> Dict[str, Any]:
        """Structured-event payload for the observability tracer."""
        return {"vpn": self.vpn, "sm": self.sm_id, "write": self.is_write}


@dataclass
class InFlightMigration:
    """A fault-service operation the GMMU is currently executing."""

    chunk_id: int
    pages: Set[int]  # VPNs being migrated in
    faults: List[FarFault] = field(default_factory=list)
    start_time: int = 0
    finish_time: int = 0
    #: Issue-order token assigned by the GMMU; stable across processes
    #: (unlike ``id()``), so it can key bookkeeping tables.
    token: int = -1

    def covers(self, vpn: int) -> bool:
        return vpn in self.pages

    def attach(self, fault: FarFault) -> None:
        self.faults.append(fault)

    def trace_args(self) -> Dict[str, Any]:
        """Structured-event payload for the observability tracer."""
        return {
            "chunk": self.chunk_id,
            "pages": len(self.pages),
            "faults": len(self.faults),
            "token": self.token,
        }
