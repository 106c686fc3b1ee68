"""Far-fault bookkeeping.

A :class:`FarFault` records one SM access that missed device memory.  The
GMMU groups faults by chunk: while a migration for a chunk is in flight,
additional faults to pages covered by that migration merge into it (they are
resolved together, as the replayable-far-fault hardware of [9] does), and
faults to same-chunk pages *not* covered queue as fresh faults.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Set

__all__ = ["FarFault", "InFlightMigration"]


class FarFault:
    """One outstanding faulted access.

    A plain slotted record: ``sm`` is the replayer that re-issues the parked
    access once the page is resident (``sm.replay(vpn, is_write, time)``),
    normally the faulting :class:`~repro.engine.sm.StreamingMultiprocessor`
    itself, so raising a fault allocates no per-fault closure.  ``sm`` is
    the fifth positional parameter because the SMs raise one fault per far
    fault and a positional call is the cheaper one.  Anything with that
    ``replay`` method can stand in for an SM.
    """

    __slots__ = ("vpn", "sm_id", "time", "is_write", "sm")

    def __init__(
        self,
        vpn: int,
        sm_id: int,
        time: int,
        is_write: bool,
        sm: Any = None,
    ) -> None:
        self.vpn = vpn
        self.sm_id = sm_id
        self.time = time
        self.is_write = is_write
        self.sm = sm

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

    def trace_args(self) -> Dict[str, Any]:
        """Structured-event payload for the observability tracer."""
        return {
            "chunk": self.chunk_id,
            "pages": len(self.pages),
            "faults": len(self.faults),
            "token": self.token,
        }
