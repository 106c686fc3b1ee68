"""Deterministic discrete-event queue.

A heap of ``(time, seq, callback)`` tuples: the monotonically increasing
sequence number breaks time ties, so event ordering is fully deterministic
and the callback itself is never compared.  Callbacks are
``callable(time)``.  Nothing is cancellable: a scheduled event always fires.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError

__all__ = ["EventQueue"]


class EventQueue:
    """Priority queue of callbacks ordered by (time, schedule order)."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, Callable[[int], None]]] = []
        self._seq = 0
        self._now = 0

    @property
    def now(self) -> int:
        """Current simulation time (time of the last popped event)."""
        return self._now

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, time: int, callback: Callable[[int], None]) -> None:
        """Schedule ``callback`` at absolute ``time`` (must be >= now)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self._now}"
            )
        heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def schedule_after(self, delay: int, callback: Callable[[int], None]) -> None:
        """Schedule ``callback`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self.schedule(self._now + delay, callback)

    def pop(self) -> Optional[Tuple[int, Callable[[int], None]]]:
        """Pop the next event as ``(time, callback)``, advancing ``now``.

        Returns ``None`` when the queue is empty.
        """
        if not self._heap:
            return None
        time, _, callback = heappop(self._heap)
        self._now = time
        return time, callback

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue, dispatching callbacks.  Returns events dispatched.

        ``max_events`` guards against runaway simulations: it raises only
        when events are still queued after that many dispatches.
        """
        heap = self._heap
        budget = None if max_events is None else max(max_events, 0)
        for dispatched in count() if budget is None else range(budget):
            if not heap:
                return dispatched
            time, _, callback = heappop(heap)
            self._now = time
            callback(time)
        if not heap:
            return budget
        raise SimulationError(f"event budget exhausted after {budget} events")
