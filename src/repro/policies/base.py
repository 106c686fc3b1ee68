"""Eviction policy interface.

The memory system owns the *mechanism* (chunk chain bookkeeping, touch
bit-vectors, unmapping, interval ticks); a policy owns the *decisions*:

* where a newly migrated chunk enters the chain (:meth:`insert_chunk`);
* whether a page touch refreshes chain recency (:meth:`on_page_touched`);
* which chunks to evict when frames are needed (:meth:`select_victims`);
* how to react to faults, evictions, and interval boundaries.

The touched bit-vector on each :class:`~repro.memsim.chunk_chain.ChunkEntry`
is maintained by the mechanism layer regardless of policy — it models
page-table access bits that the driver reads back at unmap time.

Policies never see the memory system itself: :class:`PolicyContext` hands
them exactly the pieces they may consult, and interval geometry arrives
through the :class:`IntervalSource` stage protocol (implemented by
:class:`repro.memsim.system.IntervalClock`) rather than a callback into
mechanism internals.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, List, Protocol

from ..config import SimConfig
from ..engine.stats import IntervalRecord, SimStats
from ..errors import SimulationError
from ..memsim.chunk_chain import ChunkChain, ChunkEntry
from ..obs import DISABLED, Observability

__all__ = ["IntervalSource", "ZERO_CLOCK", "PolicyContext", "EvictionPolicy"]


class IntervalSource(Protocol):
    """Stage protocol: a read-only view of the interval clock.

    The chain partitions ("new"/"middle"/"old") and every adaptive policy
    decision are phrased in intervals (64 migrated pages), so this is the
    only piece of mechanism state a policy may *read* at decision time.
    """

    @property
    def current_interval(self) -> int: ...


class _FixedClock:
    """Interval source pinned to interval 0 (detached-policy default)."""

    __slots__ = ()

    @property
    def current_interval(self) -> int:
        return 0


#: Stateless default clock; shared safely by every detached policy.
ZERO_CLOCK: IntervalSource = _FixedClock()


@dataclass
class PolicyContext:
    """Everything a policy may consult, handed over at attach time."""

    chain: ChunkChain
    stats: SimStats
    config: SimConfig
    rng: random.Random
    #: Interval geometry, via the stage protocol (not a mechanism callback).
    clock: IntervalSource = field(default=ZERO_CLOCK)
    #: Observability sink (tracer + metrics registry); the DISABLED
    #: singleton is stateless, so sharing it as a default is safe.
    obs: Observability = DISABLED


class EvictionPolicy:
    """Base class with no-op hooks.  Subclasses override what they need."""

    #: Human-readable policy name for reports.
    name: str = "base"

    def __init__(self) -> None:
        self.ctx: PolicyContext = None  # type: ignore[assignment]

    # --- lifecycle ---------------------------------------------------------

    def attach(self, ctx: PolicyContext) -> None:
        """Called once by the memory system before simulation starts."""
        self.ctx = ctx

    # --- chain events ------------------------------------------------------

    def insert_chunk(self, entry: ChunkEntry, time: int) -> None:
        """Place a newly migrated chunk into the chain (default: MRU tail)."""
        self.ctx.chain.insert_tail(entry)

    def on_page_touched(self, entry: ChunkEntry, vpn: int, time: int) -> None:
        """A resident page was touched (after the bit-vectors were updated)."""

    def on_fault(self, vpn: int, chunk_id: int, time: int) -> None:
        """A far fault was raised (before servicing)."""

    def on_chunk_evicted(self, entry: ChunkEntry, time: int) -> None:
        """A victim this policy selected has been evicted."""

    def on_memory_full(self, time: int) -> None:
        """Device memory reached capacity for the first time."""

    def on_interval_end(self, record: IntervalRecord, time: int) -> None:
        """An interval (64 migrated pages) completed.  ``record`` is partially
        filled by the interval clock (index, faults, evictions); policies add
        strategy telemetry."""

    # --- the decision ------------------------------------------------------

    def select_victims(self, frames_needed: int, time: int) -> List[ChunkEntry]:
        """Choose chunks whose resident pages cover ``frames_needed`` frames.

        Entries are returned in eviction order and must still be in the
        chain; the eviction service removes them, unmaps their pages and
        then calls :meth:`on_chunk_evicted` for each.
        """
        raise NotImplementedError

    # --- reporting ----------------------------------------------------------

    @property
    def current_strategy(self) -> str:
        """'lru', 'mru', 'random', ... — consumed by the pattern buffer
        (which only records under LRU) and by reports."""
        return self.name

    # --- shared helpers -----------------------------------------------------

    def _take_until_enough(
        self, ordered: Iterable[ChunkEntry], frames_needed: int
    ) -> List[ChunkEntry]:
        """Take a prefix of ``ordered`` covering ``frames_needed`` frames.

        ``ordered`` may be a lazy iterator (e.g. ``chain.from_head()``): it
        is consumed only up to the last victim, so a victim search visits a
        prefix of the chain rather than all of it.
        """
        victims: List[ChunkEntry] = []
        freed = 0
        if frames_needed <= 0:
            return victims
        for entry in ordered:
            pages = entry.resident_pages
            if pages == 0:
                continue
            victims.append(entry)
            freed += pages
            if freed >= frames_needed:
                return victims
        raise SimulationError(
            f"{self.name}: cannot free {frames_needed} frames; only "
            f"{freed} evictable (chain length {len(self.ctx.chain)})"
        )
