"""Reserved LRU (Ganguly et al. [16]).

Identical to LRU except that the *top* ``reserve_fraction`` of the LRU chunk
chain — the entries closest to the LRU head, which under a cyclic (thrashing)
access pattern are exactly the chunks needed soonest — is protected from
eviction.  Victims are taken starting just past the reserved region.

The paper evaluates 10% and 20% reservations (LRU-10%, LRU-20%) and shows
the gain is limited for thrashing patterns and harmful for capacity-
sensitive Type VI applications (Figs. 3 and 9), because the reservation
effectively shrinks usable capacity.
"""

from __future__ import annotations

from itertools import chain as chain_iters
from itertools import islice
from typing import List

from ..errors import ConfigError
from ..memsim.chunk_chain import ChunkEntry
from .base import EvictionPolicy

__all__ = ["ReservedLRUPolicy"]


class ReservedLRUPolicy(EvictionPolicy):
    """LRU with the head ``reserve_fraction`` of the chain protected."""

    def __init__(self, reserve_fraction: float = 0.2):
        super().__init__()
        if not 0.0 <= reserve_fraction < 1.0:
            raise ConfigError(
                f"reserve_fraction must be in [0, 1), got {reserve_fraction}"
            )
        self.reserve_fraction = reserve_fraction
        self.name = f"lru-{int(round(reserve_fraction * 100))}%"

    @property
    def current_strategy(self) -> str:
        return "lru"

    def on_page_touched(self, entry: ChunkEntry, vpn: int, time: int) -> None:
        self.ctx.chain.move_to_tail(entry.chunk_id)
        entry.last_ref_interval = self.ctx.clock.current_interval

    def select_victims(self, frames_needed: int, time: int) -> List[ChunkEntry]:
        chain = self.ctx.chain
        reserved = int(len(chain) * self.reserve_fraction)
        entries = chain.from_head()
        protected = list(islice(entries, reserved))
        # Victims come from past the reservation; only if that leaves too
        # little to evict does the search fall back to the reserved entries,
        # from the most-protected end (must evict something).
        return self._take_until_enough(
            chain_iters(entries, reversed(protected)), frames_needed
        )
