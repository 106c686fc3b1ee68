"""LRU pre-eviction policy — the state-of-the-art software baseline.

Chunks enter the chain at the MRU tail when migrated; any touch to a
resident page refreshes its chunk to the tail; victims are taken from the
LRU head.  Combined with the sequential-local prefetcher this is the
baseline of Figs. 8-10 (the combination proposed in [16] and [9][11]).
"""

from __future__ import annotations

from typing import List

from ..memsim.chunk_chain import ChunkEntry
from .base import EvictionPolicy

__all__ = ["LRUPolicy"]


class LRUPolicy(EvictionPolicy):
    """Least-recently-used chunk eviction."""

    name = "lru"

    def on_page_touched(self, entry: ChunkEntry, vpn: int, time: int) -> None:
        self.ctx.chain.move_to_tail(entry.chunk_id)
        entry.last_ref_interval = self.ctx.clock.current_interval

    def select_victims(self, frames_needed: int, time: int) -> List[ChunkEntry]:
        return self._take_until_enough(self.ctx.chain.from_head(), frames_needed)
