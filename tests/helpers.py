"""Shared helpers for policy/prefetcher unit tests."""

from __future__ import annotations

import random
from typing import List

from repro.config import SimConfig
from repro.engine.stats import SimStats
from repro.memsim.chunk_chain import ChunkChain, ChunkEntry
from repro.policies.base import EvictionPolicy, PolicyContext
from repro.prefetch.base import PrefetchContext, Prefetcher


class IntervalClock:
    """Mutable interval counter satisfying the IntervalSource protocol."""

    def __init__(self, value: int = 0):
        self.value = value

    @property
    def current_interval(self) -> int:
        return self.value


def attach_policy(
    policy: EvictionPolicy,
    config: SimConfig = None,
    seed: int = 0,
    interval: IntervalClock = None,
):
    """Attach a policy to a fresh chain/stats; returns (chain, stats, clock)."""
    chain = ChunkChain()
    stats = SimStats()
    clock = interval or IntervalClock()
    policy.attach(
        PolicyContext(
            chain=chain,
            stats=stats,
            config=config or SimConfig(),
            rng=random.Random(seed),
            clock=clock,
        )
    )
    return chain, stats, clock


def attach_prefetcher(prefetcher: Prefetcher, config: SimConfig = None) -> SimStats:
    stats = SimStats()
    prefetcher.attach(PrefetchContext(config=config or SimConfig(), stats=stats))
    return stats


def full_entry(chunk_id: int, interval: int = 0, touched: int = 0xFFFF,
               chain: ChunkChain = None) -> ChunkEntry:
    """A fully resident chunk entry with the given touched mask: a detached
    record (an eviction snapshot), or ``chain``'s own insertable entry."""
    if chain is None:
        entry = ChunkEntry(chunk_id, interval)
    else:
        entry = chain.new_entry(chunk_id, interval)
    entry.resident_mask = 0xFFFF
    entry.touched_mask = touched
    return entry


def populate(policy: EvictionPolicy, chunk_ids: List[int], interval: int = 0,
             touched: int = 0xFFFF) -> List[ChunkEntry]:
    """Insert fully resident chunks via the policy's own insert hook;
    returns the chain's live entries."""
    entries = []
    for cid in chunk_ids:
        entry = full_entry(cid, interval, touched, chain=policy.ctx.chain)
        policy.insert_chunk(entry, time=0)
        entries.append(entry)
    return entries


def never_skip(vpn: int) -> bool:
    return False


def chain_entry(chain: ChunkChain, chunk_id: int):
    """The chain's entry for ``chunk_id``, or None when it is not in it."""
    return next((e for e in chain.from_head() if e.chunk_id == chunk_id), None)


def install(page_table, vpn: int, frame: int) -> None:
    """Map ``vpn`` to ``frame`` the way migration completion does."""
    page_table._frames[page_table._ensure(vpn)] = frame


def popcount(mask: int) -> int:
    return bin(mask).count("1")


class Replayer:
    """Stands in for an SM as a fault's replayer: records each replayed
    access as ``(vpn, time)`` in ``replays`` (pass a list to share one)."""

    def __init__(self, replays: List = None):
        self.replays = [] if replays is None else replays

    def replay(self, vpn: int, is_write: bool, time: int) -> None:
        self.replays.append((vpn, time))
