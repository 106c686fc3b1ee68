"""Page walk cache + threaded walker (repro.translation)."""

import pytest

from repro.config import PageWalkCacheConfig, WalkerConfig
from repro.memsim.page_table import PageTable
from repro.translation.page_walk_cache import PageWalkCache
from repro.translation.walker import PageTableWalker

from helpers import install


def make_walker(concurrent=2, levels=4, mem_latency=100):
    pt = PageTable(levels=levels)
    pwc = PageWalkCache(PageWalkCacheConfig())
    walker = PageTableWalker(
        WalkerConfig(
            concurrent_walks=concurrent, levels=levels,
            memory_access_latency=mem_latency,
        ),
        pt,
        pwc,
    )
    return pt, pwc, walker


class TestPageWalkCache:
    def test_miss_then_hit(self):
        pwc = PageWalkCache(PageWalkCacheConfig())
        key = (0, 42)
        assert not pwc.lookup(key)
        pwc.insert(key)
        assert pwc.lookup(key)

    def test_flush(self):
        pwc = PageWalkCache(PageWalkCacheConfig())
        pwc.insert((1, 1))
        pwc.flush()
        assert pwc.occupancy() == 0

    def test_replacement_bounded_by_associativity(self):
        cfg = PageWalkCacheConfig(size_bytes=64, associativity=4, entry_bytes=8)
        pwc = PageWalkCache(cfg)
        for i in range(100):
            pwc.insert((0, i))
        assert pwc.occupancy() <= cfg.entries


class TestWalkLatency:
    def test_cold_walk_fetches_all_levels(self):
        pt, pwc, walker = make_walker()
        latency, resident = walker.walk(100, time=0)
        # PWC probe + 4 memory accesses.
        assert latency == pwc.latency + 4 * 100
        assert not resident  # nothing mapped

    def test_warm_walk_skips_cached_levels(self):
        pt, pwc, walker = make_walker()
        walker.walk(100, time=0)
        # Second walk to a nearby vpn shares all interior nodes: only the
        # leaf level must be fetched.
        latency, _ = walker.walk(101, time=1000)
        assert latency == pwc.latency + 1 * 100

    def test_resident_detection(self):
        pt, pwc, walker = make_walker()
        install(pt, 100, 0)
        _, resident = walker.walk(100, time=0)
        assert resident

    def test_walk_counter(self):
        pt, pwc, walker = make_walker()
        walker.walk(1, 0)
        walker.walk(2, 0)
        assert walker.walks == 2


class TestWalkerConcurrency:
    def test_queueing_delay_when_saturated(self):
        pt, pwc, walker = make_walker(concurrent=1)
        first, _ = walker.walk(0, time=0)
        # Second walk at the same instant must wait for the first to retire.
        second, _ = walker.walk(1 << 20, time=0)
        assert second > first

    def test_no_delay_after_walks_retire(self):
        pt, pwc, walker = make_walker(concurrent=1)
        lat1, _ = walker.walk(0, time=0)
        lat2, _ = walker.walk(1 << 20, time=lat1 + 1)
        assert walker.total_queue_delay == 0
        assert lat2 <= lat1

    def test_parallel_walks_within_limit(self):
        pt, pwc, walker = make_walker(concurrent=8)
        for i in range(8):
            walker.walk(i << 20, time=0)
        assert walker.total_queue_delay == 0
