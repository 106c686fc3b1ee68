"""HPE — the prior counter-based policy (repro.policies.hpe)."""

from repro.engine.stats import IntervalRecord
from repro.policies.hpe import HPEPolicy

from helpers import IntervalClock, attach_policy, full_entry, populate


def polluted_entry(policy, chunk_id, counter):
    entry = full_entry(chunk_id, chain=policy.ctx.chain)
    entry.counter = counter
    return entry


class TestClassification:
    def _classified(self, counters):
        policy = HPEPolicy()
        attach_policy(policy)
        for i, c in enumerate(counters):
            policy.insert_chunk(polluted_entry(policy, i, c), 0)
        policy.on_memory_full(0)
        return policy

    def test_high_counters_classified_regular(self):
        policy = self._classified([16] * 8)
        assert policy._category == "regular"
        assert policy.current_strategy == "mru"

    def test_low_counters_classified_irregular1(self):
        policy = self._classified([1] * 8)
        assert policy._category == "irregular1"
        assert policy.current_strategy == "lru"

    def test_medium_counters_classified_irregular2(self):
        policy = self._classified([8] * 8)
        assert policy._category == "irregular2"
        assert policy.current_strategy == "lru"

    def test_counter_pollution_misclassifies(self):
        # Inefficiency 1: with prefetching the GMMU sets counters to the
        # migrated page count, so *any* application looks 'regular'.
        policy = self._classified([16] * 8)  # all polluted to chunk size
        assert policy._category == "regular"


class TestTouchUpdates:
    def test_touch_increments_counter_and_moves(self):
        policy = HPEPolicy()
        chain, _, _ = attach_policy(policy)
        entries = populate(policy, [1, 2])
        entries[0].counter = 0
        policy.on_page_touched(entries[0], vpn=16, time=0)
        assert entries[0].counter == 1
        assert [e.chunk_id for e in chain.from_head()] == [2, 1]

    def test_counter_saturates_at_16(self):
        policy = HPEPolicy()
        attach_policy(policy)
        entries = populate(policy, [1])
        entries[0].counter = 16
        policy.on_page_touched(entries[0], vpn=16, time=0)
        assert entries[0].counter == 16


class TestMRUCSelection:
    def test_qualified_chunks_first(self):
        policy = HPEPolicy()
        clock = IntervalClock(0)
        attach_policy(policy, interval=clock)
        for cid, counter in ((1, 16), (2, 2), (3, 16)):
            policy.insert_chunk(polluted_entry(policy, cid, counter), 0)
        clock.value = 3  # everything old
        policy.on_memory_full(0)
        policy._strategy = "mru-c"
        policy._qualify_threshold = 10
        victims = policy.select_victims(16, 0)
        # MRU-first among qualified (counter >= 10): 3 before 1; 2 is last.
        assert victims[0].chunk_id == 3

    def test_lru_strategy_selects_head(self):
        policy = HPEPolicy()
        clock = IntervalClock(3)
        attach_policy(policy, interval=clock)
        populate(policy, [1, 2, 3])
        clock.value = 6
        policy._strategy = "lru"
        assert policy.select_victims(16, 0)[0].chunk_id == 1


class TestWrongEvictionSwitching:
    def test_irregular2_switches_on_wrong_evictions(self):
        policy = HPEPolicy()
        attach_policy(policy)
        policy._category = "irregular2"
        policy._strategy = "lru"
        policy.on_chunk_evicted(full_entry(9), 0)
        policy.on_fault(9 * 16, 9, 0)
        policy.on_fault(10 * 16, 10, 0)
        policy._evicted_buffer.append(10)
        policy.on_fault(10 * 16, 10, 0)
        policy.on_interval_end(IntervalRecord(index=0), 0)
        assert policy._strategy == "mru-c"

    def test_regular_never_switches(self):
        policy = HPEPolicy()
        _, stats, _ = attach_policy(policy)
        policy._category = "regular"
        policy._strategy = "mru-c"
        policy._wrong_this_interval = 10
        policy.on_interval_end(IntervalRecord(index=0), 0)
        assert policy._strategy == "mru-c"

    def test_wrong_eviction_counted_once_per_chunk(self):
        policy = HPEPolicy()
        _, stats, _ = attach_policy(policy)
        policy.on_chunk_evicted(full_entry(5), 0)
        policy.on_fault(80, 5, 0)
        policy.on_fault(81, 5, 0)
        assert stats.wrong_evictions == 1
