"""MHPE — Algorithm 1 (repro.policies.mhpe)."""

import pytest

from repro.config import MHPEConfig, SimConfig
from repro.engine.stats import IntervalRecord
from repro.memsim.chunk_chain import ChunkEntry
from repro.policies.mhpe import MHPEPolicy, untouch_bucket

from helpers import IntervalClock, attach_policy, full_entry, populate


def evicted_entry(chunk_id, untouch):
    """A fully migrated chunk with ``untouch`` untouched pages."""
    touched = (1 << (16 - untouch)) - 1
    return full_entry(chunk_id, touched=touched)


def end_interval(policy, index=0, time=0):
    record = IntervalRecord(index=index)
    policy.on_interval_end(record, time)
    return record


class TestUntouchBucket:
    def test_paper_ranges(self):
        # [0-3]=0, [4-10]=1, [11-17]=2, [18-24]=3, [25-31]=4 (Section VI-A).
        assert untouch_bucket(0) == 0
        assert untouch_bucket(3) == 0
        assert untouch_bucket(4) == 1
        assert untouch_bucket(10) == 1
        assert untouch_bucket(11) == 2
        assert untouch_bucket(17) == 2
        assert untouch_bucket(18) == 3
        assert untouch_bucket(24) == 3
        assert untouch_bucket(25) == 4
        assert untouch_bucket(31) == 4

    def test_at_or_above_t1_saturates(self):
        assert untouch_bucket(32) == 4
        assert untouch_bucket(1000) == 4

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            untouch_bucket(-1)


class TestInitialForwardDistance:
    def _fd_for_chain(self, n_chunks):
        policy = MHPEPolicy()
        attach_policy(policy)
        populate(policy, list(range(n_chunks)))
        policy.on_memory_full(time=0)
        return policy.forward_distance

    def test_clamped_low(self):
        # chain_len // 100 == 0 -> clamp to 2.
        assert self._fd_for_chain(50) == 2

    def test_in_range(self):
        assert self._fd_for_chain(400) == 4

    def test_clamped_high(self):
        assert self._fd_for_chain(2000) == 8

    def test_memory_full_idempotent(self):
        policy = MHPEPolicy()
        attach_policy(policy)
        populate(policy, list(range(400)))
        policy.on_memory_full(0)
        policy.forward_distance = 99
        policy.on_memory_full(1)  # second call must not recompute
        assert policy.forward_distance == 99


class TestEvictedBufferSizing:
    def test_minimum_is_8(self):
        policy = MHPEPolicy()
        _, stats, _ = attach_policy(policy)
        populate(policy, list(range(10)))
        policy.on_memory_full(0)
        assert stats.evicted_buffer_length == 8

    def test_scales_with_chain(self):
        policy = MHPEPolicy()
        _, stats, _ = attach_policy(policy)
        populate(policy, list(range(200)))
        policy.on_memory_full(0)
        # max(8, 8 * (200 // 64)) = 24.
        assert stats.evicted_buffer_length == 24


class TestStrategySwitch:
    def _full_policy(self, **cfg):
        policy = MHPEPolicy(MHPEConfig(**cfg)) if cfg else MHPEPolicy()
        chain, stats, clock = attach_policy(policy)
        populate(policy, list(range(8)))
        policy.on_memory_full(0)
        return policy, stats

    def test_starts_with_mru(self):
        policy, _ = self._full_policy()
        assert policy.strategy == "mru"
        assert policy.current_strategy == "mru"

    def test_t1_switches_in_one_interval(self):
        policy, stats = self._full_policy()
        policy.on_chunk_evicted(evicted_entry(100, 16), 0)
        policy.on_chunk_evicted(evicted_entry(101, 16), 0)
        end_interval(policy)  # U1 = 32 >= T1
        assert policy.strategy == "lru"
        assert stats.strategy_switch_time is not None

    def test_below_t1_no_switch(self):
        policy, _ = self._full_policy()
        policy.on_chunk_evicted(evicted_entry(100, 16), 0)
        end_interval(policy)  # U1 = 16 < 32
        assert policy.strategy == "mru"

    def test_t2_cumulative_switch_at_fourth_interval(self):
        policy, _ = self._full_policy()
        # 12 untouch per interval: below T1 but 48 >= T2 cumulatively.
        for i in range(4):
            policy.on_chunk_evicted(evicted_entry(100 + i, 12), 0)
            end_interval(policy, index=i)
        assert policy.strategy == "lru"

    def test_t2_not_checked_after_fourth_interval(self):
        policy, _ = self._full_policy()
        for i in range(4):
            policy.on_chunk_evicted(evicted_entry(100 + i, 8), 0)
            end_interval(policy, index=i)
        assert policy.strategy == "mru"  # 32 < 40 at 4th interval
        # Interval 5 onward: high cumulative total must NOT trigger T2.
        policy.on_chunk_evicted(evicted_entry(200, 10), 0)
        policy.on_chunk_evicted(evicted_entry(201, 10), 0)
        end_interval(policy, index=4)
        assert policy.strategy == "mru"

    def test_switch_is_one_way(self):
        policy, _ = self._full_policy()
        policy.on_chunk_evicted(evicted_entry(100, 16), 0)
        policy.on_chunk_evicted(evicted_entry(101, 16), 0)
        end_interval(policy)
        assert policy.strategy == "lru"
        # Quiet intervals afterwards never switch back to MRU.
        for i in range(5):
            end_interval(policy, index=i + 1)
        assert policy.strategy == "lru"

    def test_switch_disabled_flag(self):
        policy, _ = self._full_policy(switch_enabled=False)
        policy.on_chunk_evicted(evicted_entry(100, 16), 0)
        policy.on_chunk_evicted(evicted_entry(101, 16), 0)
        end_interval(policy)
        assert policy.strategy == "mru"

    def test_no_adaptation_before_memory_full(self):
        policy = MHPEPolicy()
        attach_policy(policy)
        populate(policy, list(range(8)))
        end_interval(policy)  # memory never filled
        assert policy.strategy == "mru"
        assert policy.forward_distance == 0


class TestForwardDistanceAdjustment:
    def _policy(self, **cfg):
        policy = MHPEPolicy(MHPEConfig(**cfg)) if cfg else MHPEPolicy()
        attach_policy(policy)
        populate(policy, list(range(8)))
        policy.on_memory_full(0)
        return policy

    def test_grows_by_untouch_bucket(self):
        policy = self._policy()
        start = policy.forward_distance
        policy.on_chunk_evicted(evicted_entry(100, 12), 0)  # U1=12 -> bucket 2
        end_interval(policy)
        assert policy.forward_distance == start + 2

    def test_grows_by_wrong_evictions_when_larger(self):
        policy = self._policy()
        start = policy.forward_distance
        policy.on_chunk_evicted(evicted_entry(100, 0), 0)
        # Three wrong evictions (W=3) beats bucket(0)=0.
        for cid in (7, 8, 9):
            policy.on_chunk_evicted(evicted_entry(cid, 0), 0)
            policy.on_fault(cid * 16, cid, 0)
        end_interval(policy)
        assert policy.forward_distance == start + 3

    def test_max_not_sum(self):
        policy = self._policy()
        start = policy.forward_distance
        policy.on_chunk_evicted(evicted_entry(100, 12), 0)  # bucket 2
        policy.on_chunk_evicted(evicted_entry(7, 0), 0)
        policy.on_fault(7 * 16, 7, 0)  # W = 1
        end_interval(policy)
        assert policy.forward_distance == start + 2  # max(2, 1), not 3

    def test_t3_limit_stops_growth(self):
        policy = self._policy()
        policy.forward_distance = 33  # above T3 = 32
        policy.on_chunk_evicted(evicted_entry(100, 12), 0)
        end_interval(policy)
        assert policy.forward_distance == 33

    def test_adjustment_clamps_at_t3(self):
        # Regression: the guard only checked distance < T3 *before* adding
        # the bump, so a distance of T3-1 plus a bump of 4 overshot the
        # paper's limit by up to 4.  The bump must clamp at T3 exactly.
        policy = self._policy()
        policy.forward_distance = 31  # T3 - 1: the guard passes
        # Interval untouch total 16 + 9 = 25 -> bucket(25) = 4.
        policy.on_chunk_evicted(evicted_entry(100, 16), 0)
        policy.on_chunk_evicted(evicted_entry(101, 9), 0)
        end_interval(policy)
        assert policy.forward_distance == 32  # clamped at T3, not 35
        # The recorded history reports the corrected (clamped) value too.
        assert policy.ctx.stats.forward_distance_history[-1] == 32

    def test_clamped_distance_freezes_afterwards(self):
        policy = self._policy()
        policy.forward_distance = 31
        policy.on_chunk_evicted(evicted_entry(100, 16), 0)
        policy.on_chunk_evicted(evicted_entry(101, 9), 0)
        end_interval(policy, index=0)
        policy.on_chunk_evicted(evicted_entry(102, 16), 0)
        policy.on_chunk_evicted(evicted_entry(103, 9), 0)
        end_interval(policy, index=1)  # distance == T3: guard now blocks
        assert policy.forward_distance == 32

    def test_adjust_disabled_flag(self):
        policy = self._policy(adjust_enabled=False)
        start = policy.forward_distance
        policy.on_chunk_evicted(evicted_entry(100, 12), 0)
        end_interval(policy)
        assert policy.forward_distance == start

    def test_no_adjustment_after_lru_switch(self):
        policy = self._policy()
        policy.strategy = "lru"
        start = policy.forward_distance
        policy.on_chunk_evicted(evicted_entry(100, 12), 0)
        end_interval(policy)
        assert policy.forward_distance == start


class TestWrongEvictions:
    def _policy(self):
        policy = MHPEPolicy()
        chain, stats, clock = attach_policy(policy)
        populate(policy, list(range(8)))
        policy.on_memory_full(0)
        return policy, chain, stats

    def test_fault_on_recently_evicted_counts_once(self):
        policy, _, stats = self._policy()
        policy.on_chunk_evicted(evicted_entry(100, 0), 0)
        policy.on_fault(1600, 100, 0)
        policy.on_fault(1601, 100, 0)  # same chunk: not counted again
        assert stats.wrong_evictions == 1

    def test_fault_on_old_eviction_not_counted(self):
        policy, _, stats = self._policy()
        policy.on_fault(1600, 100, 0)  # never evicted
        assert stats.wrong_evictions == 0

    def test_wrongly_evicted_chunk_reinserted_at_head(self):
        policy, chain, _ = self._policy()
        policy.on_chunk_evicted(evicted_entry(100, 0), 0)
        policy.on_fault(1600, 100, 0)
        policy.insert_chunk(full_entry(100, chain=chain), time=1)
        assert next(iter(chain.from_head())).chunk_id == 100

    def test_normal_chunk_inserted_at_tail(self):
        policy, chain, _ = self._policy()
        policy.insert_chunk(full_entry(100, chain=chain), time=1)
        assert next(iter(chain.from_tail())).chunk_id == 100

    def test_buffer_evicts_oldest(self):
        policy, _, stats = self._policy()
        # Buffer length is 8: evict 9 chunks, the first falls out.
        for cid in range(100, 109):
            policy.on_chunk_evicted(evicted_entry(cid, 0), 0)
        policy.on_fault(100 * 16, 100, 0)
        assert stats.wrong_evictions == 0
        policy.on_fault(108 * 16, 108, 0)
        assert stats.wrong_evictions == 1


class TestSelection:
    def test_mru_skips_forward_distance(self):
        policy = MHPEPolicy()
        clock = IntervalClock(10)
        attach_policy(policy, interval=clock)
        # All chunks old (inserted at interval 10, then clock advances).
        populate(policy, list(range(6)))
        clock.value = 13
        policy.on_memory_full(0)
        policy.forward_distance = 2
        victims = policy.select_victims(16, 0)
        # MRU order: 5,4,3,... skip 2 -> victim 3.
        assert victims[0].chunk_id == 3

    def test_mru_wraps_when_distance_exceeds_candidates(self):
        policy = MHPEPolicy()
        clock = IntervalClock(10)
        attach_policy(policy, interval=clock)
        populate(policy, [1, 2])
        clock.value = 13
        policy.on_memory_full(0)
        policy.forward_distance = 50
        victims = policy.select_victims(16, 0)
        assert victims  # must still evict something

    def test_lru_selects_from_head(self):
        policy = MHPEPolicy()
        clock = IntervalClock(10)
        attach_policy(policy, interval=clock)
        populate(policy, [1, 2, 3])
        clock.value = 13
        policy.on_memory_full(0)
        policy.strategy = "lru"
        assert policy.select_victims(16, 0)[0].chunk_id == 1


class _DequeScanMHPE(MHPEPolicy):
    """Reference implementation: the pre-optimisation O(n) deque membership
    scan on every fault.  Kept only as the oracle for the differential test
    below — behaviour must match the production count-mirror exactly."""

    def on_fault(self, vpn, chunk_id, time):
        if chunk_id in self._evicted_buffer:  # O(n) scan
            try:
                self._evicted_buffer.remove(chunk_id)
            except ValueError:  # pragma: no cover
                pass
            self._wrong_this_interval += 1
            self._wrong_chunks.add(chunk_id)
            self.ctx.stats.wrong_evictions += 1


class TestEvictedBufferMirror:
    """The O(1) count mirror must be observationally identical to the O(n)
    deque scan it replaced."""

    def _drive(self, policy_cls, seed):
        import random

        policy = policy_cls()
        _, stats, _ = attach_policy(policy)
        populate(policy, list(range(40)))
        policy.on_memory_full(0)
        rng = random.Random(seed)
        observations = []
        interval = 0
        for step in range(600):
            roll = rng.random()
            cid = rng.randrange(60)
            if roll < 0.45:
                policy.on_chunk_evicted(evicted_entry(cid, rng.randrange(17)), step)
            elif roll < 0.9:
                policy.on_fault(cid * 16 + rng.randrange(16), cid, step)
            else:
                end_interval(policy, index=interval, time=step)
                interval += 1
            observations.append(
                (stats.wrong_evictions, policy.forward_distance,
                 policy.strategy, sorted(policy._evicted_buffer))
            )
        return observations

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_differential_wrong_eviction_parity(self, seed):
        assert self._drive(MHPEPolicy, seed) == self._drive(_DequeScanMHPE, seed)

    def test_mirror_tracks_silent_fifo_drop(self):
        # deque(maxlen=8).append silently drops the head; the mirror must
        # forget that chunk too, or stale counts would flag false wrongs.
        policy = MHPEPolicy()
        _, stats, _ = attach_policy(policy)
        populate(policy, list(range(8)))
        policy.on_memory_full(0)
        for cid in range(100, 109):  # 9 evictions into a length-8 buffer
            policy.on_chunk_evicted(evicted_entry(cid, 0), 0)
        policy.on_fault(100 * 16, 100, 0)  # dropped: must not count
        assert stats.wrong_evictions == 0
        assert policy._evicted_counts.get(100) is None

    def test_mirror_rebuilt_on_memory_full_resize(self):
        policy = MHPEPolicy()
        attach_policy(policy)
        populate(policy, list(range(200)))
        for cid in (300, 301, 301):
            policy.on_chunk_evicted(evicted_entry(cid, 0), 0)
        policy.on_memory_full(0)  # buffer resized to maxlen 24
        assert policy._evicted_counts == {300: 1, 301: 2}


class TestRecencyTracking:
    def test_touch_moves_to_tail_once_per_interval(self):
        policy = MHPEPolicy()
        chain, _, clock = attach_policy(policy)
        entries = populate(policy, [1, 2, 3])
        clock.value = 1
        policy.on_page_touched(entries[0], vpn=16, time=0)
        assert [e.chunk_id for e in chain.from_head()] == [2, 3, 1]
        # Second touch in the same interval: no further movement.
        policy.on_page_touched(entries[1], vpn=32, time=0)
        policy.on_page_touched(entries[0], vpn=17, time=1)
        assert [e.chunk_id for e in chain.from_head()] == [3, 1, 2]

    def test_untouch_accumulates_in_stats(self):
        policy = MHPEPolicy()
        _, stats, _ = attach_policy(policy)
        populate(policy, list(range(8)))
        policy.on_memory_full(0)
        policy.on_chunk_evicted(evicted_entry(100, 5), 0)
        policy.on_chunk_evicted(evicted_entry(101, 3), 0)
        assert stats.untouch_total == 8

    def test_interval_record_telemetry(self):
        policy = MHPEPolicy()
        attach_policy(policy)
        populate(policy, list(range(8)))
        policy.on_memory_full(0)
        initial_fd = policy.forward_distance
        policy.on_chunk_evicted(evicted_entry(100, 7), 0)
        record = end_interval(policy)
        assert record.untouch_total == 7
        assert record.strategy == "mru"
        # The record reports the distance in force *during* the interval;
        # the adjustment lands afterwards.
        assert record.forward_distance == initial_fd
        assert policy.forward_distance == initial_fd + 1  # bucket(7) = 1
