"""SM execution model (repro.engine.sm)."""

import numpy as np
import pytest

from repro.config import SimConfig, SMConfig, TranslationConfig, UVMConfig
from repro.engine.events import EventQueue
from repro.engine.sm import StreamingMultiprocessor
from repro.engine.stats import SimStats
from repro.errors import SimulationError
from repro.memsim.gmmu import GMMU
from repro.policies.lru import LRUPolicy
from repro.prefetch.locality import LocalityPrefetcher

from helpers import chain_entry, popcount


def make_sm(trace, capacity=256, max_outstanding=4, burst=8, writes=None):
    config = SimConfig(
        sm=SMConfig(
            num_sms=1, max_outstanding_faults=max_outstanding, burst_length=burst
        ),
        translation=TranslationConfig(enabled=False),
    )
    events = EventQueue()
    stats = SimStats()
    gmmu = GMMU(
        config=config,
        capacity_frames=capacity,
        events=events,
        stats=stats,
        policy=LRUPolicy(),
        prefetcher=LocalityPrefetcher("continue"),
    )
    finished = []
    sm = StreamingMultiprocessor(
        sm_id=0,
        trace=np.asarray(trace, dtype=np.int64),
        writes=None if writes is None else np.asarray(writes, dtype=bool),
        config=config,
        gmmu=gmmu,
        translation=None,
        events=events,
        stats=stats,
        on_finish=lambda sm_id, t: finished.append((sm_id, t)),
    )
    return sm, gmmu, events, stats, finished


class TestExecution:
    def test_runs_trace_to_completion(self):
        sm, gmmu, events, stats, finished = make_sm([0, 1, 2, 3])
        sm.start(0)
        events.run()
        assert sm.done
        assert finished and finished[0][0] == 0
        assert stats.accesses == 4

    def test_faults_then_hits_within_chunk(self):
        sm, gmmu, events, stats, _ = make_sm(list(range(16)))
        sm.start(0)
        events.run()
        # First access faults; the rest hit the prefetched chunk (modulo
        # accesses issued before the migration resolves, which merge).
        assert stats.fault_service_ops == 1
        assert stats.pages_migrated == 16

    def test_touches_recorded_for_all_accesses(self):
        sm, gmmu, events, stats, _ = make_sm(list(range(16)))
        sm.start(0)
        events.run()
        entry = chain_entry(gmmu.chain, 0)
        assert popcount(entry.touched_mask) == 16

    def test_write_flags_dirty_pages(self):
        sm, gmmu, events, stats, _ = make_sm(
            [0, 1], writes=[True, False]
        )
        sm.start(0)
        events.run()
        assert stats.writes == 1
        pt = gmmu.page_table
        dirty = [pt._dirty[vpn - pt._origin] for vpn in (0, 1)]
        # Both accesses are recorded in the chunk's touched mask.
        touched = chain_entry(gmmu.chain, 0).touched_mask & 0b11
        assert dirty == [1, 0] and touched == 0b11

    def test_mismatched_writes_length_rejected(self):
        with pytest.raises(SimulationError):
            make_sm([0, 1, 2], writes=[True])

    def test_finish_time_includes_trailing_fault(self):
        sm, gmmu, events, stats, finished = make_sm([0])
        sm.start(0)
        events.run()
        assert finished[0][1] >= gmmu.uvm.fault_latency_cycles


class TestReplayableFaults:
    def test_sm_continues_past_fault(self):
        # Accesses to two different chunks: the SM issues the second fault
        # before the first resolves (replayable far faults).
        sm, gmmu, events, stats, _ = make_sm([0, 16], max_outstanding=2)
        sm.start(0)
        events.run()
        assert stats.far_faults == 2
        # Both faults were outstanding concurrently; the GMMU serialised
        # the services, so total time ~ 2 services, not 2 * (service+issue).
        assert stats.fault_service_ops == 2

    def test_stall_at_max_outstanding(self):
        trace = [i * 16 for i in range(8)]  # 8 distinct chunks
        sm, gmmu, events, stats, _ = make_sm(trace, max_outstanding=2, capacity=256)
        sm.start(0)
        events.run()
        assert stats.sm_stall_events > 0
        assert sm.done

    def test_burst_yields_between_sms(self):
        # A long hit run must not exceed burst_length per event.
        sm, gmmu, events, stats, _ = make_sm(list(range(16)) * 8, burst=4)
        sm.start(0)
        events.run()
        assert sm.done
        assert stats.accesses == 128


class TestTranslationCounters:
    """The TLB/walker/PWC objects' own counters agree with the shared
    stats after a run, whichever path counted them: the fused array loop
    folds per-SM totals into the objects when each SM finishes."""

    @pytest.mark.parametrize("dram", [False, True])
    def test_object_counters_sum_to_stats(self, dram):
        from conftest import make_simple_workload

        from repro.engine.simulator import Simulator

        rng = np.random.default_rng(7)
        workload = make_simple_workload(
            footprint=512, accesses=rng.integers(0, 512, size=6000)
        )
        config = SimConfig(
            sm=SMConfig(num_sms=4),
            translation=TranslationConfig(use_dram_model=dram),
        )
        sim = Simulator(workload, oversubscription=0.5, config=config)
        result = sim.run()
        stats = result.stats
        tr = sim.translation
        assert not result.crashed and stats.accesses == 6000
        assert stats.far_faults > 0 and stats.l2_tlb_hits > 0
        for sm, l1 in zip(sim.sms, tr.l1_tlbs):
            assert l1.hits + l1.misses == len(sm.trace)
        assert sum(t.hits for t in tr.l1_tlbs) == stats.l1_tlb_hits
        assert sum(t.misses for t in tr.l1_tlbs) == stats.l1_tlb_misses
        assert tr.l2_tlb.hits == stats.l2_tlb_hits
        assert tr.l2_tlb.misses == stats.l2_tlb_misses
        assert tr.walker.walks == stats.page_walks
        assert tr.pwc.hits == stats.pwc_hits > 0
        assert tr.pwc.misses == stats.pwc_misses > 0
        assert tr.walker.total_queue_delay == stats.walker_queue_delay_cycles
        assert tr.walker.total_walk_cycles > 0
