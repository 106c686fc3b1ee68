"""Top-level simulator (repro.engine.simulator)."""

import numpy as np
import pytest

from repro.config import SimConfig, SMConfig, TranslationConfig, UVMConfig
from repro.engine.simulator import SimulationResult, Simulator
from repro.errors import SimulationError
from repro.policies.lru import LRUPolicy
from repro.policies.mhpe import MHPEPolicy
from repro.prefetch.disabled import DisabledPrefetcher
from repro.prefetch.locality import LocalityPrefetcher

from conftest import make_simple_workload


class TestRunLifecycle:
    def test_unlimited_memory_never_evicts(self, fast_config, cyclic_workload):
        result = Simulator(
            cyclic_workload, oversubscription=None, config=fast_config
        ).run()
        assert result.stats.chunks_evicted == 0
        assert result.total_cycles > 0
        assert not result.crashed

    def test_oversubscription_evicts(self, fast_config, cyclic_workload):
        result = Simulator(
            cyclic_workload, oversubscription=0.5, config=fast_config
        ).run()
        assert result.stats.chunks_evicted > 0
        assert result.capacity_pages == 128

    def test_all_accesses_executed(self, fast_config, cyclic_workload):
        result = Simulator(
            cyclic_workload, oversubscription=0.5, config=fast_config
        ).run()
        assert result.stats.accesses == cyclic_workload.num_accesses

    def test_every_sm_finishes(self, fast_config, cyclic_workload):
        sim = Simulator(cyclic_workload, oversubscription=0.5, config=fast_config)
        sim.run()
        assert all(sm.done for sm in sim.sms)

    def test_defaults_are_baseline(self, fast_config, cyclic_workload):
        result = Simulator(cyclic_workload, config=fast_config).run()
        assert result.policy == "lru"
        assert result.prefetcher == "locality/continue"

    def test_explicit_capacity_overrides_rate(self, fast_config, cyclic_workload):
        result = Simulator(
            cyclic_workload,
            oversubscription=0.5,
            capacity_pages=96,
            config=fast_config,
        ).run()
        assert result.capacity_pages == 96


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self, fast_config):
        def run():
            wl = make_simple_workload()
            return Simulator(
                wl,
                policy=MHPEPolicy(),
                prefetcher=LocalityPrefetcher("continue"),
                oversubscription=0.5,
                config=fast_config,
            ).run()

        a, b = run(), run()
        assert a.total_cycles == b.total_cycles
        assert a.stats.far_faults == b.stats.far_faults
        assert a.stats.chunks_evicted == b.stats.chunks_evicted
        assert [r.untouch_total for r in a.stats.intervals] == [
            r.untouch_total for r in b.stats.intervals
        ]


class TestMemoryAccounting:
    def test_residency_never_exceeds_capacity(self, fast_config, cyclic_workload):
        sim = Simulator(cyclic_workload, oversubscription=0.5, config=fast_config)
        sim.run()
        assert sim.gmmu.device.peak_allocated <= sim.capacity

    def test_migrated_equals_demand_plus_prefetch(self, fast_config, cyclic_workload):
        result = Simulator(
            cyclic_workload, oversubscription=0.5, config=fast_config
        ).run()
        s = result.stats
        assert s.pages_migrated == s.demand_pages + s.prefetched_pages

    def test_bytes_match_pages(self, fast_config, cyclic_workload):
        result = Simulator(
            cyclic_workload, oversubscription=0.5, config=fast_config
        ).run()
        s = result.stats
        assert s.bytes_host_to_device == s.pages_migrated * 4096


class TestSpeedupAPI:
    def test_speedup_over(self, fast_config, cyclic_workload):
        fast = Simulator(cyclic_workload, oversubscription=None, config=fast_config).run()
        slow = Simulator(
            cyclic_workload,
            prefetcher=DisabledPrefetcher(),
            oversubscription=0.5,
            config=fast_config,
        ).run()
        assert fast.speedup_over(slow) > 1.0
        assert slow.speedup_over(fast) < 1.0

    def test_speedup_with_crashed_run_rejected(self):
        a = SimulationResult("x", "I", "lru", "none", 0.5, 10, 10)
        b = SimulationResult("x", "I", "lru", "none", 0.5, 10, 10, crashed=True)
        a.stats.total_cycles = 10
        with pytest.raises(SimulationError):
            a.speedup_over(b)

    def test_speedup_with_crashed_baseline_rejected(self):
        # Fig. 10's 'X' entries: a crashed baseline has no defined runtime,
        # so the comparison must refuse in *both* directions.
        crashed = SimulationResult(
            "x", "I", "lru", "none", 0.5, 10, 10, crashed=True
        )
        ok = SimulationResult("x", "I", "lru", "none", 0.5, 10, 10)
        ok.stats.total_cycles = 10
        with pytest.raises(SimulationError):
            crashed.speedup_over(ok)

    def test_speedup_with_zero_cycle_run_rejected(self):
        ran = SimulationResult("x", "I", "lru", "none", 0.5, 10, 10)
        ran.stats.total_cycles = 10
        unexecuted = SimulationResult("x", "I", "lru", "none", 0.5, 10, 10)
        with pytest.raises(SimulationError):
            unexecuted.speedup_over(ran)

    def test_speedup_with_zero_cycle_baseline_rejected(self):
        # A 0-cycle baseline would silently report speedup 0.0 — refuse it
        # the same way as a 0-cycle candidate.
        ran = SimulationResult("x", "I", "lru", "none", 0.5, 10, 10)
        ran.stats.total_cycles = 10
        unexecuted = SimulationResult("x", "I", "lru", "none", 0.5, 10, 10)
        with pytest.raises(SimulationError):
            ran.speedup_over(unexecuted)

    def test_label(self, fast_config, cyclic_workload):
        result = Simulator(cyclic_workload, oversubscription=0.5, config=fast_config).run()
        assert "unit@50%" in result.label()


class TestTranslationIntegration:
    def test_tlb_stats_populated(self, fast_config, cyclic_workload):
        result = Simulator(
            cyclic_workload, oversubscription=None, config=fast_config
        ).run()
        s = result.stats
        assert s.l1_tlb_hits + s.l1_tlb_misses == s.accesses
        assert s.page_walks > 0

    def test_disabled_translation_is_faster_wallclock_equivalent(
        self, no_translation_config, cyclic_workload
    ):
        result = Simulator(
            cyclic_workload, oversubscription=None, config=no_translation_config
        ).run()
        assert result.stats.l1_tlb_hits == 0
        assert result.stats.page_walks == 0
        assert result.total_cycles > 0

    def test_shootdowns_on_eviction(self, fast_config, cyclic_workload):
        result = Simulator(
            cyclic_workload, oversubscription=0.5, config=fast_config
        ).run()
        assert result.stats.tlb_shootdowns > 0
