"""End-to-end translation path (repro.translation.hierarchy)."""

from repro.config import TranslationConfig
from repro.engine.stats import SimStats
from repro.memsim.page_table import PageTable
from repro.translation.hierarchy import TranslationHierarchy

from helpers import install


def make_hierarchy(num_sms=2):
    stats = SimStats()
    pt = PageTable()
    h = TranslationHierarchy(TranslationConfig(), num_sms, pt, stats)
    return h, pt, stats


class TestTranslatePath:
    def test_resident_page_first_access_walks(self):
        h, pt, stats = make_hierarchy()
        install(pt, 100, 0)
        latency, resident = h.translate(0, 100, time=0)
        assert resident
        assert stats.l1_tlb_misses == 1
        assert stats.l2_tlb_misses == 1
        assert stats.page_walks == 1
        assert latency > h.l1_tlbs[0].hit_latency

    def test_second_access_hits_l1(self):
        h, pt, stats = make_hierarchy()
        install(pt, 100, 0)
        h.translate(0, 100, 0)
        latency, resident = h.translate(0, 100, 100)
        assert resident
        assert latency == h.l1_tlbs[0].hit_latency
        assert stats.l1_tlb_hits == 1

    def test_other_sm_hits_shared_l2(self):
        h, pt, stats = make_hierarchy()
        install(pt, 100, 0)
        h.translate(0, 100, 0)
        latency, _ = h.translate(1, 100, 100)
        # SM1's L1 misses but the shared L2 has the entry.
        assert stats.l2_tlb_hits == 1
        assert stats.page_walks == 1  # no second walk

    def test_nonresident_fault_installs_nothing(self):
        h, pt, stats = make_hierarchy()
        latency, resident = h.translate(0, 100, 0)
        assert not resident
        # Faulting walk must not fill TLBs (there is no mapping yet).
        install(pt, 100, 0)
        h.translate(0, 100, 1000)
        assert stats.page_walks == 2

    def test_disabled_translation_is_free(self):
        stats = SimStats()
        pt = PageTable()
        h = TranslationHierarchy(
            TranslationConfig(enabled=False), 1, pt, stats
        )
        install(pt, 5, 0)
        assert h.translate(0, 5, 0) == (0, True)
        assert h.translate(0, 6, 0) == (0, False)


class TestShootdown:
    def test_shootdown_invalidates_everywhere(self):
        h, pt, stats = make_hierarchy()
        install(pt, 100, 0)
        h.translate(0, 100, 0)
        h.translate(1, 100, 10)
        h.shootdown(100)
        assert stats.tlb_shootdowns == 1
        # Next access must walk again.
        walks_before = stats.page_walks
        h.translate(0, 100, 20)
        assert stats.page_walks == walks_before + 1

    def test_shootdown_absent_vpn_not_counted(self):
        h, pt, stats = make_hierarchy()
        h.shootdown(12345)
        assert stats.tlb_shootdowns == 0


class TestStatsSync:
    def test_sync_copies_pwc_counters(self):
        h, pt, stats = make_hierarchy()
        install(pt, 100, 0)
        h.translate(0, 100, 0)
        h.sync_counter_stats()
        assert stats.pwc_misses == h.pwc.misses
        assert stats.pwc_hits == h.pwc.hits
