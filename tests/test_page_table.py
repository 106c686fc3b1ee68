"""Page table residency + access/dirty bits (repro.memsim.page_table).

The memory-system stages write the page table's arrays in place: migration
completion installs frames with clean bits, ``touch_page`` (and the SM's
fused loop) sets the accessed/dirty bits, and eviction frees the frames.
These tests drive the table through those stages.
"""

import pytest

from repro.config import SimConfig
from repro.engine.events import EventQueue
from repro.engine.stats import SimStats
from repro.errors import SimulationError
from repro.memsim.fault import FarFault, InFlightMigration
from repro.memsim.gmmu import GMMU
from repro.memsim.page_table import PageTable
from repro.policies.lru import LRUPolicy
from repro.prefetch.disabled import DisabledPrefetcher

from helpers import Replayer, chain_entry


def _system(capacity=32):
    """A memory system that migrates only the demand page."""
    return GMMU(
        config=SimConfig(),
        capacity_frames=capacity,
        events=EventQueue(),
        stats=SimStats(),
        policy=LRUPolicy(),
        prefetcher=DisabledPrefetcher(),
    )


def _fault_in(gmmu, vpn):
    gmmu.handle_fault(FarFault(vpn, 0, gmmu.events.now, False, Replayer()))
    gmmu.events.run()


def _bits(gmmu, vpn):
    """``(frame, accessed, dirty)`` of a resident ``vpn``, else None."""
    pt = gmmu.page_table
    idx = vpn - pt._origin
    if not 0 <= idx < len(pt._frames) or pt._frames[idx] < 0:
        return None
    return pt._frames[idx], bool(pt._accessed[idx]), bool(pt._dirty[idx])


def _evict(gmmu, chunk_id):
    gmmu.evictor.evict_chunk(chain_entry(gmmu.chain, chunk_id), gmmu.events.now)


class TestResidency:
    def test_map_and_lookup(self):
        gmmu = _system()
        _fault_in(gmmu, 100)
        assert gmmu.is_resident(100)
        assert gmmu.page_table.is_resident(100)
        assert 0 <= _bits(gmmu, 100)[0] < 32
        assert gmmu.device.allocated_frames == 1

    def test_unmapped_lookup(self):
        pt = PageTable()
        assert not pt.is_resident(5)
        assert not pt.is_resident(-5)  # a negative index must not wrap
        assert not pt.is_resident(1 << 40)

    def test_double_map_rejected(self):
        gmmu = _system()
        _fault_in(gmmu, 3)
        mig = InFlightMigration(chunk_id=0, pages={3}, token=99)
        with pytest.raises(SimulationError, match="already mapped"):
            gmmu.scheduler.complete_migration(mig, gmmu.events.now)

    def test_unmap_returns_frame_and_bits(self):
        gmmu = _system()
        _fault_in(gmmu, 9)
        frame = _bits(gmmu, 9)[0]
        gmmu.touch_page(0, 9, True, gmmu.events.now)
        _evict(gmmu, 0)
        assert not gmmu.is_resident(9)
        assert gmmu.device.free_frames == 32
        assert gmmu.device._free[-1] == frame
        assert gmmu.stats.dirty_pages_written_back == 1

    def test_unmap_missing_rejected(self):
        gmmu = _system()
        _fault_in(gmmu, 0)
        chain_entry(gmmu.chain, 0).resident_mask |= 1 << 5  # never mapped
        with pytest.raises(SimulationError, match="not mapped"):
            _evict(gmmu, 0)


class TestAccessDirtyBits:
    def test_fresh_page_is_untouched_and_clean(self):
        gmmu = _system()
        _fault_in(gmmu, 4)
        assert _bits(gmmu, 4)[1:] == (False, False)

    def test_read_sets_accessed_only(self):
        gmmu = _system()
        _fault_in(gmmu, 4)
        gmmu.touch_page(0, 4, False, gmmu.events.now)
        assert _bits(gmmu, 4)[1:] == (True, False)

    def test_write_sets_both(self):
        gmmu = _system()
        _fault_in(gmmu, 4)
        gmmu.touch_page(0, 4, True, gmmu.events.now)
        assert _bits(gmmu, 4)[1:] == (True, True)

    def test_access_nonresident_rejected(self):
        with pytest.raises(SimulationError):
            _system().touch_page(0, 4, False, 0)

    def test_remap_clears_bits(self):
        # Eviction + re-migration must not inherit old access bits.
        gmmu = _system()
        _fault_in(gmmu, 4)
        gmmu.touch_page(0, 4, True, gmmu.events.now)
        _evict(gmmu, 0)
        _fault_in(gmmu, 4)
        assert _bits(gmmu, 4)[1:] == (False, False)


class TestWalkStructure:
    def test_node_keys_count_matches_levels(self):
        pt = PageTable(levels=4)
        keys = pt.node_keys(0x12345)
        assert len(keys) == 4
        assert [k[0] for k in keys] == [0, 1, 2, 3]

    def test_leaf_key_is_vpn(self):
        pt = PageTable(levels=4)
        assert pt.node_keys(0x12345)[-1] == (3, 0x12345)

    def test_nearby_vpns_share_upper_levels(self):
        pt = PageTable(levels=4)
        a, b = pt.node_keys(1000), pt.node_keys(1001)
        assert a[:3] == b[:3]
        assert a[3] != b[3]

    def test_distant_vpns_diverge_at_root(self):
        pt = PageTable(levels=4)
        a, b = pt.node_keys(0), pt.node_keys(1 << 30)
        assert a[0] != b[0]

    def test_invalid_levels_rejected(self):
        with pytest.raises(SimulationError):
            PageTable(levels=0)
