"""Edge shapes of the chunk arithmetic, and the cache key's reach.

The flat-array structures (DESIGN.md §10) work on whole chunks through
page masks; these tests run the narrow spots where mask arithmetic is most
likely to go wrong and check, after each run, that the page table, the
chunk chain and device memory still describe the same set of resident
pages:

* a footprint whose tail chunk is partial — mask arithmetic must stay
  within the chunks that hold the footprint (whole-chunk prefetch may
  migrate the tail chunk's pages past the footprint's end);
* zero oversubscription — the eviction path never runs;
* an access pattern straddling a 64-page chunk boundary under the
  pattern prefetcher — prefetch masks span two chunks.

``tests/test_golden_digests.py`` pins each shape's full result (the
``edge/...`` cases).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.config import SimConfig, SMConfig
from repro.engine.simulator import Simulator
from repro.harness.baselines import build_setup
from repro.harness.cache import config_fingerprint
from repro.workloads.base import Workload

FAST = SimConfig(sm=SMConfig(num_sms=4))


def _run(workload, rate, setup="cppe"):
    policy, prefetcher = build_setup(setup)
    sim = Simulator(
        workload,
        policy=policy,
        prefetcher=prefetcher,
        oversubscription=rate,
        config=FAST,
    )
    return sim, sim.run()


def _resident_vpns(sim):
    """Resident pages by the page table, checked against the chain and
    device memory; returns the page table's set."""
    memory = sim.memory
    pt = memory.page_table
    by_table = {
        i + pt._origin for i, frame in enumerate(pt._frames) if frame >= 0
    }
    chain = memory.chain
    ppc = memory.uvm.pages_per_chunk
    by_chain = set()
    for entry in chain.from_head():
        mask = entry.resident_mask
        by_chain |= {
            entry.chunk_id * ppc + b for b in range(ppc) if mask >> b & 1
        }
    assert by_table == by_chain
    frames = [f for f in pt._frames if f >= 0]
    assert len(set(frames)) == len(frames)
    assert memory.device.allocated_frames == len(frames)
    return by_table


def _footprint_vpns(workload, ppc=FAST.uvm.pages_per_chunk):
    """The pages of the chunks that hold ``workload``'s footprint."""
    base = workload.base_vpn
    chunks = -(-workload.footprint_pages // ppc)
    return set(range(base, base + chunks * ppc))


class TestPartialTailChunk:
    def test_footprint_not_a_multiple_of_chunk(self):
        # 40-page footprint: the single chunk is partial; with rate 0.5 the
        # eviction path runs over a partial resident mask too.
        footprint = 40
        sweep = np.arange(footprint, dtype=np.int64)
        for rate in (None, 0.5):
            workload = Workload(
                name="tail",
                pattern_type="I",
                footprint_pages=footprint,
                accesses=np.concatenate([sweep] * 4),
            )
            sim, result = _run(workload, rate)
            assert not result.crashed
            assert _resident_vpns(sim) <= _footprint_vpns(workload)

    def test_tail_chunk_straddling_capacity(self):
        # 200 pages = 3 chunks + a 8-page tail; capacity forces the tail
        # chunk through eviction and re-migration.
        footprint = 200
        sweep = np.arange(footprint, dtype=np.int64)
        workload = Workload(
            name="tail2",
            pattern_type="IV",
            footprint_pages=footprint,
            accesses=np.concatenate([sweep] * 5),
        )
        sim, result = _run(workload, 0.6, setup="baseline")
        stats = result.stats
        assert stats.chunks_evicted > 0
        resident = _resident_vpns(sim)
        assert resident <= _footprint_vpns(workload)
        assert stats.pages_migrated - stats.pages_evicted == len(resident)


class TestZeroOversubscription:
    def test_no_eviction_run_is_identical(self):
        footprint = 192
        rng_pattern = np.concatenate(
            [np.arange(footprint, dtype=np.int64)] * 3
        )
        workload = Workload(
            name="fits",
            pattern_type="I",
            footprint_pages=footprint,
            accesses=rng_pattern,
        )
        sim, result = _run(workload, None)
        assert result.stats.chunks_evicted == 0
        assert len(_resident_vpns(sim)) == result.stats.pages_migrated
        # Repeated runs are identical, field for field.
        _, again = _run(workload, None)
        assert dataclasses.asdict(again) == dataclasses.asdict(result)


class TestIntervalBoundaryStraddle:
    def test_accesses_straddling_chunk_boundaries(self):
        # Alternate across the 64-page boundary between chunks 0 and 1 and
        # between chunks 2 and 3: the pattern prefetcher sees strides that
        # cross chunk edges, so prefetch masks land in two chunks at once.
        pairs = []
        for base in (60, 124, 188):
            for offset in range(8):
                pairs.append(base + offset)
        accesses = np.array(pairs * 6, dtype=np.int64)
        workload = Workload(
            name="straddle",
            pattern_type="II",
            footprint_pages=256,
            accesses=accesses,
        )
        for rate in (None, 0.5):
            sim, result = _run(workload, rate, setup="cppe")
            stats = result.stats
            resident = _resident_vpns(sim)
            assert resident <= _footprint_vpns(workload)
            assert stats.pages_migrated - stats.pages_evicted == len(resident)


class TestCacheKeyIdentity:
    def test_other_fields_still_change_the_key(self):
        assert config_fingerprint(SimConfig()) != config_fingerprint(
            SimConfig(seed=1234)
        )
