"""Property tests: the array structures are their object-graph oracles.

Hypothesis drives random operation sequences against an
(:class:`ArrayPageTable`, :class:`PageTable`) pair and an
(:class:`ArrayChunkChain`, :class:`ChunkChain`) pair, asserting the
observable state agrees after every step.  This is the unit-level
counterpart of ``tests/test_backend_differential.py``: the differential
suite proves whole simulations byte-identical, these properties localise
any divergence to a single structure operation.

VPN/chunk-id strategies straddle the workload base (``0x80000``) and zero
on purpose: low-side growth (``arr[:0] = ...``) is the delicate direction
of the origin-offset representation.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from conftest import make_simple_workload
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.engine.simulator import Simulator
from repro.engine.stats import SimStats
from repro.memsim.array_backend import (
    _PAD_CHUNKS,
    ArrayChunkChain,
    ArrayCoverage,
    ArrayPageTable,
    unpack_masks,
)
from repro.memsim.chunk_chain import ChunkChain, ChunkEntry
from repro.memsim.page_table import PageTable
from repro.policies.base import PolicyContext
from repro.policies.hpe import HPEPolicy
from repro.policies.lru import LRUPolicy
from repro.policies.mhpe import MHPEPolicy
from repro.policies.reserved_lru import ReservedLRUPolicy

#: A few ids below / around zero, a band at the workload base: exercises
#: in-place growth at both ends plus negative indices (which must NOT wrap
#: around pythonically).
VPNS = st.one_of(
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0x80000 - 8, max_value=0x80000 + 72),
)
CHUNK_IDS = st.one_of(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0x2000 - 2, max_value=0x2000 + 10),
)

PT_OPS = st.lists(
    st.tuples(
        st.sampled_from(["map", "unmap", "read", "write", "probe"]), VPNS
    ),
    max_size=60,
)


def _pt_observables(pt, vpns):
    return (
        len(pt),
        pt.resident_peak,
        pt.resident_vpns(),
        [(pt.is_resident(v), pt.frame_of(v), pt.accessed(v), pt.dirty(v))
         for v in vpns],
    )


class TestArrayPageTable:
    @settings(max_examples=60, deadline=None)
    @given(ops=PT_OPS)
    def test_matches_dict_page_table(self, ops):
        arr = ArrayPageTable(4, origin_hint=0x80000, size_hint=64)
        obj = PageTable(4)
        next_frame = 0
        touched = sorted({vpn for _, vpn in ops})
        for op, vpn in ops:
            if op == "map" and not obj.is_resident(vpn):
                arr.map(vpn, next_frame)
                obj.map(vpn, next_frame)
                next_frame += 1
            elif op == "unmap" and obj.is_resident(vpn):
                assert arr.unmap(vpn) == obj.unmap(vpn)
            elif op in ("read", "write") and obj.is_resident(vpn):
                arr.record_access(vpn, is_write=op == "write")
                obj.record_access(vpn, is_write=op == "write")
            elif op == "probe":
                assert (vpn in arr) == (vpn in obj)
            assert _pt_observables(arr, touched) == _pt_observables(obj, touched)
        # The walk structure is inherited arithmetic — same node keys.
        for vpn in touched[:5]:
            assert arr.node_keys(vpn) == obj.node_keys(vpn)

    def test_unmap_of_vpn_below_origin_raises(self):
        import pytest

        from repro.errors import SimulationError

        arr = ArrayPageTable(4, origin_hint=0x80000, size_hint=16)
        with pytest.raises(SimulationError):
            arr.unmap(0x7FF00)  # negative local index must not wrap


CHAIN_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert_tail", "insert_head", "remove", "move_to_tail",
             "touch", "resident", "clear_resident", "counter", "ref"]
        ),
        CHUNK_IDS,
        st.integers(min_value=0, max_value=15),
    ),
    max_size=80,
)


def _chain_observables(chain, ids, interval):
    entries = []
    for cid in ids:
        entry = chain.get(cid)
        if entry is None:
            entries.append(None)
        else:
            entries.append(
                (
                    entry.chunk_id,
                    entry.resident_mask,
                    entry.touched_mask,
                    entry.prefetch_mask,
                    entry.counter,
                    entry.last_ref_interval,
                    entry.insert_interval,
                    entry.insert_order,
                    entry.in_chain,
                    entry.untouch_level(),
                    entry.partition(interval),
                )
            )
    return (
        len(chain),
        chain.length_peak,
        [e.chunk_id for e in chain.from_head()],
        [e.chunk_id for e in chain.from_tail()],
        [e.chunk_id for e in chain.candidates_from_tail(interval)],
        [e.chunk_id for e in chain.candidates_from_head(interval)],
        entries,
    )


class TestArrayChunkChain:
    @settings(max_examples=60, deadline=None)
    @given(ops=CHAIN_OPS, interval=st.integers(min_value=0, max_value=4))
    def test_matches_linked_chain(self, ops, interval):
        arr = ArrayChunkChain()
        obj = ChunkChain()
        ids = sorted({cid for _, cid, _ in ops})
        for op, cid, page in ops:
            in_chain = cid in obj
            if op in ("insert_tail", "insert_head") and not in_chain:
                ea = arr.new_entry(cid, interval)
                eo = obj.new_entry(cid, interval)
                getattr(arr, op)(ea)
                getattr(obj, op)(eo)
            elif op == "remove" and in_chain:
                removed_a = arr.remove(cid)
                removed_o = obj.remove(cid)
                assert removed_a.chunk_id == removed_o.chunk_id
                assert removed_a.touched_mask == removed_o.touched_mask
            elif op == "move_to_tail" and in_chain:
                arr.move_to_tail(cid)
                obj.move_to_tail(cid)
            elif op == "ref" and in_chain:
                # Spread last-reference intervals over the old / middle /
                # new partitions the candidate orders are built from.
                arr.get(cid).last_ref_interval = page % 6
                obj.get(cid).last_ref_interval = page % 6
            elif op in ("touch", "resident", "clear_resident", "counter") and in_chain:
                ea, eo = arr.get(cid), obj.get(cid)
                if op == "touch":
                    ea.mark_touched(page)
                    eo.mark_touched(page)
                elif op == "resident":
                    ea.mark_resident(page)
                    eo.mark_resident(page)
                elif op == "clear_resident":
                    ea.clear_resident(page)
                    eo.clear_resident(page)
                else:
                    ea.counter += 1
                    eo.counter += 1
            assert _chain_observables(arr, ids, interval) == _chain_observables(
                obj, ids, interval
            )

    def test_mask_matrix_mirrors_masks(self):
        chain = ArrayChunkChain()
        for cid, res, tch in [(3, 0b1011, 0b0010), (7, 0b1111, 0b1111)]:
            entry = chain.new_entry(cid, 0)
            entry.resident_mask = res
            entry.touched_mask = tch
            chain.insert_tail(entry)
        matrix = chain.mask_matrix(pages_per_chunk=4)
        assert matrix.shape == (2, 3, 4)
        assert matrix[0, 0].tolist() == [1, 1, 0, 1]  # chunk 3 resident bits
        assert matrix[0, 1].tolist() == [0, 1, 0, 0]  # chunk 3 touched bits
        assert matrix[1, 0].tolist() == [1, 1, 1, 1]


class TestArrayChainFootprint:
    def test_chain_arrays_bounded_by_footprint(self):
        # Workloads live at Workload.base_vpn (0x80000 = chunk 0x8000): the
        # chain must anchor its arrays at the first chunk it sees rather
        # than at chunk 0, which would allocate every slot below the base.
        workload = make_simple_workload(footprint=1024)
        assert workload.base_vpn == 0x80000
        sim = Simulator(
            workload, oversubscription=0.5, config=SimConfig(backend="array")
        )
        sim.run()
        chain = sim.gmmu.chain
        assert isinstance(chain, ArrayChunkChain)
        footprint_chunks = workload.footprint_pages // 16
        assert chain.length_peak > 0
        slots = len(chain._inch)
        assert slots <= footprint_chunks + 2 * _PAD_CHUNKS


def _policy_on(chain, policy, **ctx):
    policy.attach(
        PolicyContext(
            chain=chain, stats=SimStats(), config=SimConfig(),
            rng=random.Random(0), **ctx,
        )
    )
    return policy


class _Clock:
    """A fixed interval source."""

    def __init__(self, interval):
        self.current_interval = interval


class _ReadLog(list):
    """A list that logs the indices it is read at."""

    def __init__(self, items, reads):
        super().__init__(items)
        self.reads = reads

    def __getitem__(self, index):
        self.reads.append(index)
        return super().__getitem__(index)


def _filled(chain, residents):
    for cid, pages in enumerate(residents, start=0x8000):
        entry = chain.new_entry(cid, 0)
        entry.resident_mask = (1 << pages) - 1
        chain.insert_tail(entry)
    return chain


def _eager_reserved_lru(chain, fraction, frames_needed):
    """The pre-lazy ReservedLRU victim order, as the reference."""
    ordered = list(chain.from_head())
    reserved = int(len(ordered) * fraction)
    eligible = ordered[reserved:]
    if sum(e.resident_pages for e in eligible) < frames_needed:
        eligible = eligible + list(reversed(ordered[:reserved]))
    victims, freed = [], 0
    for entry in eligible:
        if freed >= frames_needed:
            break
        if entry.resident_pages:
            victims.append(entry.chunk_id)
            freed += entry.resident_pages
    return victims


class TestLazyVictimScan:
    """LRU victim searches consume the chain lazily and stop at the last
    victim, with the same victims the full-list scan chose."""

    RESIDENTS = [16, 0, 4, 16, 8, 16, 2, 16, 16, 16, 16, 16]

    @pytest.mark.parametrize("chain_cls", [ArrayChunkChain, ChunkChain])
    def test_lru_early_stop_visits_a_prefix(self, chain_cls):
        chain = _filled(chain_cls(), self.RESIDENTS)
        visited = []
        real_from_head = chain.from_head

        def counting_from_head():
            for entry in real_from_head():
                visited.append(entry.chunk_id)
                yield entry

        chain.from_head = counting_from_head
        victims = _policy_on(chain, LRUPolicy()).select_victims(18, time=0)
        # 16 (chunk 0), skip the empty chunk 1, 4 more (chunk 2): done.
        assert [v.chunk_id for v in victims] == [0x8000, 0x8002]
        assert visited == [0x8000, 0x8001, 0x8002]
        assert len(visited) < len(chain)

    @pytest.mark.parametrize("policy_cls", [MHPEPolicy, HPEPolicy])
    def test_head_order_early_stop_visits_a_prefix(self, policy_cls):
        chain = _filled(ArrayChunkChain(), self.RESIDENTS)
        visited = []
        chain._lref = _ReadLog(chain._lref, visited)
        # Every chunk was last referenced in interval 0: all are old at 5.
        policy = _policy_on(chain, policy_cls(), clock=_Clock(5))
        if policy_cls is MHPEPolicy:
            policy.strategy = "lru"
        else:
            policy._strategy = "lru"
        victims = policy.select_victims(18, time=0)
        assert [v.chunk_id for v in victims] == [0x8000, 0x8002]
        assert [li + chain._origin for li in visited] == [0x8000, 0x8001, 0x8002]

    @pytest.mark.parametrize("chain_cls", [ArrayChunkChain, ChunkChain])
    @pytest.mark.parametrize("frames_needed", [1, 17, 60, 120, 142])
    def test_reserved_lru_matches_eager_scan(self, chain_cls, frames_needed):
        chain = _filled(chain_cls(), self.RESIDENTS)
        policy = _policy_on(chain, ReservedLRUPolicy(0.25))
        got = [v.chunk_id for v in policy.select_victims(frames_needed, 0)]
        assert got == _eager_reserved_lru(chain, 0.25, frames_needed)


class TestArrayCoverage:
    @settings(max_examples=40, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["set", "pop", "get"]), VPNS),
            max_size=60,
        )
    )
    def test_matches_dict(self, ops):
        arr = ArrayCoverage()
        obj = {}
        for op, vpn in ops:
            token = object()  # stands in for an InFlightMigration
            if op == "set":
                arr[vpn] = token
                obj[vpn] = token
            elif op == "pop":
                assert arr.pop(vpn, None) is obj.pop(vpn, None)
            else:
                assert arr.get(vpn) is obj.get(vpn)
            assert len(arr) == len(obj)
            assert (vpn in arr) == (vpn in obj)


    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.booleans(), VPNS, st.integers(min_value=1, max_value=2**20 - 1)
            ),
            max_size=30,
        )
    )
    def test_mask_runs_match_dict(self, ops):
        def pages(base, mask):
            return [base + b for b in range(mask.bit_length()) if mask >> b & 1]

        arr = ArrayCoverage()
        obj = {}
        assigned = []
        for is_assign, base, mask in ops:
            if not is_assign and assigned:
                # Uncover part of an earlier batch: migrations only uncover
                # pages that some batch covered.
                base, earlier = assigned[base % len(assigned)]
                mask &= earlier
                arr.discard(base, mask)
                for vpn in pages(base, mask):
                    obj.pop(vpn, None)
            else:
                token = object()  # stands in for an InFlightMigration
                arr.assign(base, mask, token)
                assigned.append((base, mask))
                for vpn in pages(base, mask):
                    obj[vpn] = token
            assert len(arr) == len(obj)
            for base_, mask_ in assigned:
                for vpn in pages(base_, mask_):
                    assert arr.get(vpn) is obj.get(vpn)


class TestUnpackMasks:
    @settings(max_examples=60, deadline=None)
    @given(
        masks=st.lists(st.integers(min_value=0, max_value=2**16 - 1), max_size=8),
        pages=st.integers(min_value=1, max_value=16),
    )
    def test_bits_roundtrip(self, masks, pages):
        matrix = unpack_masks(masks, pages)
        assert matrix.shape == (len(masks), pages)
        assert matrix.dtype == np.uint8
        for row, mask in zip(matrix, masks):
            for bit in range(pages):
                assert row[bit] == (mask >> bit) & 1

    def test_popcount_matches_untouch_level(self):
        entry = ChunkEntry(0, 0)
        entry.resident_mask = 0b110110
        entry.touched_mask = 0b010010
        matrix = unpack_masks([entry.resident_mask, entry.touched_mask], 6)
        untouched = int((matrix[0] & ~matrix[1] & 1).sum())
        assert untouched == entry.untouch_level()
