"""Property tests for the flat-array structures against in-test models.

Hypothesis drives random operation sequences against the page table, the
chunk chain and the coverage map, and checks every observable against a
small reference model kept in the test: a ``vpn -> [frame, dirty]`` dict
for the page table, a recency-ordered list plus a per-chunk field dict
for the chain (whose touched mask is where accesses are recorded), and a
plain dict for the coverage map.

VPN/chunk-id strategies straddle the workload base (``0x80000``) and zero
on purpose: low-side growth (``arr[:0] = ...``) is the delicate direction
of the origin-offset representation.
"""

from __future__ import annotations

import random

import pytest
from conftest import make_simple_workload
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import SimConfig
from repro.engine.simulator import Simulator
from repro.engine.stats import SimStats
from repro.errors import SimulationError
from repro.memsim.array_backend import ArrayCoverage
from repro.memsim.chunk_chain import _PAD_CHUNKS, ChunkChain
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


def _pt_view(pt, vpn):
    """``(frame, dirty)`` of ``vpn`` as the stages read it."""
    idx = vpn - pt._origin
    if not 0 <= idx < len(pt._frames) or pt._frames[idx] < 0:
        return None
    return [pt._frames[idx], bool(pt._dirty[idx])]


class TestPageTable:
    @settings(max_examples=60, deadline=None)
    @given(ops=PT_OPS)
    def test_matches_dict_page_table(self, ops):
        # The stages install, write and evict by writing the arrays at
        # ``_ensure``'s index; growth at either end must keep every entry
        # at its vpn and keep the array objects (hot loops hoist them).  A
        # read leaves the table as it is: accesses are recorded in the
        # chain's touched mask (the "touch" op of the chain test below).
        pt = PageTable(4, origin_hint=0x80000, size_hint=64)
        arrays = (pt._frames, pt._dirty)
        model = {}
        next_frame = 0
        touched = sorted({vpn for _, vpn in ops})
        for op, vpn in ops:
            if op == "map" and vpn not in model:
                idx = pt._ensure(vpn)
                assert pt._frames[idx] < 0
                pt._frames[idx] = next_frame
                pt._dirty[idx] = 0
                model[vpn] = [next_frame, False]
                next_frame += 1
            elif op == "unmap" and vpn in model:
                assert _pt_view(pt, vpn) == model.pop(vpn)
                pt._frames[pt._ensure(vpn)] = -1
            elif op == "write" and vpn in model:
                pt._dirty[pt._ensure(vpn)] = 1
                model[vpn][1] = True
            elif op == "probe":
                assert pt.is_resident(vpn) == (vpn in model)
            for v in touched:
                assert pt.is_resident(v) == (v in model)
                assert _pt_view(pt, v) == model.get(v)
        assert all(
            now is before
            for now, before in zip((pt._frames, pt._dirty), arrays)
        )

    def test_vpn_below_origin_is_not_resident(self):
        pt = PageTable(4, origin_hint=0x80000, size_hint=16)
        pt._frames[-1] = 7  # the last slot: a wrapped index would hit it
        assert not pt.is_resident(0x80000 - 1)
        assert pt.is_resident(0x80000 + len(pt._frames) - 1)


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

#: Ops that edit one field of an in-chain chunk through its handle.
FIELD_OPS = ("touch", "resident", "clear_resident", "counter", "ref")

#: Per-chunk fields the chain keeps, in the model's field-dict order.
FIELDS = (
    "resident_mask", "touched_mask", "prefetch_mask", "counter",
    "last_ref_interval", "insert_interval",
)


def _model_candidates(order, fields, interval, from_tail):
    """Old, then middle, then new partition; recency order within each."""
    walk = list(reversed(order)) if from_tail else list(order)

    def rank(cid):
        ref = fields[cid]["last_ref_interval"]
        return 2 if ref >= interval else 1 if ref == interval - 1 else 0

    return sorted(walk, key=rank)  # stable: keeps the walk order per rank


def _chain_observables(chain, interval):
    return (
        len(chain),
        [e.chunk_id for e in chain.from_head()],
        [e.chunk_id for e in chain.from_tail()],
        [e.chunk_id for e in chain.candidates_from_tail(interval)],
        [e.chunk_id for e in chain.candidates_from_head(interval)],
        {
            e.chunk_id: {name: getattr(e, name) for name in FIELDS}
            for e in chain.from_head()
        },
        {e.chunk_id: e.untouch_level() for e in chain.from_head()},
    )


def _model_observables(order, fields, interval):
    return (
        len(order),
        list(order),
        list(reversed(order)),
        _model_candidates(order, fields, interval, from_tail=True),
        _model_candidates(order, fields, interval, from_tail=False),
        {cid: dict(fields[cid]) for cid in order},
        {
            cid: bin(f["resident_mask"] & ~f["touched_mask"]).count("1")
            for cid, f in ((c, fields[c]) for c in order)
        },
    )


class TestChunkChain:
    @settings(max_examples=60, deadline=None)
    @given(ops=CHAIN_OPS, interval=st.integers(min_value=0, max_value=4))
    def test_matches_recency_list_model(self, ops, interval):
        chain = ChunkChain()
        order = []  # chunk ids, LRU-most first
        fields = {}  # chunk id -> field dict
        handles = {}
        peak = 0
        for op, cid, page in ops:
            if op in ("insert_tail", "insert_head") and cid not in order:
                entry = chain.new_entry(cid, interval)
                entry.resident_mask = 1 << page
                entry.counter = page
                getattr(chain, op)(entry)
                fields[cid] = {name: 0 for name in FIELDS}
                fields[cid].update(
                    resident_mask=1 << page, counter=page,
                    last_ref_interval=interval, insert_interval=interval,
                )
                if op == "insert_tail":
                    order.append(cid)
                else:
                    order.insert(0, cid)
                peak = max(peak, len(order))
            elif op == "remove" and cid in order:
                removed = chain.remove(cid)
                assert removed.chunk_id == cid
                assert {n: getattr(removed, n) for n in FIELDS} == fields.pop(cid)
                order.remove(cid)
            elif op == "move_to_tail" and cid in order:
                chain.move_to_tail(cid)
                order.remove(cid)
                order.append(cid)
            elif op in FIELD_OPS and cid in order:
                entry = next(e for e in chain.from_head() if e.chunk_id == cid)
                handles[cid] = entry
                f = fields[cid]
                if op == "touch":
                    entry.touched_mask |= 1 << page
                    f["touched_mask"] |= 1 << page
                elif op == "resident":
                    entry.resident_mask |= 1 << page
                    f["resident_mask"] |= 1 << page
                elif op == "clear_resident":
                    entry.resident_mask &= ~(1 << page)
                    f["resident_mask"] &= ~(1 << page)
                elif op == "counter":
                    entry.counter += 1
                    f["counter"] += 1
                else:
                    # Spread last-reference intervals over the old / middle /
                    # new partitions the candidate orders are built from.
                    entry.last_ref_interval = page % 6
                    f["last_ref_interval"] = page % 6
            elif op in ("remove", "move_to_tail") and cid not in order:
                with pytest.raises(SimulationError):
                    getattr(chain, op)(cid)
            assert _chain_observables(chain, interval) == _model_observables(
                order, fields, interval
            )
            assert chain.length_peak == peak
        # A handle stays the one object for its chunk (identity-stable).
        for cid, handle in handles.items():
            if cid in order:
                assert any(e is handle for e in chain.from_head())


class TestArrayChainFootprint:
    def test_chain_arrays_bounded_by_footprint(self):
        # Workloads live at Workload.base_vpn (0x80000 = chunk 0x8000): the
        # chain must anchor its arrays at the first chunk it sees rather
        # than at chunk 0, which would allocate every slot below the base.
        workload = make_simple_workload(footprint=1024)
        assert workload.base_vpn == 0x80000
        sim = Simulator(workload, oversubscription=0.5)
        sim.run()
        chain = sim.gmmu.chain
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

    def test_lru_early_stop_visits_a_prefix(self):
        chain = _filled(ChunkChain(), self.RESIDENTS)
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
        chain = _filled(ChunkChain(), self.RESIDENTS)
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

    @pytest.mark.parametrize("frames_needed", [1, 17, 60, 120, 142])
    def test_reserved_lru_matches_eager_scan(self, frames_needed):
        chain = _filled(ChunkChain(), self.RESIDENTS)
        policy = _policy_on(chain, ReservedLRUPolicy(0.25))
        got = [v.chunk_id for v in policy.select_victims(frames_needed, 0)]
        assert got == _eager_reserved_lru(chain, 0.25, frames_needed)


class TestArrayCoverage:
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
            for base_, mask_ in assigned:
                for vpn in pages(base_, mask_):
                    assert arr.get(vpn) is obj.get(vpn)
