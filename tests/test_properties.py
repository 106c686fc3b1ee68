"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PatternBufferConfig, SimConfig, SMConfig, TranslationConfig
from repro.engine.simulator import Simulator
from repro.memsim.chunk_chain import ChunkChain, ChunkEntry
from repro.memsim.device_memory import DeviceMemory
from repro.policies.mhpe import untouch_bucket
from repro.prefetch.pattern_aware import PatternBuffer
from repro.translation.tlb import TLB
from repro.config import TLBConfig
from repro.workloads.base import Workload, block_split, interleave_split

# ---------------------------------------------------------------------------
# Chunk chain
# ---------------------------------------------------------------------------

chain_ops = st.lists(
    st.tuples(
        st.sampled_from(["insert_tail", "insert_head", "remove", "move"]),
        st.integers(min_value=0, max_value=15),
    ),
    max_size=60,
)


@given(chain_ops)
def test_chunk_chain_structure_invariants(ops):
    """After any op sequence: both link directions agree with the count,
    and every chunk appears once."""
    chain = ChunkChain()
    members = set()
    for op, cid in ops:
        if op == "insert_tail" and cid not in members:
            chain.insert_tail(chain.new_entry(cid, 0))
            members.add(cid)
        elif op == "insert_head" and cid not in members:
            chain.insert_head(chain.new_entry(cid, 0))
            members.add(cid)
        elif op == "remove" and cid in members:
            chain.remove(cid)
            members.discard(cid)
        elif op == "move" and cid in members:
            chain.move_to_tail(cid)
        forward = [e.chunk_id for e in chain.from_head()]
        backward = [e.chunk_id for e in chain.from_tail()]
        assert forward == list(reversed(backward))
        assert len(forward) == len(chain) == len(members)
        assert set(forward) == members


@given(
    st.integers(min_value=0, max_value=0xFFFF),
    st.integers(min_value=0, max_value=0xFFFF),
)
def test_untouch_level_is_resident_minus_touched(resident, touched):
    entry = ChunkEntry(0, 0)
    entry.resident_mask = resident
    entry.touched_mask = touched
    assert entry.untouch_level() == bin(resident & ~touched).count("1")
    assert 0 <= entry.untouch_level() <= 16


# ---------------------------------------------------------------------------
# Device memory
# ---------------------------------------------------------------------------


@given(st.lists(st.booleans(), max_size=100), st.integers(min_value=1, max_value=16))
def test_device_memory_conservation(ops, capacity):
    """allocated + free == capacity at every step; frames never duplicated."""
    mem = DeviceMemory(capacity)
    held = []
    for do_alloc in ops:
        if do_alloc and mem.free_frames:
            held.append(mem.allocate())
        elif held:
            mem.free(held.pop())
        assert mem.allocated_frames + mem.free_frames == mem.capacity
        assert len(set(held)) == len(held)
        assert mem.allocated_frames == len(held)


# ---------------------------------------------------------------------------
# TLB
# ---------------------------------------------------------------------------


@given(st.lists(st.integers(min_value=0, max_value=300), max_size=200))
def test_tlb_occupancy_bounded(vpns):
    tlb = TLB(TLBConfig(entries=16, associativity=4))
    for vpn in vpns:
        if not tlb.lookup(vpn):
            tlb.insert(vpn)
        assert tlb.occupancy() <= 16
    # Everything reported present must actually hit.
    for vpn in set(vpns):
        if vpn in tlb:
            assert tlb.lookup(vpn)


# ---------------------------------------------------------------------------
# untouch bucket
# ---------------------------------------------------------------------------


@given(st.integers(min_value=0, max_value=200))
def test_untouch_bucket_monotone_and_bounded(level):
    b = untouch_bucket(level)
    assert 0 <= b <= 4
    if level > 0:
        assert untouch_bucket(level - 1) <= b


# ---------------------------------------------------------------------------
# Pattern buffer
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=20),  # chunk id
            st.integers(min_value=1, max_value=0xFFFF),  # touched mask
            st.integers(min_value=0, max_value=16),  # untouch level
        ),
        max_size=50,
    ),
    st.integers(min_value=1, max_value=8),
)
def test_pattern_buffer_capacity_never_exceeded(records, cap):
    buf = PatternBuffer(PatternBufferConfig(max_entries=cap))
    for cid, mask, untouch in records:
        buf.record(cid, mask, untouch)
        assert len(buf) <= cap
        entry = buf.get(cid)
        if entry is not None:
            assert entry.touched_mask != 0


# ---------------------------------------------------------------------------
# Workload splitting
# ---------------------------------------------------------------------------


@given(
    st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=300),
    st.integers(min_value=1, max_value=32),
)
def test_splits_partition_the_stream(elements, n):
    arr = np.asarray(elements, dtype=np.int64)
    for split in (interleave_split, block_split):
        parts = split(arr, n)
        assert len(parts) == n
        assert sum(len(p) for p in parts) == len(arr)
        assert sorted(np.concatenate(parts)) == sorted(elements)


# ---------------------------------------------------------------------------
# End-to-end conservation (slow: keep example count low)
# ---------------------------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(
    footprint_chunks=st.integers(min_value=8, max_value=24),
    sweeps=st.integers(min_value=1, max_value=3),
    rate=st.sampled_from([0.5, 0.75, None]),
    seed=st.integers(min_value=0, max_value=3),
)
def test_simulation_conservation_invariants(footprint_chunks, sweeps, rate, seed):
    """For arbitrary small cyclic workloads and rates:

    * all accesses execute;
    * pages migrated = demand + prefetched;
    * residency never exceeds capacity;
    * pages evicted <= pages migrated;
    * every SM finishes.
    """
    footprint = footprint_chunks * 16
    rng = np.random.default_rng(seed)
    base = np.tile(np.arange(footprint, dtype=np.int64), sweeps)
    # Sprinkle random repeats to vary merge behaviour.
    extra = rng.integers(0, footprint, size=footprint // 4)
    accesses = np.concatenate([base, extra])
    wl = Workload(
        name="prop", pattern_type="IV", footprint_pages=footprint,
        accesses=accesses,
    )
    sim = Simulator(
        wl,
        oversubscription=rate,
        config=SimConfig(
            sm=SMConfig(num_sms=4), translation=TranslationConfig(enabled=False)
        ),
    )
    result = sim.run()
    s = result.stats
    assert s.accesses == wl.num_accesses
    assert s.pages_migrated == s.demand_pages + s.prefetched_pages
    assert sim.gmmu.device.peak_allocated <= sim.capacity
    assert s.pages_evicted <= s.pages_migrated
    assert all(sm.done for sm in sim.sms)


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.lists(
            st.one_of(st.integers(-10**6, 10**6), st.floats(-1e6, 1e6),
                      st.text(max_size=12), st.none(), st.booleans()),
            min_size=2, max_size=2,
        ),
        min_size=1, max_size=20,
    )
)
def test_render_table_always_aligned(rows):
    from repro.harness.report import render_table

    out = render_table(["col-a", "col-b"], rows)
    lines = out.splitlines()
    assert len(lines) == 2 + len(rows)
    widths = {len(line) for line in lines}
    assert len(widths) == 1  # every row padded to the same width
