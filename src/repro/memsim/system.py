"""The staged memory-system pipeline (GMMU + host-side UVM runtime).

What used to be one god-object (``memsim.gmmu.GMMU``) is four explicit
stages behind the :class:`MemorySystem` facade::

    SM far fault
        │
    FaultFrontend        intake, duplicate merge into in-flight migrations
        │ queued
    MigrationScheduler   batch formation (prefetcher consult), service
        │                slots, PCIe charging, migration completion
        ├─► EvictionService   victim selection, unmap + TLB shootdown +
        │                     writeback, the CPPE coordination hook
        └─► IntervalClock     64-migrated-pages interval geometry,
                              per-interval policy telemetry

Stages communicate through narrow seams (the frontend's coverage map, the
shared :class:`FrameLedger`, the clock's ``current_interval``), never by
reaching into each other's internals — which is what makes multiple
:class:`MemorySystem` instances on one event queue (multi-GPU scenarios,
see ``repro.engine.multi``) expressible.

The decomposition is behavior-preserving: ``tests/test_system_differential.py``
proves byte-identical results and traces against the pre-refactor monolith.
"""

from __future__ import annotations

import random
from collections import deque
from functools import partial
from itertools import groupby
from typing import Callable, Deque, Dict, List, Optional, Set

from ..config import SimConfig, UVMConfig
from ..engine.events import EventQueue
from ..engine.stats import IntervalRecord, SimStats
from ..errors import CapacityError, SimulationError, ThrashingCrash
from ..obs import DISABLED, Observability
from ..policies.base import EvictionPolicy, PolicyContext
from ..policies.hpe import HPEPolicy
from ..policies.lru import LRUPolicy
from ..policies.mhpe import MHPEPolicy
from ..policies.random_policy import RandomPolicy
from ..policies.reserved_lru import ReservedLRUPolicy
from ..prefetch.base import PrefetchContext, Prefetcher
from ..translation.hierarchy import TranslationHierarchy
from .array_backend import ArrayChunkChain, ArrayCoverage, ArrayPageTable
from .chunk_chain import ChunkChain, ChunkEntry
from .device_memory import DeviceMemory
from .fault import FarFault, InFlightMigration
from .page_table import PageTable
from .pcie import PCIeLink

__all__ = [
    "FrameLedger",
    "IntervalClock",
    "FaultFrontend",
    "EvictionService",
    "MigrationScheduler",
    "MemorySystem",
    "policy_touch_kind",
]


def policy_touch_kind(policy: EvictionPolicy) -> Optional[str]:
    """Classify a policy's ``on_page_touched`` for the array fast path.

    Exact ``type()`` matches only: a subclass may override the hook, so it
    falls through to ``None`` (= call the hook dynamically).  The returned
    kind names the touch side-effect recipe the fast paths replay inline:

    * ``"lru"``  — move to tail, refresh ``last_ref_interval``;
    * ``"hpe"``  — saturating counter bump, move to tail, refresh;
    * ``"mhpe"`` — move at most once per interval, refresh on first touch;
    * ``"ref"``  — refresh ``last_ref_interval`` only.
    """
    ptype = type(policy)
    if ptype is LRUPolicy or ptype is ReservedLRUPolicy:
        return "lru"
    if ptype is HPEPolicy:
        return "hpe"
    if ptype is MHPEPolicy:
        return "mhpe"
    if ptype is RandomPolicy:
        return "ref"
    return None


class FrameLedger:
    """Frame-reservation accounting shared by the scheduler and the evictor.

    The scheduler reserves frames for pages it has put in flight; the
    eviction service must not count those as free when deciding whether a
    batch still fits.  This tiny shared object is the only capacity state
    the two stages exchange.
    """

    __slots__ = ("_device", "_pages_per_chunk", "reserved")

    def __init__(self, device: DeviceMemory, pages_per_chunk: int) -> None:
        self._device = device
        self._pages_per_chunk = pages_per_chunk
        #: Frames promised to in-flight migrations but not yet allocated.
        self.reserved = 0

    @property
    def free_unreserved(self) -> int:
        """Free frames not already promised to an in-flight migration."""
        return self._device.free_frames - self.reserved

    @property
    def memory_full(self) -> bool:
        """True once a whole chunk no longer fits without eviction."""
        return self.free_unreserved < self._pages_per_chunk


class IntervalClock:
    """Stage: interval geometry (one interval per 64 migrated pages).

    Counts migrated pages, faults and evictions per interval, and on each
    boundary builds the :class:`IntervalRecord` that drives the policies'
    adaptation (Tables III/IV telemetry) — implementing the
    :class:`repro.policies.base.IntervalSource` protocol policies read.
    """

    def __init__(
        self,
        uvm: UVMConfig,
        stats: SimStats,
        policy: EvictionPolicy,
        pcie: PCIeLink,
        obs: Observability,
    ) -> None:
        self.uvm = uvm
        self.stats = stats
        self.policy = policy
        self.pcie = pcie
        self.obs = obs
        self._trace = obs.tracer
        self._pages_migrated = 0
        self._interval_index = 0
        self._interval_faults = 0
        self._interval_evictions = 0

    @property
    def current_interval(self) -> int:
        return self._interval_index

    @property
    def pages_migrated(self) -> int:
        return self._pages_migrated

    def note_fault(self) -> None:
        self._interval_faults += 1

    def note_eviction(self) -> None:
        self._interval_evictions += 1

    def advance(self, migrated_pages: int, time: int) -> None:
        """Credit migrated pages; tick every interval boundary crossed.

        A single batch can straddle a boundary (or several), so this loops:
        each completed interval gets its own record and policy callback.
        The number of crossings is computed arithmetically up front (the
        vectorized form of the old per-boundary comparison loop); the loop
        body runs once per completed interval, as before.
        """
        self._pages_migrated += migrated_pages
        crossings = (
            self._pages_migrated // self.uvm.interval_pages - self._interval_index
        )
        for _ in range(crossings):
            record = IntervalRecord(
                index=self._interval_index,
                end_time=time,
                faults=self._interval_faults,
                chunks_evicted=self._interval_evictions,
            )
            self.policy.on_interval_end(record, time)
            self.stats.record_interval(record)
            if self._trace.enabled:
                # The policy filled the strategy/distance/untouch fields in
                # ``record`` above; pattern occupancy comes from the metrics
                # registry (cross-component read, 0 when no pattern buffer).
                self._trace.emit(
                    "interval", time,
                    index=record.index,
                    strategy=record.strategy,
                    forward_distance=record.forward_distance,
                    untouch_level=record.untouch_total,
                    wrong_evictions=record.wrong_evictions,
                    faults=record.faults,
                    chunks_evicted=record.chunks_evicted,
                    pattern_occupancy=self.obs.metrics.value(
                        "pattern.occupancy"
                    ),
                    bytes_h2d=self.pcie.bytes_to_device,
                    bytes_d2h=self.pcie.bytes_to_host,
                )
            self._interval_index += 1
            self._interval_faults = 0
            self._interval_evictions = 0


class FaultFrontend:
    """Stage: far-fault intake and duplicate merging.

    Owns the pending-fault queue and the coverage map (vpn → in-flight
    migration).  A fault whose page is already on its way merges into that
    migration (the replayable far-fault hardware of [9]); everything else
    queues for the scheduler.
    """

    def __init__(
        self,
        uvm: UVMConfig,
        stats: SimStats,
        policy: EvictionPolicy,
        clock: IntervalClock,
        obs: Observability,
    ) -> None:
        self.uvm = uvm
        self.stats = stats
        self.policy = policy
        self.clock = clock
        self._trace = obs.tracer
        self.pending: Deque[FarFault] = deque()
        #: vpn -> the in-flight migration that will install it.
        self.covered: Dict[int, InFlightMigration] = {}
        metrics = obs.metrics
        self._m_faults = metrics.counter("gmmu.far_faults")
        self._m_merged = metrics.counter("gmmu.merged_faults")

    def covering(self, vpn: int) -> Optional[InFlightMigration]:
        return self.covered.get(vpn)

    def cover(self, vpn: int, mig: InFlightMigration) -> None:
        self.covered[vpn] = mig

    def uncover(self, vpn: int) -> None:
        self.covered.pop(vpn, None)

    def note_merged(self) -> None:
        """Account one merged (deduplicated) fault."""
        self.stats.merged_faults += 1
        self._m_merged.inc()

    def merge(self, fault: FarFault, mig: InFlightMigration) -> None:
        """Attach ``fault`` to an in-flight migration that covers its page."""
        mig.attach(fault)
        self.note_merged()

    def intake(self, fault: FarFault) -> bool:
        """Accept one far fault; returns True when it was queued (i.e. the
        scheduler should pump) and False when it merged in flight."""
        self.stats.far_faults += 1
        self.clock.note_fault()
        self._m_faults.inc()
        ppc = self.uvm.pages_per_chunk
        self.policy.on_fault(fault.vpn, fault.vpn // ppc, fault.time)
        if self._trace.enabled:
            self._trace.emit(
                "fault", fault.time, chunk=fault.vpn // ppc,
                **fault.trace_args(),
            )

        covering = self.covered.get(fault.vpn)
        if covering is not None:
            # The page is already on its way: merge.
            self.merge(fault, covering)
            return False
        self.pending.append(fault)
        return True


class EvictionService:
    """Stage: victim selection and chunk retirement.

    Asks the policy for victims when a batch does not fit, unmaps their
    pages (TLB shootdown + writeback accounting), and feeds each evicted
    chunk's touch pattern back to the policy and the prefetcher — the CPPE
    coordination point (``on_chunk_evicted``).
    """

    def __init__(
        self,
        uvm: UVMConfig,
        device: DeviceMemory,
        page_table: PageTable,
        chain: ChunkChain,
        pcie: PCIeLink,
        ledger: FrameLedger,
        policy: EvictionPolicy,
        prefetcher: Prefetcher,
        translation: Optional[TranslationHierarchy],
        stats: SimStats,
        clock: IntervalClock,
        obs: Observability,
        footprint_pages: Optional[int],
    ) -> None:
        self.uvm = uvm
        self.device = device
        self.page_table = page_table
        self.chain = chain
        self.pcie = pcie
        self.ledger = ledger
        self.policy = policy
        self.prefetcher = prefetcher
        self.translation = translation
        self.stats = stats
        self.clock = clock
        self._trace = obs.tracer
        self._memory_full_seen = False
        self._footprint_pages = footprint_pages
        self._m_evictions = obs.metrics.counter("gmmu.chunks_evicted")
        #: Maintained by MemorySystem (chain and page table must both be
        #: array-backed before the fused eviction path is safe).
        self._use_array = False
        # Set-level shootdown targets for the fused path: a fully
        # associative TLB is one dict, whose (live) key view is intersected
        # with the evicted vpns in C; a set-associative one keeps the
        # per-page probe.
        self._tlb_dicts: List[tuple] = []
        self._tlb_sets: List[tuple] = []
        if translation is not None:
            for tlb in (*translation.l1_tlbs, translation.l2_tlb):
                if tlb._num_sets == 1:
                    s = tlb._sets[0]
                    self._tlb_dicts.append((s, s.keys()))
                else:
                    self._tlb_sets.append((tlb._sets, tlb._num_sets))

    def ensure_capacity(self, frames_needed: int, time: int) -> int:
        """Evict chunks until ``frames_needed`` frames are free.

        Returns the number of victim chunks evicted."""
        if self.ledger.free_unreserved >= frames_needed:
            return 0
        if not self._memory_full_seen:
            self._memory_full_seen = True
            if self._trace.enabled:
                self._trace.emit(
                    "memory_full", time, chain_length=len(self.chain),
                    capacity_frames=self.device.capacity,
                )
            self.policy.on_memory_full(time)
        shortfall = frames_needed - self.ledger.free_unreserved
        victims = self.policy.select_victims(shortfall, time)
        evict = self._evict_chunk_array if self._use_array else self.evict_chunk
        for entry in victims:
            evict(entry, time)
        if self.ledger.free_unreserved < frames_needed:
            raise SimulationError(
                f"policy {self.policy.name} freed "
                f"{self.ledger.free_unreserved} frames of the {frames_needed} "
                "needed — select_victims violated its contract"
            )
        return len(victims)

    def evict_chunk(self, entry: ChunkEntry, time: int) -> None:
        """Unmap every resident page of ``entry`` and retire its metadata."""
        ppc = self.uvm.pages_per_chunk
        base = entry.chunk_id * ppc
        dirty_pages = 0
        evicted_pages = 0
        for i in range(ppc):
            if not entry.is_resident(i):
                continue
            vpn = base + i
            frame, accessed, dirty = self.page_table.unmap(vpn)
            self.device.free(frame)
            if self.translation is not None:
                self.translation.shootdown(vpn)
            if dirty:
                dirty_pages += 1
            evicted_pages += 1
            entry.clear_resident(i)
        # Residency cleared above, so untouch accounting reads the masks as
        # they stood at unmap time via the snapshot below.
        self.chain.remove(entry.chunk_id)
        self.stats.chunks_evicted += 1
        self.stats.pages_evicted += evicted_pages
        self.stats.dirty_pages_written_back += dirty_pages
        self.clock.note_eviction()
        self._m_evictions.inc()
        if dirty_pages:
            # Writebacks ride the duplex link: bytes counted, latency not on
            # the fault-service critical path (see DESIGN.md).
            self.pcie.transfer_to_host(dirty_pages, time=time)
            self.stats.bytes_device_to_host = self.pcie.bytes_to_host
        # Prefetch accuracy accounting.
        touched_prefetched = bin(entry.prefetch_mask & entry.touched_mask).count("1")
        self.stats.prefetched_pages_touched += touched_prefetched

        # Untouch level must reflect what was migrated, so give the policy a
        # snapshot with residency restored.  Every migrated page is either a
        # prefetched page (prefetch_mask) or a demand page, and demand pages
        # are touched on fault replay before any later eviction can run, so
        # touched|prefetch is exactly the pre-eviction residency.
        snapshot = ChunkEntry(entry.chunk_id, entry.insert_interval)
        snapshot.resident_mask = entry.touched_mask | entry.prefetch_mask
        snapshot.touched_mask = entry.touched_mask
        snapshot.prefetch_mask = entry.prefetch_mask
        snapshot.counter = entry.counter
        if self._trace.enabled:
            self._trace.emit(
                "eviction", time, chunk=entry.chunk_id, pages=evicted_pages,
                dirty=dirty_pages, untouch=snapshot.untouch_level(),
                strategy=self.policy.current_strategy,
            )
        self.policy.on_chunk_evicted(snapshot, time)
        self.prefetcher.on_chunk_evicted(
            entry.chunk_id,
            entry.touched_mask,
            snapshot.untouch_level(),
            self.policy.current_strategy,
            time=time,
        )
        self._check_crash_budget()

    def _evict_chunk_array(self, entry: ChunkEntry, time: int) -> None:
        """Array-backend eviction: raw mask iteration over flat arrays with
        the TLB shootdown inlined (byte-identical to the object path)."""
        ppc = self.uvm.pages_per_chunk
        chain = self.chain
        cid = entry.chunk_id
        li = cid - chain._origin
        # Masks captured before residency is cleared — the snapshot below
        # must reflect the chunk as it stood at unmap time.
        res_mask = chain._res[li]
        tch_mask = chain._tch[li]
        pfm_mask = chain._pfm[li]
        counter = chain._ctr[li]
        insert_interval = chain._iint[li]
        base = cid * ppc
        pt = self.page_table
        p_origin = pt._origin
        frames = pt._frames
        drt = pt._dirty
        free_append = self.device._free.append
        # Evicted pages that may sit in a TLB: only touched ones can, since
        # every TLB fill comes with a touch of the page, and a chunk's
        # touched mask is reset only after all its pages were shot down.
        in_tlb: List[int] = []
        dirty_pages = 0
        evicted_pages = 0
        m = res_mask
        while m:  # ascending page order, like the object path's range loop
            low = m & -m
            m ^= low
            vpn = base + low.bit_length() - 1
            idx = vpn - p_origin
            frame = frames[idx]
            if frame < 0:
                raise SimulationError(f"vpn {vpn} not mapped")
            frames[idx] = -1
            free_append(frame)
            if drt[idx]:
                dirty_pages += 1
            evicted_pages += 1
            if tch_mask & low:
                in_tlb.append(vpn)
        if in_tlb and self.translation is not None:
            # One shootdown per evicted page present in any TLB.
            gone = set(in_tlb)
            hit: Set[int] = set()
            for s, keys in self._tlb_dicts:
                common = keys & gone
                if common:
                    for vpn in common:
                        del s[vpn]
                    hit |= common
            for sets, num in self._tlb_sets:
                for vpn in in_tlb:
                    s = sets[vpn % num]
                    if vpn in s:
                        del s[vpn]
                        hit.add(vpn)
            if hit:
                self.stats.tlb_shootdowns += len(hit)
        chain._res[li] = 0
        pt._resident -= evicted_pages
        self.device._allocated -= evicted_pages
        self.chain.remove(cid)
        self.stats.chunks_evicted += 1
        self.stats.pages_evicted += evicted_pages
        self.stats.dirty_pages_written_back += dirty_pages
        self.clock.note_eviction()
        self._m_evictions.inc()
        if dirty_pages:
            self.pcie.transfer_to_host(dirty_pages, time=time)
            self.stats.bytes_device_to_host = self.pcie.bytes_to_host
        self.stats.prefetched_pages_touched += bin(pfm_mask & tch_mask).count("1")
        snapshot = ChunkEntry(cid, insert_interval)
        snapshot.resident_mask = tch_mask | pfm_mask
        snapshot.touched_mask = tch_mask
        snapshot.prefetch_mask = pfm_mask
        snapshot.counter = counter
        if self._trace.enabled:
            self._trace.emit(
                "eviction", time, chunk=cid, pages=evicted_pages,
                dirty=dirty_pages, untouch=snapshot.untouch_level(),
                strategy=self.policy.current_strategy,
            )
        self.policy.on_chunk_evicted(snapshot, time)
        self.prefetcher.on_chunk_evicted(
            cid,
            tch_mask,
            snapshot.untouch_level(),
            self.policy.current_strategy,
            time=time,
        )
        self._check_crash_budget()

    def _check_crash_budget(self) -> None:
        factor = self.uvm.crash_eviction_budget_factor
        if factor is None or self._footprint_pages is None:
            return
        footprint_chunks = max(1, self._footprint_pages // self.uvm.pages_per_chunk)
        budget = int(factor * footprint_chunks)
        if self.stats.chunks_evicted > budget:
            raise ThrashingCrash(self.stats.chunks_evicted, budget)


class MigrationScheduler:
    """Stage: the fault-service loop.

    Runs a (configurably parallel, default serial) set of service slots:
    each service op consults the prefetcher for the page batch, asks the
    eviction service to make room, charges the 20 µs service latency plus
    PCIe transfer time, and — on completion — installs the pages, wakes the
    merged faults, and credits the interval clock.
    """

    def __init__(
        self,
        uvm: UVMConfig,
        device: DeviceMemory,
        page_table: PageTable,
        chain: ChunkChain,
        pcie: PCIeLink,
        events: EventQueue,
        stats: SimStats,
        ledger: FrameLedger,
        frontend: FaultFrontend,
        evictor: EvictionService,
        clock: IntervalClock,
        policy: EvictionPolicy,
        prefetcher: Prefetcher,
        obs: Observability,
    ) -> None:
        self.uvm = uvm
        self.device = device
        self.page_table = page_table
        self.chain = chain
        self.pcie = pcie
        self.events = events
        self.stats = stats
        self.ledger = ledger
        self.frontend = frontend
        self.evictor = evictor
        self.clock = clock
        self.policy = policy
        self.prefetcher = prefetcher
        self._trace = obs.tracer
        self.in_flight: Dict[int, InFlightMigration] = {}  # keyed by mig.token
        self._next_migration_token = 0
        self._active_services = 0
        self._h_batch = obs.metrics.histogram("gmmu.batch_pages")
        #: Maintained by MemorySystem (see EvictionService._use_array).
        self._use_array = False

    # ------------------------------------------------------- service loop

    def pump(self, time: int) -> None:
        """Fill free service slots from the frontend's pending queue.

        Queued faults whose page arrived, or went in flight, while they
        waited are drained in this one loop (replayed or merged); only a
        fault that needs a migration of its own starts a service op.
        """
        pending = self.frontend.pending
        parallelism = self.uvm.fault_parallelism
        if not self._use_array:
            while self._active_services < parallelism and pending:
                self.begin_service(pending.popleft(), time)
            return
        pt = self.page_table
        frames = pt._frames
        covered = self.frontend.covered
        slots = covered._slots
        while self._active_services < parallelism and pending:
            fault = pending.popleft()
            vpn = fault.vpn
            idx = vpn - pt._origin
            if 0 <= idx < len(frames) and frames[idx] >= 0:
                fault.sm.replay(vpn, fault.is_write, time)
                continue
            idx = vpn - covered._origin
            mig = slots[idx] if 0 <= idx < len(slots) else None
            if mig is not None:
                mig.faults.append(fault)
                self.stats.merged_faults += 1
                self.frontend._m_merged.value += 1
                continue
            self._start_service(fault, time)

    def max_batch(self) -> int:
        """Largest allowed migration batch.

        Clamps aggressive prefetchers (the tree prefetcher can request a
        whole 2 MB region) to half of device memory: the driver never
        evicts the working set wholesale to make room for a prefetch.
        """
        return max(self.uvm.pages_per_chunk, self.device.capacity // 2)

    def _skip_predicate(self, in_batch: Set[int]) -> Callable[[int], bool]:
        """The prefetchers' skip test for one service op: resident, already
        in flight, or already claimed by the op being assembled
        (``in_batch``, which the op keeps extending)."""
        covered = self.frontend.covered
        if not self._use_array:
            resident = self.page_table.is_resident
            return lambda vpn: resident(vpn) or vpn in covered or vpn in in_batch
        # Raw-array predicate: prefetchers probe it once per candidate page,
        # so the dict/method indirections add up.  Neither array grows
        # while an op is assembled.
        pt = self.page_table
        frames = pt._frames
        p_origin = pt._origin
        nf = len(frames)
        slots = covered._slots
        c_origin = covered._origin
        ns = len(slots)

        def skip(vpn: int) -> bool:
            i = vpn - p_origin
            if 0 <= i < nf and frames[i] >= 0:
                return True
            j = vpn - c_origin
            if 0 <= j < ns and slots[j] is not None:
                return True
            return vpn in in_batch

        return skip

    def _gather_pages(
        self,
        fault: FarFault,
        in_batch: Set[int],
        skip: Callable[[int], bool],
    ) -> Optional[List[int]]:
        """Consult the prefetcher for ``fault``; returns the page batch or
        None when the fault needs no migration of its own.

        ``in_batch`` holds pages already claimed by the service op being
        assembled; those are skipped like resident/in-flight pages and, when
        the demand page itself is among them, the fault simply joins the op.
        """
        if self.frontend.covering(fault.vpn) is not None or fault.vpn in in_batch:
            return None
        pages = self.prefetcher.pages_to_migrate(
            fault.vpn, self.ledger.memory_full, skip, time=fault.time
        )
        if not pages or fault.vpn not in pages:
            raise SimulationError(
                f"prefetcher {self.prefetcher.name} did not include the "
                f"demand page {fault.vpn}"
            )
        max_batch = self.max_batch()
        if len(pages) > max_batch:
            # Prefetchers order the demand page first, so truncation keeps it.
            pages = pages[:max_batch]
        return pages

    def begin_service(self, fault: FarFault, time: int) -> bool:
        """Start one fault-service op.  Returns False if the fault resolved
        without a new migration (page arrived while it was queued)."""
        if self.page_table.is_resident(fault.vpn):
            fault.sm.replay(fault.vpn, fault.is_write, time)
            return False
        covering = self.frontend.covering(fault.vpn)
        if covering is not None:
            self.frontend.merge(fault, covering)
            return False
        self._start_service(fault, time)
        return True

    def _start_service(self, fault: FarFault, time: int) -> None:
        """Start a service op for ``fault``, whose page is neither resident
        nor in flight.

        With ``fault_batch_size > 1`` the op drains further pending faults
        from the buffer, amortising the base service latency across chunks
        (UVM batch processing; the paper's configuration services one fault
        group per op).
        """
        in_batch: Set[int] = set()
        skip = self._skip_predicate(in_batch)
        pages = self._gather_pages(fault, in_batch, skip)
        assert pages is not None  # neither covered nor in an empty batch
        batch_faults = [fault]
        batch_pages: List[int] = list(pages)
        in_batch.update(pages)

        budget = self.uvm.fault_batch_size - 1
        max_total = self.max_batch()
        pending = self.frontend.pending
        while budget > 0 and pending and len(batch_pages) < max_total:
            nxt = pending[0]
            if self.page_table.is_resident(nxt.vpn):
                pending.popleft()
                nxt.sm.replay(nxt.vpn, nxt.is_write, time)
                continue
            extra = self._gather_pages(nxt, in_batch, skip)
            if extra is None:
                # Covered by an in-flight migration or by this very batch.
                pending.popleft()
                if nxt.vpn in in_batch:
                    batch_faults.append(nxt)
                    self.frontend.note_merged()
                else:
                    covering = self.frontend.covered[nxt.vpn]
                    self.frontend.merge(nxt, covering)
                continue
            if len(batch_pages) + len(extra) > max_total:
                break
            pending.popleft()
            batch_faults.append(nxt)
            batch_pages.extend(extra)
            in_batch.update(extra)
            budget -= 1

        victims_evicted = self.evictor.ensure_capacity(len(batch_pages), time)
        self.ledger.reserved += len(batch_pages)

        mig = InFlightMigration(
            chunk_id=fault.vpn // self.uvm.pages_per_chunk,
            pages=set(batch_pages),
            faults=batch_faults,
            start_time=time,
            token=self._next_migration_token,
        )
        self._next_migration_token += 1
        if self._use_array:
            self.frontend.covered.assign(batch_pages, mig)
        else:
            for vpn in batch_pages:
                self.frontend.cover(vpn, mig)
        self.in_flight[mig.token] = mig
        self._active_services += 1

        self._h_batch.observe(len(batch_pages))
        transfer = self.pcie.transfer_to_device(len(batch_pages), time=time)
        latency = (
            self.uvm.fault_latency_cycles
            + transfer
            + victims_evicted * self.uvm.eviction_overhead_cycles
        )
        mig.finish_time = time + latency
        self.stats.fault_service_ops += 1
        self.stats.bytes_host_to_device = self.pcie.bytes_to_device
        self.events.schedule(
            mig.finish_time, partial(self.complete_migration, mig)
        )

    # ----------------------------------------------------- migration finish

    def complete_migration(self, mig: InFlightMigration, time: int) -> None:
        ppc = self.uvm.pages_per_chunk
        demand_vpns = {f.vpn for f in mig.faults}
        if self._use_array:
            self._install_pages_array(mig, demand_vpns, time)
        else:
            # Group pages by chunk (pattern prefetch stays within one chunk,
            # but the tree prefetcher can cross chunks).
            by_chunk: Dict[int, List[int]] = {}
            for vpn in sorted(mig.pages):
                by_chunk.setdefault(vpn // ppc, []).append(vpn)

            for chunk_id, vpns in by_chunk.items():
                entry = self.chain.get(chunk_id)
                is_new = entry is None
                if entry is None:
                    entry = self.chain.new_entry(
                        chunk_id, self.clock.current_interval
                    )
                for vpn in vpns:
                    frame = self.device.allocate()
                    self.page_table.map(vpn, frame)
                    idx = vpn % ppc
                    entry.mark_resident(idx)
                    if vpn in demand_vpns:
                        self.stats.demand_pages += 1
                    else:
                        entry.prefetch_mask |= 1 << idx
                        self.stats.prefetched_pages += 1
                    self.frontend.uncover(vpn)
                # HPE-style counter pollution: migration bumps the counter by
                # the number of pages migrated (Inefficiency 1 of the paper).
                entry.counter = min(16, entry.counter + len(vpns))
                if is_new:
                    self.policy.insert_chunk(entry, time)

        migrated = len(mig.pages)
        self.ledger.reserved -= migrated
        self.stats.pages_migrated += migrated
        if self._trace.enabled:
            # Chrome duration slice: anchored at the start, dur in cycles
            # (the exporter converts both to microseconds).
            self._trace.emit(
                "migration", mig.start_time, dur=time - mig.start_time,
                demand=len(mig.faults), **mig.trace_args(),
            )
        self.clock.advance(migrated, time)

        del self.in_flight[mig.token]
        self._active_services -= 1
        for fault in mig.faults:
            fault.sm.replay(fault.vpn, fault.is_write, time)
        self.stats.chain_length_peak = self.chain.length_peak
        self.pump(time)

    def _install_pages_array(
        self, mig: InFlightMigration, demand_vpns: Set[int], time: int
    ) -> None:
        """Array-backend page install: grow the flat arrays once for the
        batch extremes, then write frames/masks with raw indexing.  Keeps
        the exact per-chunk, ascending-vpn order of the object path."""
        ppc = self.uvm.pages_per_chunk
        pages = sorted(mig.pages)
        chain = self.chain
        pt = self.page_table
        # Arrays are contiguous, so covering both extremes covers the batch.
        pt._ensure(pages[0])
        pt._ensure(pages[-1])
        chain._ensure(pages[0] // ppc)
        chain._ensure(pages[-1] // ppc)
        p_origin = pt._origin
        frames = pt._frames
        acc = pt._accessed
        drt = pt._dirty
        c_origin = chain._origin
        res_l = chain._res
        pfm_l = chain._pfm
        ctr_l = chain._ctr
        inch = chain._inch
        device = self.device
        free = device._free
        if len(free) < len(pages):
            raise CapacityError("device memory exhausted")
        interval = self.clock.current_interval
        demand = 0
        prefetched = 0
        # ``pages`` is sorted, so each chunk's pages form one run; the C-level
        # key (vpn // ppc) groups them without a per-page Python call.
        for chunk_id, run in groupby(pages, ppc.__rfloordiv__):
            vpns = list(run)
            li = chunk_id - c_origin
            is_new = not inch[li]
            if is_new:
                chain.new_entry(chunk_id, interval)
            base = chunk_id * ppc
            res = res_l[li]
            pfm = pfm_l[li]
            for vpn in vpns:
                idx = vpn - p_origin
                if frames[idx] >= 0:
                    raise SimulationError(f"vpn {vpn} already mapped")
                frames[idx] = free.pop()
                acc[idx] = 0
                drt[idx] = 0
                bit = 1 << (vpn - base)
                res |= bit
                if vpn in demand_vpns:
                    demand += 1
                else:
                    pfm |= bit
                    prefetched += 1
            res_l[li] = res
            pfm_l[li] = pfm
            ctr_l[li] = min(16, ctr_l[li] + len(vpns))
            if is_new:
                self.policy.insert_chunk(chain._handle(li), time)
        self.frontend.covered.discard(pages)
        n = len(pages)
        device._allocated += n
        if device._allocated > device.peak_allocated:
            device.peak_allocated = device._allocated
        pt._resident += n
        if pt._resident > pt.resident_peak:
            pt.resident_peak = pt._resident
        self.stats.demand_pages += demand
        self.stats.prefetched_pages += prefetched


class MemorySystem:
    """Facade: the staged unified-memory runtime for one simulated GPU.

    Owns the shared mechanism structures (device memory, page table, chunk
    chain, PCIe link, RNG) and wires the four stages together; SMs and the
    :class:`~repro.engine.simulator.Simulator` talk only to this surface.
    """

    def __init__(
        self,
        config: SimConfig,
        capacity_frames: int,
        events: EventQueue,
        stats: SimStats,
        policy: EvictionPolicy,
        prefetcher: Prefetcher,
        translation: Optional[TranslationHierarchy] = None,
        footprint_pages: Optional[int] = None,
        obs: Optional[Observability] = None,
    ):
        self.config = config
        self.uvm = config.uvm
        self.events = events
        self.stats = stats
        self.policy = policy
        self.prefetcher = prefetcher
        self.translation = translation
        self.obs = obs or DISABLED

        self.device = DeviceMemory(capacity_frames)
        self._use_array = config.backend == "array"
        if translation is not None:
            self._page_table = translation.page_table
        elif self._use_array:
            self._page_table = ArrayPageTable(config.translation.walker.levels)
        else:
            self._page_table = PageTable(config.translation.walker.levels)
        self.chain = ArrayChunkChain() if self._use_array else ChunkChain()
        self._policy_kind = policy_touch_kind(policy)
        self.pcie = PCIeLink(
            self.uvm.interconnect_gbps, self.uvm.clock_hz, self.uvm.page_size,
            obs=self.obs,
        )
        #: The injected mechanism RNG stream (seeded in SimConfig, never
        #: constructed here — REPRO106).
        self.rng: random.Random = config.make_rng()

        self.ledger = FrameLedger(self.device, self.uvm.pages_per_chunk)
        self.clock = IntervalClock(
            self.uvm, stats, policy, self.pcie, self.obs
        )
        self.frontend = FaultFrontend(
            self.uvm, stats, policy, self.clock, self.obs
        )
        if self._use_array:
            # Swap the coverage dict for the origin-offset slot list; the
            # frontend/scheduler code only uses the shared dict surface.
            self.frontend.covered = ArrayCoverage()
        self.evictor = EvictionService(
            self.uvm, self.device, self._page_table, self.chain, self.pcie,
            self.ledger, policy, prefetcher, translation, stats, self.clock,
            self.obs, footprint_pages,
        )
        self.scheduler = MigrationScheduler(
            self.uvm, self.device, self._page_table, self.chain, self.pcie,
            events, stats, self.ledger, self.frontend, self.evictor,
            self.clock, policy, prefetcher, self.obs,
        )

        policy.attach(
            PolicyContext(
                chain=self.chain,
                stats=stats,
                config=config,
                rng=self.rng,
                clock=self.clock,
                obs=self.obs,
            )
        )
        prefetcher.attach(
            PrefetchContext(config=config, stats=stats, obs=self.obs)
        )
        self._refresh_backend_flags()

    # ------------------------------------------------------------------ API

    def _refresh_backend_flags(self) -> None:
        """Recompute the fast-path eligibility after (re)binding structures.

        The fused array paths need *both* the chain and the page table to be
        array-backed; an externally installed plain :class:`PageTable`
        (possible through the ``page_table`` setter) falls back to the
        generic stage code, which works on either backend through the
        shared method surface.
        """
        fast = isinstance(self.chain, ArrayChunkChain) and isinstance(
            self._page_table, ArrayPageTable
        )
        self._fast = fast
        self.evictor._use_array = fast
        self.scheduler._use_array = fast

    @property
    def page_table(self) -> PageTable:
        return self._page_table

    @page_table.setter
    def page_table(self, page_table: PageTable) -> None:
        """Rebind the page table on every stage (single source of truth —
        the Simulator installs its own table when translation is off)."""
        self._page_table = page_table
        self.evictor.page_table = page_table
        self.scheduler.page_table = page_table
        self._refresh_backend_flags()

    @property
    def current_interval(self) -> int:
        return self.clock.current_interval

    @property
    def memory_full(self) -> bool:
        """True once a whole chunk no longer fits without eviction."""
        return self.ledger.memory_full

    def is_resident(self, vpn: int) -> bool:
        return self._page_table.is_resident(vpn)

    def touch_page(self, sm_id: int, vpn: int, is_write: bool, time: int) -> None:
        """Record a successful access to a resident page."""
        if self._fast:
            pt = self._page_table
            idx = vpn - pt._origin
            frames = pt._frames
            if not (0 <= idx < len(frames)) or frames[idx] < 0:
                raise SimulationError(f"access to non-resident vpn {vpn}")
            pt._accessed[idx] = 1
            if is_write:
                pt._dirty[idx] = 1
            chain = self.chain
            cid = vpn // self.uvm.pages_per_chunk
            li = cid - chain._origin
            if not (0 <= li < len(chain._inch)) or not chain._inch[li]:
                raise SimulationError(f"resident vpn {vpn} has no chunk entry")
            chain._tch[li] |= 1 << (vpn - cid * self.uvm.pages_per_chunk)
            kind = self._policy_kind
            if kind is None:
                self.policy.on_page_touched(chain._handle(li), vpn, time)
            elif kind == "lru":
                if chain._last != cid:
                    chain.move_to_tail(cid)
                chain._lref[li] = self.clock._interval_index
            elif kind == "mhpe":
                interval = self.clock._interval_index
                if chain._lref[li] < interval:
                    chain._lref[li] = interval
                    if chain._last != cid:
                        chain.move_to_tail(cid)
            elif kind == "hpe":
                counter = chain._ctr[li]
                if counter < 16:
                    chain._ctr[li] = counter + 1
                if chain._last != cid:
                    chain.move_to_tail(cid)
                chain._lref[li] = self.clock._interval_index
            else:  # "ref": recency-blind, interval bookkeeping only
                chain._lref[li] = self.clock._interval_index
            return
        self._page_table.record_access(vpn, is_write)
        ppc = self.uvm.pages_per_chunk
        entry = self.chain.get(vpn // ppc)
        if entry is None:
            raise SimulationError(f"resident vpn {vpn} has no chunk entry")
        entry.mark_touched(vpn % ppc)
        self.policy.on_page_touched(entry, vpn, time)

    def handle_fault(self, fault: FarFault) -> None:
        """Entry point for an SM's far fault."""
        if not self._fast:
            if self.frontend.intake(fault):
                self.scheduler.pump(fault.time)
            return
        # Array fast path: FaultFrontend.intake flattened (byte-identical
        # bookkeeping; per-fault method calls add up at this rate).
        frontend = self.frontend
        stats = self.stats
        stats.far_faults += 1
        self.clock._interval_faults += 1
        frontend._m_faults.value += 1
        kind = self._policy_kind
        vpn = fault.vpn
        if kind != "lru" and kind != "ref":
            # Only HPE/MHPE (and unknown policies) implement on_fault; the
            # base-class hook is a no-op for the exact-matched LRU kinds.
            self.policy.on_fault(vpn, vpn // self.uvm.pages_per_chunk, fault.time)
        if frontend._trace.enabled:
            frontend._trace.emit(
                "fault", fault.time, chunk=vpn // self.uvm.pages_per_chunk,
                **fault.trace_args(),
            )
        covered = frontend.covered
        slots = covered._slots
        idx = vpn - covered._origin
        mig = slots[idx] if 0 <= idx < len(slots) else None
        if mig is not None:
            mig.faults.append(fault)
            stats.merged_faults += 1
            frontend._m_merged.value += 1
            return
        frontend.pending.append(fault)
        scheduler = self.scheduler
        if scheduler._active_services < self.uvm.fault_parallelism:
            scheduler.pump(fault.time)

    # ------------------------------------------------------------- reporting

    def drain_check(self) -> None:
        """Assert no faults are stuck at end of simulation."""
        if self.frontend.pending or self.scheduler.in_flight:
            raise SimulationError(
                f"simulation ended with {len(self.frontend.pending)} pending "
                f"and {len(self.scheduler.in_flight)} in-flight migrations"
            )
