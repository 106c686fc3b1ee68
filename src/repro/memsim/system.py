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

The structures every stage shares — the page table, the chunk chain and
the coverage map — are flat origin-offset arrays (DESIGN.md §10), and the
hot stages work on them directly.  ``tests/test_golden_digests.py`` pins
results, traces and metrics byte for byte.
"""

from __future__ import annotations

import random
from collections import deque
from functools import partial
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
from .array_backend import ArrayCoverage
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
    """Classify a policy's ``on_page_touched`` for the fused touch paths.

    Exact ``type()`` matches only: a subclass may override the hook, so it
    falls through to ``None`` (= call the hook dynamically).  The returned
    kind names the touch side-effect recipe those paths replay inline:

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
    queues for the scheduler.  :meth:`MemorySystem.handle_fault` runs the
    intake itself, on this stage's state.
    """

    def __init__(self, stats: SimStats, obs: Observability) -> None:
        self.stats = stats
        self._trace = obs.tracer
        self.pending: Deque[FarFault] = deque()
        #: vpn -> the in-flight migration that will install it.
        self.covered = ArrayCoverage()
        metrics = obs.metrics
        self._m_faults = metrics.counter("gmmu.far_faults")
        self._m_merged = metrics.counter("gmmu.merged_faults")

    def note_merged(self) -> None:
        """Account one merged (deduplicated) fault."""
        self.stats.merged_faults += 1
        self._m_merged.inc()


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
        # Set-level shootdown targets: a fully
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
        for entry in victims:
            self.evict_chunk(entry, time)
        if self.ledger.free_unreserved < frames_needed:
            raise SimulationError(
                f"policy {self.policy.name} freed "
                f"{self.ledger.free_unreserved} frames of the {frames_needed} "
                "needed — select_victims violated its contract"
            )
        return len(victims)

    def evict_chunk(self, entry: ChunkEntry, time: int) -> None:
        """Unmap every resident page of ``entry`` and retire its metadata.

        The resident mask's contiguous runs are unmapped with slices over
        the flat arrays, and evicted pages are shot down per TLB set.
        """
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
        off = base - pt._origin
        frames = pt._frames
        drt = pt._dirty
        free = self.device._free
        dirty_pages = 0
        m = res_mask
        while m:  # one contiguous run of resident pages at a time, ascending
            low = m & -m
            top = m + low
            b0 = low.bit_length() - 1
            i0 = off + b0
            i1 = off + (top & -top).bit_length() - 1
            m &= top
            run = frames[i0:i1]
            if -1 in run:
                raise SimulationError(f"vpn {base + b0 + run.index(-1)} not mapped")
            free.extend(run)
            frames[i0:i1] = [-1] * (i1 - i0)
            dirty_pages += drt.count(1, i0, i1)
        evicted_pages = bin(res_mask).count("1")
        # Evicted pages that may sit in a TLB: only touched ones can, since
        # every TLB fill comes with a touch of the page, and a chunk's
        # touched mask is reset only after all its pages were shot down.
        m = res_mask & tch_mask
        if m and self.translation is not None:
            gone: Set[int] = set()
            while m:
                low = m & -m
                top = m + low
                gone.update(
                    range(
                        base + low.bit_length() - 1,
                        base + (top & -top).bit_length() - 1,
                    )
                )
                m &= top
            # One shootdown per evicted page present in any TLB.
            hit: Set[int] = set()
            for s, keys in self._tlb_dicts:
                common = keys & gone
                if common:
                    for vpn in common:
                        del s[vpn]
                    hit |= common
            for sets, num in self._tlb_sets:
                for vpn in gone:
                    s = sets[vpn % num]
                    if vpn in s:
                        del s[vpn]
                        hit.add(vpn)
            if hit:
                self.stats.tlb_shootdowns += len(hit)
        chain._res[li] = 0
        self.device._allocated -= evicted_pages
        self.chain.remove(cid)
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
        self.stats.prefetched_pages_touched += bin(pfm_mask & tch_mask).count("1")
        # Untouch level must reflect what was migrated, so give the policy a
        # snapshot with residency restored.  Every migrated page is either a
        # prefetched page (prefetch_mask) or a demand page, and demand pages
        # are touched on fault replay before any later eviction can run, so
        # touched|prefetch is exactly the pre-eviction residency.
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

    # ------------------------------------------------------- service loop

    def pump(self, time: int) -> None:
        """Fill free service slots from the frontend's pending queue.

        Queued faults whose page arrived, or went in flight, while they
        waited are drained in this one loop (replayed or merged); only a
        fault that needs a migration of its own starts a service op.
        """
        pending = self.frontend.pending
        parallelism = self.uvm.fault_parallelism
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
        (``in_batch``, which the op keeps extending).

        Prefetchers probe it once per candidate page, so it reads the raw
        arrays; neither grows while an op is assembled.
        """
        pt = self.page_table
        frames = pt._frames
        p_origin = pt._origin
        nf = len(frames)
        covered = self.frontend.covered
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
        vpn = fault.vpn
        covered = self.frontend.covered
        idx = vpn - covered._origin
        slots = covered._slots
        if (0 <= idx < len(slots) and slots[idx] is not None) or vpn in in_batch:
            return None
        pages = self.prefetcher.pages_to_migrate(
            vpn, self.ledger.memory_full, skip, time=fault.time
        )
        if not pages or vpn not in pages:
            raise SimulationError(
                f"prefetcher {self.prefetcher.name} did not include the "
                f"demand page {vpn}"
            )
        max_batch = self.max_batch()
        if len(pages) > max_batch:
            # Prefetchers order the demand page first, so truncation keeps it.
            pages = pages[:max_batch]
        return pages

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
        frontend = self.frontend
        pending = frontend.pending
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
                else:
                    covering = frontend.covered.get(nxt.vpn)
                    assert covering is not None
                    covering.faults.append(nxt)
                frontend.note_merged()
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
        # The batch as a page mask anchored at its lowest page.
        lo = min(batch_pages)
        mask = 0
        for vpn in batch_pages:
            mask |= 1 << (vpn - lo)
        frontend.covered.assign(lo, mask, mig)
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
        """Install a finished migration's pages, then wake its faults.

        The install works over the batch's page mask: the flat arrays grow
        once for the batch extremes, then, chunk by chunk, frames are
        written and accessed/dirty bits cleared one contiguous run of pages
        at a time with slices.  Frames leave the free list in ascending-vpn
        order, one ``free.pop()`` per page.
        """
        ppc = self.uvm.pages_per_chunk
        pages = mig.pages
        lo = min(pages)
        hi = max(pages)
        chain = self.chain
        pt = self.page_table
        # Arrays are contiguous, so covering both extremes covers the batch.
        pt._ensure(lo)
        pt._ensure(hi)
        chain._ensure(lo // ppc)
        chain._ensure(hi // ppc)
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
        migrated = len(pages)
        if len(free) < migrated:
            raise CapacityError("device memory exhausted")
        # Page masks anchored at the first chunk's first page: bit b is page
        # ``base + b``.  Every fault of the op is for one of its pages.
        first_chunk = lo // ppc
        base = first_chunk * ppc
        mask = 0
        for vpn in pages:
            mask |= 1 << (vpn - base)
        demand_mask = 0
        for fault in mig.faults:
            demand_mask |= 1 << (fault.vpn - base)
        full = (1 << ppc) - 1
        interval = self.clock.current_interval
        demand = 0
        rest = mask
        while rest:
            k = ((rest & -rest).bit_length() - 1) // ppc
            shift = k * ppc
            cmask = (rest >> shift) & full
            rest ^= cmask << shift
            chunk_id = first_chunk + k
            li = chunk_id - c_origin
            is_new = not inch[li]
            if is_new:
                chain.new_entry(chunk_id, interval)
            off = chunk_id * ppc - pt._origin
            m = cmask
            while m:
                # Lowest run of set bits: ``low`` is its first bit, and
                # adding it carries through the run, so ``top``'s lowest
                # bit ends it.
                low = m & -m
                top = m + low
                b0 = low.bit_length() - 1
                i0 = off + b0
                i1 = off + (top & -top).bit_length() - 1
                m &= top
                run = i1 - i0
                if max(frames[i0:i1]) >= 0:
                    for j in range(i0, i1):
                        if frames[j] >= 0:
                            raise SimulationError(
                                f"vpn {j + pt._origin} already mapped"
                            )
                # ``free.pop()`` per page, in one slice: last frame first.
                frames[i0:i1] = free[:-run - 1:-1]
                del free[-run:]
                acc[i0:i1] = bytes(run)
                drt[i0:i1] = bytes(run)
            dmask = (demand_mask >> shift) & cmask
            res_l[li] |= cmask
            pfm_l[li] |= cmask & ~dmask
            demand += bin(dmask).count("1")
            # HPE-style counter pollution: migration bumps the counter by
            # the number of pages migrated (Inefficiency 1 of the paper).
            ctr_l[li] = min(16, ctr_l[li] + bin(cmask).count("1"))
            if is_new:
                self.policy.insert_chunk(chain._handle(li), time)
        self.frontend.covered.discard(base, mask)
        device._allocated += migrated
        if device._allocated > device.peak_allocated:
            device.peak_allocated = device._allocated
        self.stats.demand_pages += demand
        self.stats.prefetched_pages += migrated - demand

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


class MemorySystem:
    """Facade: the staged unified-memory runtime for one simulated GPU.

    Owns the shared mechanism structures (device memory, page table, chunk
    chain, PCIe link, RNG) and wires the four stages together; SMs and the
    :class:`~repro.engine.simulator.Simulator` talk only to this surface.
    ``page_table`` must be the one the translation hierarchy walks (the
    simulator builds it with ``build_page_table``); without a translation
    path it defaults to a fresh table.
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
        page_table: Optional[PageTable] = None,
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
        if page_table is None:
            page_table = PageTable(config.translation.walker.levels)
        self.page_table = page_table
        self.chain = ChunkChain()
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
        self.frontend = FaultFrontend(stats, self.obs)
        self.evictor = EvictionService(
            self.uvm, self.device, page_table, self.chain, self.pcie,
            self.ledger, policy, prefetcher, translation, stats, self.clock,
            self.obs, footprint_pages,
        )
        self.scheduler = MigrationScheduler(
            self.uvm, self.device, page_table, self.chain, self.pcie,
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

    # ------------------------------------------------------------------ API

    @property
    def current_interval(self) -> int:
        return self.clock.current_interval

    @property
    def memory_full(self) -> bool:
        """True once a whole chunk no longer fits without eviction."""
        return self.ledger.memory_full

    def is_resident(self, vpn: int) -> bool:
        return self.page_table.is_resident(vpn)

    def touch_page(self, sm_id: int, vpn: int, is_write: bool, time: int) -> None:
        """Record a successful access to a resident page: the page-table
        access bits, the chunk's touched bit, and the policy's recency
        update (replayed inline for the kinds :func:`policy_touch_kind`
        names, through ``on_page_touched`` otherwise)."""
        pt = self.page_table
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

    def handle_fault(self, fault: FarFault) -> None:
        """Entry point for an SM's far fault: the frontend's intake.

        Counts the fault, lets HPE/MHPE (and unknown policies) see it, then
        merges it into the in-flight migration covering its page or queues
        it for the scheduler.
        """
        frontend = self.frontend
        stats = self.stats
        stats.far_faults += 1
        self.clock._interval_faults += 1
        frontend._m_faults.value += 1
        kind = self._policy_kind
        vpn = fault.vpn
        if kind != "lru" and kind != "ref":
            # The base-class hook is a no-op for the exact-matched LRU kinds.
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
            # The page is already on its way: merge.
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
