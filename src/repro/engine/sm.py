"""Streaming multiprocessor model.

Each SM executes a fixed trace of virtual-page accesses.  The model captures
exactly what the paper's mechanisms react to:

* every access pays the translation path (L1 TLB -> L2 TLB -> page walk);
* a resident page is *touched* (page-table access bit, chunk bit-vector,
  policy recency) and execution continues after a small compute gap;
* a non-resident page raises a **replayable far fault** [9]: the access is
  parked, the SM keeps issuing subsequent accesses (modelling other warps
  making progress) until ``max_outstanding_faults`` accesses are parked,
  then stalls until a fault resolves.

For event-queue efficiency an SM processes up to ``burst_length``
consecutive non-stalling accesses inside a single event, accumulating
latency locally; the resulting reordering across SMs is bounded by one
burst (a few hundred cycles), far below the 28,000-cycle fault latency that
dominates every studied effect.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Optional, Tuple

import numpy as np

from ..config import SimConfig
from ..engine.events import EventQueue
from ..engine.stats import SimStats
from ..errors import SimulationError
from ..memsim.fault import FarFault
from ..memsim.gmmu import GMMU
from ..translation.hierarchy import TranslationHierarchy

__all__ = ["StreamingMultiprocessor"]


class StreamingMultiprocessor:
    """One SM executing a page-access trace."""

    def __init__(
        self,
        sm_id: int,
        trace: np.ndarray,
        writes: Optional[np.ndarray],
        config: SimConfig,
        gmmu: GMMU,
        translation: Optional[TranslationHierarchy],
        events: EventQueue,
        stats: SimStats,
        on_finish: Callable[[int, int], None],
    ):
        if writes is not None and len(writes) != len(trace):
            raise SimulationError("writes array must match trace length")
        self.sm_id = sm_id
        self.trace = np.asarray(trace, dtype=np.int64)
        self.writes = writes
        self.config = config
        self.gmmu = gmmu
        self.translation = translation
        self.events = events
        self.stats = stats
        self.on_finish = on_finish

        self._cursor = 0
        self._outstanding = 0
        self._finished = False
        #: True while a burst event for this SM sits in the queue.
        self._run_event = False
        #: Lazily built attribute-hoist tuple for :meth:`_run_fast`.
        self._hoisted: Optional[Tuple] = None
        self._fill_consts: Optional[Tuple] = None
        # Boxed-window cache: fault-heavy phases re-enter the burst loop
        # every few accesses, and a numpy slice + tolist per entry would
        # dominate.  Boxing 4096 accesses at a time amortises it away while
        # keeping peak memory far below boxing the whole trace.
        self._box_lo = 0
        self._box_hi = 0
        self._boxed: Optional[list] = None
        self._boxed_writes: Optional[bytes] = None
        # Per-SM totals for the TLB/walker/PWC objects' own counters,
        # folded into those objects once, when the SM finishes (only
        # TranslationHierarchy.sync_counter_stats reads them, at run end).
        # L1 hits, L2 misses and inline walks follow from these and the
        # cursor.
        self._l1_misses = 0
        self._l2_hits = 0
        self._walk_cycles = 0
        self._walk_queue_delay = 0
        self._pwc_hits = 0
        self._pwc_misses = 0
        if translation is not None:
            l1 = translation.l1_tlbs[sm_id]
            l2 = translation.l2_tlb
            self._fill_consts = (
                l1._sets, l1._num_sets, l1._assoc,
                l2._sets, l2._num_sets, l2._assoc,
                len(self.trace), config.sm.max_outstanding_faults,
            )

    # --- scheduling -----------------------------------------------------------

    def start(self, time: int = 0) -> None:
        self._schedule_run(time)

    def _schedule_run(self, time: int) -> None:
        if not self._run_event and not self._finished:
            self._run_event = True
            # Two burst loops: the fused one when the translation path is
            # modelled (TLB probes, walk, page touch and policy recency
            # update inlined over the flat arrays), the plain one otherwise.
            self.events.schedule(
                time,
                self._run if self.translation is None else self._run_fast,
            )

    @property
    def stalled(self) -> bool:
        return self._outstanding >= self.config.sm.max_outstanding_faults

    @property
    def done(self) -> bool:
        return self._finished

    # --- execution ---------------------------------------------------------------

    def _run(self, time: int) -> None:
        """Burst without a translation path: residency is the page table's."""
        self._run_event = False
        sm_cfg = self.config.sm
        trace = self.trace
        n = len(trace)
        local_time = time
        budget = sm_cfg.burst_length

        while budget > 0 and self._cursor < n and not self.stalled:
            vpn = int(trace[self._cursor])
            is_write = bool(self.writes[self._cursor]) if self.writes is not None else False
            local_time += sm_cfg.compute_cycles_per_access
            resident = self.gmmu.is_resident(vpn)

            self.stats.accesses += 1
            if is_write:
                self.stats.writes += 1
            self._cursor += 1
            budget -= 1

            if resident:
                self.gmmu.touch_page(self.sm_id, vpn, is_write, local_time)
                continue

            # Far fault: park the access, keep going (replayable faults).
            self._outstanding += 1
            # ``self`` is FarFault's positional ``sm``: the replayer.
            self.gmmu.handle_fault(
                FarFault(vpn, self.sm_id, local_time, is_write, self)
            )

        if self._cursor >= n:
            self._maybe_finish(local_time)
        elif self.stalled:
            self.stats.sm_stall_events += 1
            # Resumed by a fault resolution; no event scheduled.
        else:
            # Burst exhausted: yield to other SMs and continue.
            self._schedule_run(local_time)

    def _hoist(self) -> Tuple:
        """Build (and cache) the attribute-hoist tuple for `_run_fast`.

        Everything captured here is identity-stable for the lifetime of a
        run: the TLB/walker/PWC objects and the page table are never
        replaced, and the page table and chain grow their lists strictly in
        place (``extend`` / ``lst[:0] =``), so the list objects survive
        rebasing.  Origins and lengths are *not* captured — they change on
        growth and are re-read every burst.
        """
        gmmu = self.gmmu
        tr = self.translation
        assert tr is not None
        sm_cfg = self.config.sm
        l1 = tr.l1_tlbs[self.sm_id]
        l2 = tr.l2_tlb
        walker = tr.walker
        pwc = walker.pwc
        pt = gmmu.page_table
        chain = gmmu.chain
        hoisted = (
            pt,
            chain,
            pt._dirty,
            pt._frames,
            chain._tch,
            chain._lref,
            chain._ctr,
            chain._prv,
            chain._nxt,
            gmmu.clock,
            gmmu.policy,
            gmmu._policy_kind,
            gmmu.uvm.pages_per_chunk,
            l1._sets, l1._num_sets, l1._assoc, l1.config.hit_latency,
            l2._sets, l2._num_sets, l2._assoc, l2.config.hit_latency,
            walker,
            walker.dram is None,                    # inline (non-DRAM) walk?
            walker._busy_until,
            walker.config.concurrent_walks,
            walker.config.levels,
            walker.config.memory_access_latency,
            pwc._sets,
            pwc._num_sets,
            pwc._assoc,
            pwc.config.latency,
            sm_cfg.compute_cycles_per_access,
            sm_cfg.max_outstanding_faults,
            sm_cfg.burst_length,
        )
        self._hoisted = hoisted
        return hoisted

    def _run_fast(self, time: int) -> None:
        """Burst with the translation path: one trace slice, everything
        inlined (the TLB probes mirror ``TranslationHierarchy.translate``).

        ``_cursor``/``_outstanding`` are written back before every
        ``handle_fault``, because fault handling can synchronously replay
        *this* SM's earlier faults, which reads them.  The loop counts only
        what its window index does not give: the accesses are how far the
        index moved, every L1 miss is an L2 probe and every L2 miss a walk.  The burst's counters reach
        the shared stats once, when the loop exits — nothing reads them
        mid-run — also when fault handling aborts the run (ThrashingCrash),
        so a crashed result carries the stats as they stand.  The
        TLB/walker/PWC objects' own counters are folded in when the SM
        finishes (:meth:`_maybe_finish`).
        """
        self._run_event = False
        gmmu = self.gmmu
        hoisted = self._hoisted
        if hoisted is None:
            hoisted = self._hoist()
        (
            pt, chain, drt, frames, tch, lref, ctr, prvl, nxtl,
            clock, policy, kind, ppc,
            l1_sets, l1_num, l1_assoc, l1_lat,
            l2_sets, l2_num, l2_assoc, l2_lat,
            walker, inline_walk, w_busy, w_cap, w_levels, w_mem_lat,
            pwc_sets, pwc_num, pwc_assoc, pwc_lat,
            compute, max_out, burst_length,
        ) = hoisted
        # Origins move when the arrays grow downward (between bursts only).
        p_origin = pt._origin
        c_origin = chain._origin

        n = len(self.trace)
        cursor = self._cursor
        end = min(n, cursor + burst_length)
        # Boxed window (never the whole trace: boxing a 25M-access trace to
        # Python ints up front would cost hundreds of MB).  The window
        # always covers the full burst so event boundaries — and therefore
        # event interleaving across SMs — are untouched by the caching.
        if cursor < self._box_lo or end > self._box_hi:
            lo = cursor
            hi = min(n, max(cursor + 4096, end))
            self._boxed = self.trace[lo:hi].tolist()
            self._boxed_writes = (
                self.writes[lo:hi].astype(np.uint8).tobytes()
                if self.writes is not None else bytes(hi - lo)
            )
            self._box_lo = lo
            self._box_hi = hi
        vpns = self._boxed
        writes = self._boxed_writes
        # The loop walks the boxed window directly: ``j`` is the window
        # index, and ``j - start`` accesses are done.
        start = cursor - self._box_lo
        stop = start + end - cursor

        local_time = time
        outstanding = self._outstanding
        sm_id = self.sm_id

        writes_n = 0
        l1_hits = 0
        l2_hits = 0
        w_cycles = 0
        w_qdelay = 0
        pwc_h = 0
        pwc_m = 0

        j = start
        try:
            while j < stop:
                vpn = vpns[j]
                is_write = writes[j] != 0
                j += 1
                local_time += compute

                # --- translation path (mirrors TranslationHierarchy.translate)
                s = l1_sets[vpn % l1_num]
                if vpn in s:
                    del s[vpn]
                    s[vpn] = None
                    l1_hits += 1
                    local_time += l1_lat
                    resident = True
                else:
                    latency = l1_lat
                    s2 = l2_sets[vpn % l2_num]
                    if vpn in s2:
                        del s2[vpn]
                        s2[vpn] = None
                        l2_hits += 1
                        latency += l2_lat
                        if len(s) >= l1_assoc:
                            del s[next(iter(s))]
                        s[vpn] = None
                        resident = True
                    else:
                        latency += l2_lat
                        if inline_walk:
                            # --- inline walk (mirrors PageTableWalker.walk,
                            # flat-latency arm).  Keys are (level, vpn >> 9*d).
                            wtime = local_time + latency
                            while w_busy and w_busy[0] <= wtime:
                                heappop(w_busy)
                            queue_delay = 0
                            if len(w_busy) >= w_cap:
                                queue_delay = heappop(w_busy) - wtime
                            deepest = -1
                            level = w_levels - 2
                            while level >= 0:
                                node = vpn >> (9 * (w_levels - 1 - level))
                                key = (level, node)
                                ps = pwc_sets[(node * 7 + level) % pwc_num]
                                if key in ps:
                                    del ps[key]
                                    ps[key] = None
                                    pwc_h += 1
                                    deepest = level
                                    break
                                pwc_m += 1
                                level -= 1
                            wlat = pwc_lat + (w_levels - 1 - deepest) * w_mem_lat
                            level = deepest + 1
                            while level < w_levels - 1:
                                node = vpn >> (9 * (w_levels - 1 - level))
                                key = (level, node)
                                ps = pwc_sets[(node * 7 + level) % pwc_num]
                                if key in ps:
                                    del ps[key]
                                elif len(ps) >= pwc_assoc:
                                    ps.pop(next(iter(ps)))
                                ps[key] = None
                                level += 1
                            heappush(w_busy, wtime + queue_delay + wlat)
                            w_cycles += wlat
                            w_qdelay += queue_delay
                            pidx = vpn - p_origin
                            resident = (
                                0 <= pidx < len(frames) and frames[pidx] >= 0
                            )
                            walk_latency = queue_delay + wlat
                        else:
                            walk_latency, resident = walker.walk(
                                vpn, local_time + latency
                            )
                        latency += walk_latency
                        if resident:
                            if len(s) >= l1_assoc:
                                del s[next(iter(s))]
                            s[vpn] = None
                            if len(s2) >= l2_assoc:
                                del s2[next(iter(s2))]
                            s2[vpn] = None
                    local_time += latency

                if is_write:
                    writes_n += 1

                if resident:
                    # --- inline touch (mirrors MemorySystem.touch_page)
                    if is_write:
                        drt[vpn - p_origin] = 1
                    cid = vpn // ppc
                    li = cid - c_origin
                    tch[li] |= 1 << (vpn - cid * ppc)
                    # Recency dispatch with ChunkChain.move_to_tail inlined
                    # (the touched chunk is in the chain by invariant — resident
                    # pages always have a chain entry — so no membership check).
                    if kind == "lru":
                        last = chain._last
                        if last != cid:
                            prv = prvl[li]
                            nxt = nxtl[li]
                            if prv >= 0:
                                nxtl[prv - c_origin] = nxt
                            else:
                                chain._first = nxt
                            prvl[nxt - c_origin] = prv
                            prvl[li] = last
                            nxtl[li] = -1
                            nxtl[last - c_origin] = cid
                            chain._last = cid
                        lref[li] = clock._interval_index
                    elif kind == "mhpe":
                        interval = clock._interval_index
                        if lref[li] < interval:
                            lref[li] = interval
                            last = chain._last
                            if last != cid:
                                prv = prvl[li]
                                nxt = nxtl[li]
                                if prv >= 0:
                                    nxtl[prv - c_origin] = nxt
                                else:
                                    chain._first = nxt
                                prvl[nxt - c_origin] = prv
                                prvl[li] = last
                                nxtl[li] = -1
                                nxtl[last - c_origin] = cid
                                chain._last = cid
                    elif kind == "hpe":
                        counter = ctr[li]
                        if counter < 16:
                            ctr[li] = counter + 1
                        last = chain._last
                        if last != cid:
                            prv = prvl[li]
                            nxt = nxtl[li]
                            if prv >= 0:
                                nxtl[prv - c_origin] = nxt
                            else:
                                chain._first = nxt
                            prvl[nxt - c_origin] = prv
                            prvl[li] = last
                            nxtl[li] = -1
                            nxtl[last - c_origin] = cid
                            chain._last = cid
                        lref[li] = clock._interval_index
                    elif kind == "ref":
                        lref[li] = clock._interval_index
                    else:
                        policy.on_page_touched(chain._handle(li), vpn, local_time)
                    continue

                # --- far fault: sync position out, hand off, sync back in
                self._cursor = cursor + j - start
                outstanding += 1
                self._outstanding = outstanding
                # ``self`` is FarFault's positional ``sm``: the replayer.
                gmmu.handle_fault(
                    FarFault(vpn, sm_id, local_time, is_write, self)
                )
                # The scheduler can synchronously replay this SM's earlier
                # faults (and this one), mutating _outstanding: reload.
                outstanding = self._outstanding
                if outstanding >= max_out:
                    break

        finally:
            # Also on ThrashingCrash: a crash ends the run with the stats as
            # they stand.
            i = j - start
            l1_misses = i - l1_hits
            l2_misses = l1_misses - l2_hits
            stats = self.stats
            stats.accesses += i
            stats.writes += writes_n
            stats.l1_tlb_hits += l1_hits
            stats.l1_tlb_misses += l1_misses
            stats.l2_tlb_hits += l2_hits
            stats.l2_tlb_misses += l2_misses
            stats.page_walks += l2_misses
            if l1_misses:
                self._l1_misses += l1_misses
                self._l2_hits += l2_hits
                self._walk_cycles += w_cycles
                self._walk_queue_delay += w_qdelay
                self._pwc_hits += pwc_h
                self._pwc_misses += pwc_m

        self._cursor = cursor + j - start
        self._outstanding = outstanding

        if self._cursor >= n:
            self._maybe_finish(local_time)
        elif outstanding >= max_out:
            self.stats.sm_stall_events += 1
            # Resumed by a fault resolution; no event scheduled.
        elif not self._run_event:
            # Burst exhausted: yield to other SMs and continue
            # (_schedule_run inlined; a replay during the burst may have
            # scheduled the next one already).
            self._run_event = True
            self.events.schedule(local_time, self._run_fast)

    def replay(self, vpn: int, is_write: bool, time: int) -> None:
        """Replay one parked access at ``time``: its page is resident now.

        The :class:`~repro.memsim.fault.FarFault` record names this SM, so
        fault resolution is one method call and raising a fault allocates
        no closure.  The replayed access re-translates; its walk cost is
        part of the fault service, so only the TLB fills are modelled.
        """
        consts = self._fill_consts
        if consts is None:  # no translation path, nothing to fill
            trace_len = len(self.trace)
            max_out = self.config.sm.max_outstanding_faults
        else:
            # TranslationHierarchy.fill inlined: two TLB.insert calls on
            # the hoisted set dicts.
            (
                l1_sets, l1_num, l1_assoc,
                l2_sets, l2_num, l2_assoc,
                trace_len, max_out,
            ) = consts
            s = l1_sets[vpn % l1_num]
            if vpn in s:
                del s[vpn]
            elif len(s) >= l1_assoc:
                s.pop(next(iter(s)))
            s[vpn] = None
            s2 = l2_sets[vpn % l2_num]
            if vpn in s2:
                del s2[vpn]
            elif len(s2) >= l2_assoc:
                s2.pop(next(iter(s2)))
            s2[vpn] = None
        self.gmmu.touch_page(self.sm_id, vpn, is_write, time)
        outstanding = self._outstanding
        was_stalled = outstanding >= max_out
        outstanding -= 1
        self._outstanding = outstanding
        if outstanding < 0:
            raise SimulationError(f"SM{self.sm_id}: negative outstanding faults")
        if self._cursor >= trace_len:
            self._maybe_finish(time)
        elif was_stalled:
            self._schedule_run(time)

    def _maybe_finish(self, time: int) -> None:
        if self._finished or self._outstanding > 0 or self._cursor < len(self.trace):
            return
        self._finished = True
        # The boxed window is dead once the trace is done; dropping it here
        # rather than with the SM keeps it out of the cyclic garbage a
        # finished simulation leaves for the collector.
        self._boxed = None
        self._boxed_writes = None
        self._box_lo = self._box_hi = 0
        if self.translation is not None:
            self._fold_translation_counters()
        self.stats.sm_finish_times[self.sm_id] = time
        self.on_finish(self.sm_id, time)

    def _fold_translation_counters(self) -> None:
        """Add this SM's totals to the TLB/walker/PWC objects' counters.

        Every access probes the L1 TLB, every L1 miss the L2 TLB, and every
        L2 miss walks; the walker's own ``walk`` counts its walks when it
        is called (the DRAM-model arm), so only inline walks are added.
        """
        tr = self.translation
        assert tr is not None
        l1_misses = self._l1_misses
        l2_misses = l1_misses - self._l2_hits
        l1 = tr.l1_tlbs[self.sm_id]
        l1.hits += self._cursor - l1_misses
        l1.misses += l1_misses
        l2 = tr.l2_tlb
        l2.hits += self._l2_hits
        l2.misses += l2_misses
        walker = tr.walker
        if walker.dram is None:
            walker.walks += l2_misses
        walker.total_walk_cycles += self._walk_cycles
        walker.total_queue_delay += self._walk_queue_delay
        walker.pwc.hits += self._pwc_hits
        walker.pwc.misses += self._pwc_misses
