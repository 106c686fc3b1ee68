"""Flat-array fast path for the memory system (``SimConfig.backend="array"``).

Drop-in subclasses of the object-graph structures the stages of
:mod:`repro.memsim.system` operate on:

* :class:`ArrayPageTable` — residency/accessed/dirty state in origin-offset
  flat arrays instead of a ``vpn -> [frame, accessed, dirty]`` dict;
* :class:`ArrayChunkChain` / :class:`ArrayChunkEntry` — the recency chain as
  parallel per-chunk arrays (masks, counters, intrusive prev/next links by
  absolute chunk id) with slot-backed :class:`~repro.memsim.chunk_chain.ChunkEntry`
  handles, so policies keep their object-shaped view;
* :class:`ArrayCoverage` — the fault frontend's ``vpn -> InFlightMigration``
  coverage map as an origin-offset slot list.

The object backend remains the oracle: ``tests/test_backend_differential.py``
proves both backends byte-identical (results *and* traces) over a policy ×
prefetcher × oversubscription matrix.

Two implementation notes (see DESIGN.md "Dual-backend architecture"):

1. **Origin offsets, not 0-based indexing.**  Workloads place their
   footprint at ``Workload.base_vpn`` (default ``0x80000``), so arrays are
   indexed by ``vpn - origin`` and grow in place at either end
   (``lst.extend`` high, ``lst[:0] = ...`` low).  In-place growth preserves
   list identity, which is what lets hot loops hoist array references.
2. **Lists and bytearrays for scalar state, numpy for bulk.**  CPython
   indexes a plain list several times faster than a numpy array (scalar
   access boxes the element), and the simulation hot path is scalar — one
   page, one chunk at a time.  numpy appears where the operation is
   genuinely vectorizable: residency snapshots (:meth:`ArrayPageTable.
   resident_vpns`), per-chunk mask matrices (:func:`unpack_masks`,
   :meth:`ArrayChunkChain.mask_matrix`), and the interval-statistics
   helpers in :mod:`repro.engine.stats`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple, cast

import numpy as np

from ..errors import SimulationError
from .chunk_chain import ChunkChain, ChunkEntry
from .fault import InFlightMigration
from .page_table import PageTable

__all__ = [
    "ArrayPageTable",
    "ArrayChunkEntry",
    "ArrayChunkChain",
    "ArrayCoverage",
    "unpack_masks",
]

#: Slack appended/prepended when an origin-offset array must grow, so growth
#: is amortised instead of per-page.
_PAD_PAGES = 4096
_PAD_CHUNKS = 512


def unpack_masks(masks: List[int], pages: int) -> "np.ndarray":
    """Bit-matrix view of per-chunk masks: shape ``(len(masks), pages)``.

    Column ``i`` is bit ``i`` (page ``i`` of the chunk), dtype uint8 — the
    numpy bit-vector form of the chain's touch/residency masks, used by the
    property tests and the vectorized stats helpers.
    """
    arr = np.asarray(masks, dtype=np.uint64).reshape(-1, 1)
    shifts = np.arange(pages, dtype=np.uint64)
    return ((arr >> shifts) & 1).astype(np.uint8)


class ArrayPageTable(PageTable):
    """Residency map over flat origin-offset arrays.

    ``_frames[vpn - origin]`` holds the physical frame (``-1`` = unmapped);
    accessed/dirty bits live in parallel bytearrays.  The radix walk
    structure (``node_keys``) is inherited unchanged — it is pure
    arithmetic on the VPN.
    """

    __slots__ = ("_frames", "_accessed", "_dirty", "_origin", "_resident")

    def __init__(
        self, levels: int = 4, origin_hint: int = 0, size_hint: int = 0
    ) -> None:
        super().__init__(levels)
        self._origin = origin_hint
        n = max(size_hint, _PAD_PAGES)
        self._frames: List[int] = [-1] * n
        self._accessed = bytearray(n)
        self._dirty = bytearray(n)
        self._resident = 0

    # --- growth -----------------------------------------------------------

    def _ensure(self, vpn: int) -> int:
        """Local index for ``vpn``, growing the arrays in place if needed."""
        idx = vpn - self._origin
        if idx < 0:
            pad = max(-idx, _PAD_PAGES)
            self._frames[:0] = [-1] * pad
            self._accessed[:0] = bytes(pad)
            self._dirty[:0] = bytes(pad)
            self._origin -= pad
            return vpn - self._origin
        n = len(self._frames)
        if idx >= n:
            pad = idx - n + 1 + _PAD_PAGES
            self._frames.extend([-1] * pad)
            self._accessed.extend(bytes(pad))
            self._dirty.extend(bytes(pad))
        return idx

    # --- residency --------------------------------------------------------

    def __len__(self) -> int:
        return self._resident

    def __contains__(self, vpn: int) -> bool:
        return self.is_resident(vpn)

    def is_resident(self, vpn: int) -> bool:
        idx = vpn - self._origin
        if 0 <= idx < len(self._frames):
            return self._frames[idx] >= 0
        return False

    def frame_of(self, vpn: int) -> Optional[int]:
        idx = vpn - self._origin
        if 0 <= idx < len(self._frames):
            frame = self._frames[idx]
            if frame >= 0:
                return frame
        return None

    def map(self, vpn: int, frame: int) -> None:
        """Install a translation.  Pages arrive untouched and clean."""
        idx = self._ensure(vpn)
        if self._frames[idx] >= 0:
            raise SimulationError(f"vpn {vpn} already mapped")
        self._frames[idx] = frame
        self._accessed[idx] = 0
        self._dirty[idx] = 0
        self._resident += 1
        if self._resident > self.resident_peak:
            self.resident_peak = self._resident

    def unmap(self, vpn: int) -> Tuple[int, bool, bool]:
        """Remove a translation; returns (frame, accessed, dirty)."""
        idx = vpn - self._origin
        if not (0 <= idx < len(self._frames)) or self._frames[idx] < 0:
            raise SimulationError(f"vpn {vpn} not mapped")
        frame = self._frames[idx]
        self._frames[idx] = -1
        self._resident -= 1
        return frame, bool(self._accessed[idx]), bool(self._dirty[idx])

    def record_access(self, vpn: int, is_write: bool = False) -> None:
        """Set the accessed (and possibly dirty) bit, as MMU hardware would."""
        idx = vpn - self._origin
        if not (0 <= idx < len(self._frames)) or self._frames[idx] < 0:
            raise SimulationError(f"access to non-resident vpn {vpn}")
        self._accessed[idx] = 1
        if is_write:
            self._dirty[idx] = 1

    def accessed(self, vpn: int) -> bool:
        idx = vpn - self._origin
        if 0 <= idx < len(self._frames) and self._frames[idx] >= 0:
            return bool(self._accessed[idx])
        return False

    def dirty(self, vpn: int) -> bool:
        idx = vpn - self._origin
        if 0 <= idx < len(self._frames) and self._frames[idx] >= 0:
            return bool(self._dirty[idx])
        return False

    def resident_vpns(self) -> List[int]:
        """Snapshot of resident VPNs (sorted) — bulk, so vectorized."""
        frames = np.asarray(self._frames, dtype=np.int64)
        vpns = np.flatnonzero(frames >= 0) + self._origin
        return cast(List[int], vpns.tolist())


class ArrayChunkEntry(ChunkEntry):
    """Slot-backed handle presenting one chain slot as a :class:`ChunkEntry`.

    All metadata fields are properties over the owning chain's parallel
    arrays, so the inherited mask helpers (``mark_resident``,
    ``untouch_level``, ``partition``, …) operate on array state unchanged.
    The handle stores only its absolute chunk id (rebase-safe: local slot
    indices are recomputed per access).
    """

    __slots__ = ("_chain",)

    def __init__(self, chain: "ArrayChunkChain", chunk_id: int) -> None:
        # Deliberately does NOT call ChunkEntry.__init__ — that would write
        # defaults through the properties into the (possibly live) slot.
        self._chain = chain
        self.chunk_id = chunk_id

    @property
    def resident_mask(self) -> int:
        c = self._chain
        return c._res[self.chunk_id - c._origin]

    @resident_mask.setter
    def resident_mask(self, value: int) -> None:
        c = self._chain
        c._res[self.chunk_id - c._origin] = value

    @property
    def touched_mask(self) -> int:
        c = self._chain
        return c._tch[self.chunk_id - c._origin]

    @touched_mask.setter
    def touched_mask(self, value: int) -> None:
        c = self._chain
        c._tch[self.chunk_id - c._origin] = value

    @property
    def prefetch_mask(self) -> int:
        c = self._chain
        return c._pfm[self.chunk_id - c._origin]

    @prefetch_mask.setter
    def prefetch_mask(self, value: int) -> None:
        c = self._chain
        c._pfm[self.chunk_id - c._origin] = value

    @property
    def counter(self) -> int:
        c = self._chain
        return c._ctr[self.chunk_id - c._origin]

    @counter.setter
    def counter(self, value: int) -> None:
        c = self._chain
        c._ctr[self.chunk_id - c._origin] = value

    @property
    def last_ref_interval(self) -> int:
        c = self._chain
        return c._lref[self.chunk_id - c._origin]

    @last_ref_interval.setter
    def last_ref_interval(self, value: int) -> None:
        c = self._chain
        c._lref[self.chunk_id - c._origin] = value

    @property
    def insert_interval(self) -> int:
        c = self._chain
        return c._iint[self.chunk_id - c._origin]

    @insert_interval.setter
    def insert_interval(self, value: int) -> None:
        c = self._chain
        c._iint[self.chunk_id - c._origin] = value

    @property
    def insert_order(self) -> int:
        c = self._chain
        return c._iord[self.chunk_id - c._origin]

    @insert_order.setter
    def insert_order(self, value: int) -> None:
        c = self._chain
        c._iord[self.chunk_id - c._origin] = value

    @property
    def in_chain(self) -> bool:
        c = self._chain
        li = self.chunk_id - c._origin
        return bool(c._inch[li])

    @in_chain.setter
    def in_chain(self, value: bool) -> None:
        c = self._chain
        c._inch[self.chunk_id - c._origin] = 1 if value else 0

    @property
    def prev(self) -> Optional[ChunkEntry]:
        c = self._chain
        cid = c._prv[self.chunk_id - c._origin]
        return c.get(cid) if cid >= 0 else None

    @prev.setter
    def prev(self, value: Optional[ChunkEntry]) -> None:
        raise SimulationError("array chain links are managed by the chain")

    @property
    def next(self) -> Optional[ChunkEntry]:
        c = self._chain
        cid = c._nxt[self.chunk_id - c._origin]
        return c.get(cid) if cid >= 0 else None

    @next.setter
    def next(self, value: Optional[ChunkEntry]) -> None:
        raise SimulationError("array chain links are managed by the chain")


class ArrayChunkChain(ChunkChain):
    """The recency chain as parallel per-chunk arrays.

    Slot ``chunk_id - _origin`` of each array holds that chunk's metadata;
    the doubly-linked recency order is intrusive, stored as *absolute*
    chunk ids in ``_prv``/``_nxt`` (``-1`` = end), so a low-side rebase
    shifts every array in lockstep and no link needs fixing up.  Iteration
    and the partition helpers are inherited where possible — they are
    defined in terms of the overridden primitives.
    """

    def __init__(self) -> None:
        # Deliberately does not call ChunkChain.__init__: the sentinel
        # nodes and dict index do not exist in this representation.
        n = _PAD_CHUNKS
        # Anchored on first use, like ArrayCoverage: chunk ids start at
        # ``Workload.base_vpn // pages_per_chunk``, so anchoring at 0 would
        # allocate the whole gap below the footprint.
        self._origin = 0
        self._anchored = False
        self._res: List[int] = [0] * n
        self._tch: List[int] = [0] * n
        self._pfm: List[int] = [0] * n
        self._ctr: List[int] = [0] * n
        self._lref: List[int] = [0] * n
        self._iint: List[int] = [0] * n
        self._iord: List[int] = [0] * n
        self._prv: List[int] = [-1] * n
        self._nxt: List[int] = [-1] * n
        self._inch = bytearray(n)
        self._handles: List[Optional[ArrayChunkEntry]] = [None] * n
        self._first = -1  # absolute chunk id of the LRU-most entry
        self._last = -1  # absolute chunk id of the MRU-most entry
        self._count = 0
        self._insert_seq = 0
        self.length_peak = 0

    # --- slot management --------------------------------------------------

    def _ensure(self, chunk_id: int) -> int:
        """Local slot index for ``chunk_id``, growing arrays in place."""
        if not self._anchored:
            self._origin = chunk_id - chunk_id % _PAD_CHUNKS
            self._anchored = True
        li = chunk_id - self._origin
        if li < 0:
            pad = max(-li, _PAD_CHUNKS)
            for lst in (
                self._res, self._tch, self._pfm, self._ctr,
                self._lref, self._iint, self._iord,
            ):
                lst[:0] = [0] * pad
            self._prv[:0] = [-1] * pad
            self._nxt[:0] = [-1] * pad
            self._handles[:0] = [None] * pad
            self._inch[:0] = bytes(pad)
            self._origin -= pad
            return chunk_id - self._origin
        n = len(self._inch)
        if li >= n:
            pad = li - n + 1 + _PAD_CHUNKS
            for lst in (
                self._res, self._tch, self._pfm, self._ctr,
                self._lref, self._iint, self._iord,
            ):
                lst.extend([0] * pad)
            self._prv.extend([-1] * pad)
            self._nxt.extend([-1] * pad)
            self._handles.extend([None] * pad)
            self._inch.extend(bytes(pad))
        return li

    def _handle(self, li: int) -> ArrayChunkEntry:
        handle = self._handles[li]
        if handle is None:
            handle = ArrayChunkEntry(self, li + self._origin)
            self._handles[li] = handle
        return handle

    # --- queries ----------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def __contains__(self, chunk_id: int) -> bool:
        li = chunk_id - self._origin
        return 0 <= li < len(self._inch) and bool(self._inch[li])

    def get(self, chunk_id: int) -> Optional[ChunkEntry]:
        li = chunk_id - self._origin
        if 0 <= li < len(self._inch) and self._inch[li]:
            return self._handle(li)
        return None

    # --- public operations ------------------------------------------------

    def new_entry(self, chunk_id: int, interval: int) -> ChunkEntry:
        """Reset the chunk's slot to a fresh entry and return its handle."""
        li = self._ensure(chunk_id)
        self._res[li] = 0
        self._tch[li] = 0
        self._pfm[li] = 0
        self._ctr[li] = 0
        self._lref[li] = interval
        self._iint[li] = interval
        self._iord[li] = 0
        return self._handle(li)

    def _adopt(self, entry: ChunkEntry) -> int:
        """Slot index for ``entry``, copying field values in when ``entry``
        is a foreign (plain :class:`ChunkEntry`) object rather than this
        chain's own handle — e.g. MHPE re-inserting a buffered snapshot of
        a wrongly evicted chunk."""
        li = self._ensure(entry.chunk_id)
        if self._handles[li] is not entry:
            self._res[li] = entry.resident_mask
            self._tch[li] = entry.touched_mask
            self._pfm[li] = entry.prefetch_mask
            self._ctr[li] = entry.counter
            self._lref[li] = entry.last_ref_interval
            self._iint[li] = entry.insert_interval
        return li

    def _link_tail(self, chunk_id: int, li: int) -> None:
        last = self._last
        self._prv[li] = last
        self._nxt[li] = -1
        if last >= 0:
            self._nxt[last - self._origin] = chunk_id
        else:
            self._first = chunk_id
        self._last = chunk_id
        self._inch[li] = 1
        self._count += 1
        if self._count > self.length_peak:
            self.length_peak = self._count

    def insert_tail(self, entry: ChunkEntry) -> None:
        """Insert at the MRU position (normal arrival of a migrated chunk)."""
        li = self._adopt(entry)
        if self._inch[li]:
            raise SimulationError(f"chunk {entry.chunk_id} already in chain")
        self._iord[li] = self._insert_seq
        self._insert_seq += 1
        self._link_tail(entry.chunk_id, li)

    def insert_head(self, entry: ChunkEntry) -> None:
        """Insert at the LRU position (MHPE's wrongly-evicted re-insertion)."""
        li = self._adopt(entry)
        if self._inch[li]:
            raise SimulationError(f"chunk {entry.chunk_id} already in chain")
        self._iord[li] = self._insert_seq
        self._insert_seq += 1
        chunk_id = entry.chunk_id
        first = self._first
        self._nxt[li] = first
        self._prv[li] = -1
        if first >= 0:
            self._prv[first - self._origin] = chunk_id
        else:
            self._last = chunk_id
        self._first = chunk_id
        self._inch[li] = 1
        self._count += 1
        if self._count > self.length_peak:
            self.length_peak = self._count

    def remove(self, chunk_id: int) -> ChunkEntry:
        """Remove and return the entry for ``chunk_id`` (eviction)."""
        li = chunk_id - self._origin
        if not (0 <= li < len(self._inch)) or not self._inch[li]:
            raise SimulationError(f"chunk {chunk_id} not in chain")
        prv = self._prv[li]
        nxt = self._nxt[li]
        if prv >= 0:
            self._nxt[prv - self._origin] = nxt
        else:
            self._first = nxt
        if nxt >= 0:
            self._prv[nxt - self._origin] = prv
        else:
            self._last = prv
        self._prv[li] = -1
        self._nxt[li] = -1
        self._inch[li] = 0
        self._count -= 1
        return self._handle(li)

    def move_to_tail(self, chunk_id: int) -> None:
        """Refresh recency (LRU policies call this on touch)."""
        li = chunk_id - self._origin
        if not (0 <= li < len(self._inch)) or not self._inch[li]:
            raise SimulationError(f"chunk {chunk_id} not in chain")
        if self._last == chunk_id:
            return  # unlink + relink at tail is a no-op
        prv = self._prv[li]
        nxt = self._nxt[li]
        if prv >= 0:
            self._nxt[prv - self._origin] = nxt
        else:
            self._first = nxt
        # nxt >= 0 always here: chunk_id is not the tail.
        self._prv[nxt - self._origin] = prv
        last = self._last
        self._prv[li] = last
        self._nxt[li] = -1
        self._nxt[last - self._origin] = chunk_id
        self._last = chunk_id

    # --- iteration --------------------------------------------------------

    def from_head(self) -> Iterator[ChunkEntry]:
        """LRU-most first."""
        cid = self._first
        while cid >= 0:
            li = cid - self._origin
            nxt = self._nxt[li]
            yield self._handle(li)
            cid = nxt

    def from_tail(self) -> Iterator[ChunkEntry]:
        """MRU-most first."""
        cid = self._last
        while cid >= 0:
            li = cid - self._origin
            prv = self._prv[li]
            yield self._handle(li)
            cid = prv

    def _partitioned_from(
        self, cid: int, links: List[int], current_interval: int
    ) -> List[ChunkEntry]:
        """:meth:`ChunkChain._partitioned` over the raw arrays: walk the
        chain from ``cid`` along ``links`` classifying ``_lref`` ints, and
        build handles only for the returned order."""
        origin = self._origin
        lref = self._lref
        middle_interval = current_interval - 1
        old: List[int] = []
        middle: List[int] = []
        new: List[int] = []
        while cid >= 0:
            li = cid - origin
            ref = lref[li]
            if ref >= current_interval:
                new.append(li)
            elif ref == middle_interval:
                middle.append(li)
            else:
                old.append(li)
            cid = links[li]
        handles = self._handles
        out: List[ChunkEntry] = []
        for li in old + middle + new:
            handle = handles[li]
            out.append(handle if handle is not None else self._handle(li))
        return out

    def candidates_from_tail(self, current_interval: int) -> List[ChunkEntry]:
        return self._partitioned_from(self._last, self._prv, current_interval)

    def candidates_from_head(self, current_interval: int) -> List[ChunkEntry]:
        return self._partitioned_from(self._first, self._nxt, current_interval)

    # --- bulk views -------------------------------------------------------

    def chain_chunk_ids(self) -> List[int]:
        """Chunk ids in chain order, head (LRU) first."""
        out: List[int] = []
        cid = self._first
        while cid >= 0:
            out.append(cid)
            cid = self._nxt[cid - self._origin]
        return out

    def mask_matrix(self, pages_per_chunk: int) -> "np.ndarray":
        """Stacked numpy bit-vectors for the in-chain chunks, head first.

        Shape ``(len(chain), 3, pages_per_chunk)`` — rows are (resident,
        touched, prefetch) per chunk.  Bulk view for tests and analysis.
        """
        ids = self.chain_chunk_ids()
        lis = [cid - self._origin for cid in ids]
        res = unpack_masks([self._res[li] for li in lis], pages_per_chunk)
        tch = unpack_masks([self._tch[li] for li in lis], pages_per_chunk)
        pfm = unpack_masks([self._pfm[li] for li in lis], pages_per_chunk)
        return np.stack([res, tch, pfm], axis=1)


class ArrayCoverage:
    """Origin-offset slot list emulating the frontend's coverage dict.

    Duck-types the handful of ``Dict[int, InFlightMigration]`` operations
    :class:`~repro.memsim.system.FaultFrontend` and the scheduler use, so
    the stage code is backend-agnostic.
    """

    __slots__ = ("_slots", "_origin", "_empty", "_count")

    def __init__(self) -> None:
        self._slots: List[Optional[InFlightMigration]] = [None] * _PAD_PAGES
        self._origin = 0
        self._empty = True
        self._count = 0

    def _ensure(self, vpn: int) -> int:
        if self._empty:
            # Re-anchor on first use: traces are rebased to a high base VPN
            # (``Workload.base_vpn``), so anchoring at 0 would allocate the
            # whole gap below it.
            self._origin = vpn - vpn % _PAD_PAGES
            self._empty = False
        idx = vpn - self._origin
        if idx < 0:
            pad = max(-idx, _PAD_PAGES)
            self._slots[:0] = [None] * pad
            self._origin -= pad
            return vpn - self._origin
        n = len(self._slots)
        if idx >= n:
            self._slots.extend([None] * (idx - n + 1 + _PAD_PAGES))
        return idx

    def __len__(self) -> int:
        return self._count

    def __contains__(self, vpn: int) -> bool:
        idx = vpn - self._origin
        return 0 <= idx < len(self._slots) and self._slots[idx] is not None

    def __getitem__(self, vpn: int) -> InFlightMigration:
        idx = vpn - self._origin
        if 0 <= idx < len(self._slots):
            mig = self._slots[idx]
            if mig is not None:
                return mig
        raise KeyError(vpn)

    def __setitem__(self, vpn: int, mig: InFlightMigration) -> None:
        idx = self._ensure(vpn)
        if self._slots[idx] is None:
            self._count += 1
        self._slots[idx] = mig

    def get(
        self, vpn: int, default: Optional[InFlightMigration] = None
    ) -> Optional[InFlightMigration]:
        idx = vpn - self._origin
        if 0 <= idx < len(self._slots):
            mig = self._slots[idx]
            if mig is not None:
                return mig
        return default

    def assign(self, vpns: List[int], mig: InFlightMigration) -> None:
        """Cover every page of a new service op's batch."""
        self._ensure(min(vpns))
        self._ensure(max(vpns))
        slots = self._slots
        origin = self._origin
        added = 0
        for vpn in vpns:
            idx = vpn - origin
            if slots[idx] is None:
                added += 1
            slots[idx] = mig
        self._count += added

    def discard(self, vpns: List[int]) -> None:
        """Uncover the pages of a completed migration."""
        slots = self._slots
        origin = self._origin
        for vpn in vpns:
            idx = vpn - origin
            if slots[idx] is not None:
                slots[idx] = None
                self._count -= 1

    def pop(
        self, vpn: int, default: Optional[InFlightMigration] = None
    ) -> Optional[InFlightMigration]:
        idx = vpn - self._origin
        if 0 <= idx < len(self._slots):
            mig = self._slots[idx]
            if mig is not None:
                self._slots[idx] = None
                self._count -= 1
                return mig
        return default
