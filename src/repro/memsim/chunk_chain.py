"""The chunk chain (HPE Fig. 2): a recency-ordered list of resident chunks.

Head is the least-recently referenced end (LRU position), tail the most
recent (MRU position).  Each chunk carries the per-page *touched*
bit-vector (maintained from page-table access bits), the *resident*
bit-vector (which pages of the chunk are actually in device memory —
pattern-aware prefetch migrates partial chunks), the *prefetch* bit-vector
and the HPE access counter.

Partitions (relative to the current interval ``cur``):

* **new**    — last referenced in interval ``cur``;
* **middle** — last referenced in interval ``cur - 1``;
* **old**    — everything older.  Eviction candidates come from here.

Representation (DESIGN.md §10): parallel per-chunk lists indexed by
``chunk_id - origin``, with the doubly-linked recency order stored
intrusively as absolute chunk ids.  Policies see a chunk through a
:class:`ChunkHandle`, a :class:`ChunkEntry`-shaped view over one slot; a
plain :class:`ChunkEntry` is a detached record (the eviction snapshot the
policies and prefetchers are handed).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from ..errors import SimulationError

__all__ = ["ChunkEntry", "ChunkHandle", "ChunkChain"]

#: Slack appended/prepended when the per-chunk arrays must grow, so growth
#: is amortised instead of per-chunk.
_PAD_CHUNKS = 512


class ChunkEntry:
    """Metadata of one chunk, detached from any chain."""

    __slots__ = (
        "chunk_id",
        "resident_mask",
        "touched_mask",
        "prefetch_mask",
        "counter",
        "last_ref_interval",
        "insert_interval",
    )

    def __init__(self, chunk_id: int, interval: int) -> None:
        self.chunk_id = chunk_id
        self.resident_mask = 0
        self.touched_mask = 0
        self.prefetch_mask = 0
        self.counter = 0
        self.last_ref_interval = interval
        self.insert_interval = interval

    @property
    def resident_pages(self) -> int:
        return bin(self.resident_mask).count("1")

    def untouch_level(self) -> int:
        """Pages migrated to the GPU but never touched (the MHPE statistic)."""
        return bin(self.resident_mask & ~self.touched_mask).count("1")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.chunk_id}, "
            f"res={self.resident_mask:#06x}, touch={self.touched_mask:#06x}, "
            f"ctr={self.counter})"
        )


class ChunkHandle(ChunkEntry):
    """One chain slot presented as a :class:`ChunkEntry`.

    Every metadata field is a property over the owning chain's parallel
    arrays, so the inherited helpers (``resident_pages``, ``untouch_level``)
    read live slot state.  The handle stores only its absolute chunk id
    (rebase-safe: the local slot index is recomputed per access).
    """

    __slots__ = ("_chain",)

    def __init__(self, chain: "ChunkChain", chunk_id: int) -> None:
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


class ChunkChain:
    """The recency chain as parallel per-chunk arrays.

    Slot ``chunk_id - _origin`` of each array holds that chunk's metadata;
    the doubly-linked recency order is intrusive, stored as *absolute*
    chunk ids in ``_prv``/``_nxt`` (``-1`` = end), so a low-side rebase
    shifts every array in lockstep and no link needs fixing up.  Arrays
    grow strictly in place, so hot loops may hoist them.
    """

    def __init__(self) -> None:
        n = _PAD_CHUNKS
        # Anchored on first use: chunk ids start at
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
        self._prv: List[int] = [-1] * n
        self._nxt: List[int] = [-1] * n
        self._inch = bytearray(n)
        self._handles: List[Optional[ChunkHandle]] = [None] * n
        self._first = -1  # absolute chunk id of the LRU-most entry
        self._last = -1  # absolute chunk id of the MRU-most entry
        self._count = 0
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
            for lst in self._int_arrays():
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
            for lst in self._int_arrays():
                lst.extend([0] * pad)
            self._prv.extend([-1] * pad)
            self._nxt.extend([-1] * pad)
            self._handles.extend([None] * pad)
            self._inch.extend(bytes(pad))
        return li

    def _int_arrays(self) -> Tuple[List[int], ...]:
        return (self._res, self._tch, self._pfm, self._ctr, self._lref, self._iint)

    def _handle(self, li: int) -> ChunkHandle:
        handle = self._handles[li]
        if handle is None:
            handle = ChunkHandle(self, li + self._origin)
            self._handles[li] = handle
        return handle

    # --- public operations ------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def new_entry(self, chunk_id: int, interval: int) -> ChunkHandle:
        """Reset the chunk's slot to a fresh entry and return its handle."""
        li = self._ensure(chunk_id)
        self._res[li] = 0
        self._tch[li] = 0
        self._pfm[li] = 0
        self._ctr[li] = 0
        self._lref[li] = interval
        self._iint[li] = interval
        return self._handle(li)

    def _link(self, entry: ChunkEntry) -> int:
        """Slot index of ``entry``, a handle from :meth:`new_entry`, now
        counted as in the chain (the caller links it)."""
        li = entry.chunk_id - self._origin
        if not (0 <= li < len(self._inch)) or self._handles[li] is not entry:
            raise SimulationError(
                f"chunk {entry.chunk_id}: insert the handle new_entry returned"
            )
        if self._inch[li]:
            raise SimulationError(f"chunk {entry.chunk_id} already in chain")
        self._inch[li] = 1
        self._count += 1
        if self._count > self.length_peak:
            self.length_peak = self._count
        return li

    def insert_tail(self, entry: ChunkEntry) -> None:
        """Insert at the MRU position (normal arrival of a migrated chunk)."""
        li = self._link(entry)
        chunk_id = entry.chunk_id
        last = self._last
        self._prv[li] = last
        self._nxt[li] = -1
        if last >= 0:
            self._nxt[last - self._origin] = chunk_id
        else:
            self._first = chunk_id
        self._last = chunk_id

    def insert_head(self, entry: ChunkEntry) -> None:
        """Insert at the LRU position (MHPE's wrongly-evicted re-insertion)."""
        li = self._link(entry)
        chunk_id = entry.chunk_id
        first = self._first
        self._nxt[li] = first
        self._prv[li] = -1
        if first >= 0:
            self._prv[first - self._origin] = chunk_id
        else:
            self._last = chunk_id
        self._first = chunk_id

    def remove(self, chunk_id: int) -> ChunkHandle:
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

    def from_head(self) -> Iterator[ChunkHandle]:
        """LRU-most first.  Removing the yielded entry is safe."""
        cid = self._first
        while cid >= 0:
            li = cid - self._origin
            nxt = self._nxt[li]
            yield self._handle(li)
            cid = nxt

    def from_tail(self) -> Iterator[ChunkHandle]:
        """MRU-most first.  Removing the yielded entry is safe."""
        cid = self._last
        while cid >= 0:
            li = cid - self._origin
            prv = self._prv[li]
            yield self._handle(li)
            cid = prv

    def candidates_from_tail(self, current_interval: int) -> List[ChunkHandle]:
        """Eviction candidates: old partition first (MRU-first within each
        partition), then middle, then new.

        Eviction prefers the old partition, but a policy must be able to
        evict *something* when the old partition cannot cover a request, so
        younger partitions follow in priority order.  The walk classifies
        ``_lref`` ints and builds handles only for the returned order.
        """
        origin = self._origin
        lref = self._lref
        links = self._prv
        middle_interval = current_interval - 1
        old: List[int] = []
        middle: List[int] = []
        new: List[int] = []
        cid = self._last
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
        out: List[ChunkHandle] = []
        for li in old + middle + new:
            handle = handles[li]
            out.append(handle if handle is not None else self._handle(li))
        return out

    def candidates_from_head(self, current_interval: int) -> Iterator[ChunkHandle]:
        """Eviction candidates: old partition first (LRU-first within each
        partition), then middle, then new.

        Lazy: old-partition handles are yielded as the walk from the head
        meets them, while middle and new entries are buffered for the end.
        A victim search that stops early (``_take_until_enough``) so walks
        the chain only up to its last old victim.  The chain must not
        change while the iterator is consumed; consume it once.
        """
        origin = self._origin
        lref = self._lref
        links = self._nxt
        handles = self._handles
        middle_interval = current_interval - 1
        middle: List[int] = []
        new: List[int] = []
        cid = self._first
        while cid >= 0:
            li = cid - origin
            cid = links[li]
            ref = lref[li]
            if ref >= current_interval:
                new.append(li)
            elif ref == middle_interval:
                middle.append(li)
            else:
                handle = handles[li]
                yield handle if handle is not None else self._handle(li)
        for li in middle + new:
            handle = handles[li]
            yield handle if handle is not None else self._handle(li)
