"""The chunk chain (HPE Fig. 2): a recency-ordered list of resident chunks.

The chain is a doubly-linked list with O(1) insert/remove/move.  Head is the
least-recently referenced end (LRU position), tail the most recent (MRU
position).  Entries carry the per-page *touched* bit-vector (maintained from
page-table access bits), the *resident* bit-vector (which pages of the chunk
are actually in device memory — pattern-aware prefetch migrates partial
chunks), and the HPE access counter.

Partitions (relative to the current interval ``cur``):

* **new**    — last referenced in interval ``cur``;
* **middle** — last referenced in interval ``cur - 1``;
* **old**    — everything older.  Eviction candidates come from here.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional

from ..errors import SimulationError

__all__ = ["ChunkEntry", "ChunkChain"]


class ChunkEntry:
    """Metadata for one resident (or partially resident) chunk."""

    __slots__ = (
        "chunk_id",
        "resident_mask",
        "touched_mask",
        "prefetch_mask",
        "counter",
        "last_ref_interval",
        "insert_interval",
        "insert_order",
        "prev",
        "next",
        "in_chain",
    )

    def __init__(
        self, chunk_id: int, interval: int, insert_order: int = 0
    ) -> None:
        self.chunk_id = chunk_id
        self.resident_mask = 0
        self.touched_mask = 0
        self.prefetch_mask = 0
        self.counter = 0
        self.last_ref_interval = interval
        self.insert_interval = interval
        self.insert_order = insert_order
        self.prev: Optional["ChunkEntry"] = None
        self.next: Optional["ChunkEntry"] = None
        self.in_chain = False

    # --- bit-vector helpers -------------------------------------------------

    def mark_resident(self, page_index: int) -> None:
        self.resident_mask |= 1 << page_index

    def clear_resident(self, page_index: int) -> None:
        self.resident_mask &= ~(1 << page_index)

    def mark_touched(self, page_index: int) -> None:
        self.touched_mask |= 1 << page_index

    def is_resident(self, page_index: int) -> bool:
        return bool(self.resident_mask >> page_index & 1)

    def is_touched(self, page_index: int) -> bool:
        return bool(self.touched_mask >> page_index & 1)

    @property
    def resident_pages(self) -> int:
        return bin(self.resident_mask).count("1")

    @property
    def touched_pages(self) -> int:
        return bin(self.touched_mask).count("1")

    def untouch_level(self) -> int:
        """Pages migrated to the GPU but never touched (the MHPE statistic)."""
        return bin(self.resident_mask & ~self.touched_mask).count("1")

    def partition(self, current_interval: int) -> str:
        if self.last_ref_interval >= current_interval:
            return "new"
        if self.last_ref_interval == current_interval - 1:
            return "middle"
        return "old"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChunkEntry({self.chunk_id}, res={self.resident_mask:#06x}, "
            f"touch={self.touched_mask:#06x}, ctr={self.counter})"
        )


class ChunkChain:
    """Doubly-linked recency chain of :class:`ChunkEntry` with an id index."""

    def __init__(self) -> None:
        # Sentinels: _head.next is the LRU-most real entry.
        self._head = ChunkEntry(-1, 0)
        self._tail = ChunkEntry(-2, 0)
        self._head.next = self._tail
        self._tail.prev = self._head
        self._index: dict[int, ChunkEntry] = {}
        self._insert_seq = 0
        self.length_peak = 0

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self._index

    def get(self, chunk_id: int) -> Optional[ChunkEntry]:
        return self._index.get(chunk_id)

    # --- linking primitives -------------------------------------------------

    def _link_before(self, node: ChunkEntry, anchor: ChunkEntry) -> None:
        prev = anchor.prev
        assert prev is not None
        prev.next = node
        node.prev = prev
        node.next = anchor
        anchor.prev = node
        node.in_chain = True

    def _unlink(self, node: ChunkEntry) -> None:
        if not node.in_chain:
            raise SimulationError(f"chunk {node.chunk_id} not in chain")
        assert node.prev is not None and node.next is not None
        node.prev.next = node.next
        node.next.prev = node.prev
        node.prev = node.next = None
        node.in_chain = False

    # --- public operations ----------------------------------------------------

    def new_entry(self, chunk_id: int, interval: int) -> ChunkEntry:
        """Fresh (all-clear) entry for a chunk about to become resident.

        A factory rather than a bare constructor call so array-backed
        chains can hand out slot-backed handles instead of heap objects.
        """
        return ChunkEntry(chunk_id, interval)

    def insert_tail(self, entry: ChunkEntry) -> None:
        """Insert at the MRU position (normal arrival of a migrated chunk)."""
        if entry.chunk_id in self._index:
            raise SimulationError(f"chunk {entry.chunk_id} already in chain")
        entry.insert_order = self._insert_seq
        self._insert_seq += 1
        self._link_before(entry, self._tail)
        self._index[entry.chunk_id] = entry
        if len(self._index) > self.length_peak:
            self.length_peak = len(self._index)

    def insert_head(self, entry: ChunkEntry) -> None:
        """Insert at the LRU position (MHPE's wrongly-evicted re-insertion)."""
        if entry.chunk_id in self._index:
            raise SimulationError(f"chunk {entry.chunk_id} already in chain")
        entry.insert_order = self._insert_seq
        self._insert_seq += 1
        anchor = self._head.next
        assert anchor is not None
        self._link_before(entry, anchor)
        self._index[entry.chunk_id] = entry
        if len(self._index) > self.length_peak:
            self.length_peak = len(self._index)

    def remove(self, chunk_id: int) -> ChunkEntry:
        """Remove and return the entry for ``chunk_id`` (eviction)."""
        entry = self._index.pop(chunk_id, None)
        if entry is None:
            raise SimulationError(f"chunk {chunk_id} not in chain")
        self._unlink(entry)
        return entry

    def move_to_tail(self, chunk_id: int) -> None:
        """Refresh recency (LRU policies call this on touch)."""
        entry = self._index.get(chunk_id)
        if entry is None:
            raise SimulationError(f"chunk {chunk_id} not in chain")
        self._unlink(entry)
        self._link_before(entry, self._tail)
        self._index[chunk_id] = entry

    # --- iteration -----------------------------------------------------------

    def from_head(self) -> Iterator[ChunkEntry]:
        """LRU-most first."""
        node = self._head.next
        while node is not self._tail:
            assert node is not None
            nxt = node.next
            yield node
            node = nxt

    def from_tail(self) -> Iterator[ChunkEntry]:
        """MRU-most first."""
        node = self._tail.prev
        while node is not self._head:
            assert node is not None
            prv = node.prev
            yield node
            node = prv

    def old_partition_from_head(self, current_interval: int) -> Iterator[ChunkEntry]:
        """Old-partition entries, LRU-most first."""
        for entry in self.from_head():
            if entry.partition(current_interval) == "old":
                yield entry

    def old_partition_from_tail(self, current_interval: int) -> Iterator[ChunkEntry]:
        """Old-partition entries, MRU-most first."""
        for entry in self.from_tail():
            if entry.partition(current_interval) == "old":
                yield entry

    def _partitioned(
        self, entries: Iterator[ChunkEntry], current_interval: int
    ) -> List[ChunkEntry]:
        old: List[ChunkEntry] = []
        middle: List[ChunkEntry] = []
        new: List[ChunkEntry] = []
        for entry in entries:
            part = entry.partition(current_interval)
            if part == "old":
                old.append(entry)
            elif part == "middle":
                middle.append(entry)
            else:
                new.append(entry)
        return old + middle + new

    def candidates_from_tail(self, current_interval: int) -> List[ChunkEntry]:
        """Eviction candidates: old partition first (MRU-first within each
        partition), then middle, then new.

        Eviction prefers the old partition, but a policy must be able to
        evict *something* when the old partition cannot cover a request, so
        younger partitions follow in priority order.
        """
        return self._partitioned(self.from_tail(), current_interval)

    def candidates_from_head(self, current_interval: int) -> Iterable[ChunkEntry]:
        """Eviction candidates: old partition first (LRU-first within each
        partition), then middle, then new.  The array chain yields them
        lazily; consume the result once."""
        return self._partitioned(self.from_head(), current_interval)
