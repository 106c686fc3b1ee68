"""The fault frontend's coverage map as an origin-offset slot list.

:class:`ArrayCoverage` maps each page of an in-flight migration to that
:class:`~repro.memsim.fault.InFlightMigration`: slot ``vpn - origin`` holds
the migration, ``None`` when no migration covers the page.  The scheduler
covers a whole service op's batch at once (:meth:`ArrayCoverage.assign`)
and uncovers it on completion (:meth:`ArrayCoverage.discard`); the fault
path, the prefetchers' skip test and the queue drain read ``_slots``
directly.

The page table (:mod:`repro.memsim.page_table`) and the chunk chain
(:mod:`repro.memsim.chunk_chain`) use the same representation; DESIGN.md
§10 gives the rationale:

1. **Origin offsets, not 0-based indexing.**  Workloads place their
   footprint at ``Workload.base_vpn`` (default ``0x80000``), so arrays are
   indexed by ``vpn - origin`` and grow in place at either end
   (``lst.extend`` high, ``lst[:0] = ...`` low).  In-place growth preserves
   list identity, which is what lets hot loops hoist array references.
2. **Lists and bytearrays for scalar state.**  CPython indexes a plain list
   several times faster than a numpy array (scalar access boxes the
   element), and the simulation hot path is scalar — one page, one chunk
   at a time.
"""

from __future__ import annotations

from typing import List, Optional

from .fault import InFlightMigration

__all__ = ["ArrayCoverage"]

#: Slack appended/prepended when the slot list must grow, so growth is
#: amortised instead of per-page.
_PAD_PAGES = 4096


class ArrayCoverage:
    """Origin-offset slot list: page -> the in-flight migration covering it."""

    __slots__ = ("_slots", "_origin", "_empty")

    def __init__(self) -> None:
        self._slots: List[Optional[InFlightMigration]] = [None] * _PAD_PAGES
        self._origin = 0
        self._empty = True

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

    def get(self, vpn: int) -> Optional[InFlightMigration]:
        """The migration covering ``vpn``, or ``None``."""
        idx = vpn - self._origin
        if 0 <= idx < len(self._slots):
            return self._slots[idx]
        return None

    def assign(self, base: int, mask: int, mig: InFlightMigration) -> None:
        """Cover a new service op's batch: page ``base + b`` for every set
        bit ``b`` of ``mask``, one contiguous run of pages at a time."""
        self._ensure(base + (mask & -mask).bit_length() - 1)
        self._ensure(base + mask.bit_length() - 1)
        slots = self._slots
        off = base - self._origin
        m = mask
        while m:
            # Lowest run of set bits: ``low`` is its first bit, and adding
            # it carries through the run, so ``top``'s lowest bit ends it.
            low = m & -m
            top = m + low
            i0 = off + low.bit_length() - 1
            i1 = off + (top & -top).bit_length() - 1
            m &= top
            slots[i0:i1] = [mig] * (i1 - i0)

    def discard(self, base: int, mask: int) -> None:
        """Uncover the pages of a completed migration (``assign``'s page
        mask form), one contiguous run at a time."""
        slots = self._slots
        off = base - self._origin
        m = mask
        while m:
            low = m & -m
            top = m + low
            i0 = off + low.bit_length() - 1
            i1 = off + (top & -top).bit_length() - 1
            m &= top
            slots[i0:i1] = [None] * (i1 - i0)
