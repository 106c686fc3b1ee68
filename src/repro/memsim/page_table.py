"""GPU page table.

Two roles:

1. **Residency map** — VPN -> physical frame for pages currently in device
   memory, plus per-page *accessed* and *dirty* bits.  The memory-system
   stages write these in place: migration completion installs frames and
   clears both bits, the SM sets them on every access, and eviction frees
   the frames and counts the dirty pages it writes back.
2. **Walk structure model** — a 4-level radix tree (512-ary, 9 bits per
   level, as in x86-64).  The page-table walker asks for the per-level node
   keys of a VPN so that the page walk cache can cache upper levels.

Representation (DESIGN.md §10): ``_frames[vpn - _origin]`` holds the
physical frame (``-1`` = unmapped); accessed/dirty bits live in parallel
bytearrays.  All three grow in place at either end (:meth:`_ensure`), so
their identity is stable for the life of the table and hot loops may hoist
them.
"""

from __future__ import annotations

from typing import List, Tuple

from ..errors import SimulationError

__all__ = ["PageTable"]

_BITS_PER_LEVEL = 9

#: Slack appended/prepended when the arrays must grow, so growth is
#: amortised instead of per-page.
_PAD_PAGES = 4096


class PageTable:
    """Radix page table with residency and access/dirty tracking over flat
    origin-offset arrays."""

    __slots__ = ("levels", "_frames", "_accessed", "_dirty", "_origin")

    def __init__(
        self, levels: int = 4, origin_hint: int = 0, size_hint: int = 0
    ) -> None:
        if levels <= 0:
            raise SimulationError("page table needs at least one level")
        self.levels = levels
        self._origin = origin_hint
        n = max(size_hint, _PAD_PAGES)
        self._frames: List[int] = [-1] * n
        self._accessed = bytearray(n)
        self._dirty = bytearray(n)

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

    def is_resident(self, vpn: int) -> bool:
        idx = vpn - self._origin
        if 0 <= idx < len(self._frames):
            return self._frames[idx] >= 0
        return False

    def node_keys(self, vpn: int) -> Tuple[Tuple[int, int], ...]:
        """Per-level node identifiers touched by a walk for ``vpn``.

        Returns ``levels`` keys ordered root-first.  Key for level ``i``
        (0 = root) identifies the page-table node whose entry must be read at
        that level; the page walk cache caches the *upper* levels (all but
        the leaf), so a PWC hit on the deepest cached level shortens the walk.
        """
        keys = []
        for level in range(self.levels):
            shift = _BITS_PER_LEVEL * (self.levels - 1 - level)
            keys.append((level, vpn >> shift))
        return tuple(keys)
