"""Tree-based neighborhood prefetcher (Ganguly et al. [16], Section II-B).

Ganguly et al. discovered via microbenchmarks that the NVIDIA CUDA driver
prefetches with a binary tree built over the 64 KB basic blocks of each 2 MB
large-page region: when a fault makes more than half of the pages under a
tree node valid, the driver prefetches the remainder of that node, walking
up the tree as long as the occupancy condition holds.

This is an *extension* in our reproduction (the paper's own evaluation uses
the sequential-local prefetcher); the ablation bench ``bench_ablation_tree``
compares the two under LRU.
"""

from __future__ import annotations

from typing import Callable, List

from ..errors import ConfigError
from .base import Prefetcher

__all__ = ["TreeNeighborhoodPrefetcher"]


class TreeNeighborhoodPrefetcher(Prefetcher):
    """Binary-tree neighborhood prefetch over 2 MB regions."""

    def __init__(self, region_pages: int = 512, on_full: str = "continue",
                 occupancy_threshold: float = 0.5):
        super().__init__()
        if region_pages <= 0 or region_pages & (region_pages - 1):
            raise ConfigError("region_pages must be a positive power of two")
        if on_full not in ("continue", "stop"):
            raise ConfigError(f"on_full must be 'continue' or 'stop', got {on_full!r}")
        if not 0.0 < occupancy_threshold <= 1.0:
            raise ConfigError("occupancy_threshold must be in (0, 1]")
        self.region_pages = region_pages
        self.on_full = on_full
        self.occupancy_threshold = occupancy_threshold
        self.name = f"tree/{on_full}"

    def pages_to_migrate(
        self, vpn: int, memory_full: bool, skip: Callable[[int], bool],
        time: int = 0,
    ) -> List[int]:
        if memory_full and self.on_full == "stop":
            return [] if skip(vpn) else [vpn]

        ppc = self.ctx.pages_per_chunk
        # Start from the faulted basic block (chunk).
        node_base = (vpn // ppc) * ppc
        node_size = ppc
        pages = self._collect(node_base, node_size, vpn, skip)

        # Walk up the tree while the enclosing node would be >50% valid
        # after this migration.
        region_base = (vpn // self.region_pages) * self.region_pages
        valid = set(pages)
        while node_size < self.region_pages:
            parent_size = node_size * 2
            parent_base = region_base + ((node_base - region_base) // parent_size) * parent_size
            occupied = sum(
                1
                for p in range(parent_base, parent_base + parent_size)
                if skip(p) or p in valid
            )
            # '>=': completing one half of a node triggers the other half,
            # which is what produces the geometrically growing migration
            # sizes Ganguly et al. measured from the CUDA driver.
            if occupied / parent_size < self.occupancy_threshold:
                break
            extra = self._collect(parent_base, parent_size, vpn, skip)
            for p in extra:
                if p not in valid:
                    pages.append(p)
                    valid.add(p)
            node_base, node_size = parent_base, parent_size
        return pages

    def _collect(
        self, base: int, size: int, faulted: int, skip: Callable[[int], bool]
    ) -> List[int]:
        """Non-skipped pages of [base, base+size), faulted page first."""
        pages = [] if skip(faulted) or not base <= faulted < base + size else [faulted]
        pages += [
            p for p in range(base, base + size) if p != faulted and not skip(p)
        ]
        return pages
