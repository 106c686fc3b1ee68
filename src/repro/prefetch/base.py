"""Prefetcher interface.

On every far fault the GMMU asks the active prefetcher which pages to
migrate alongside the faulted page.  The prefetcher never sees residency
state directly; the GMMU passes a ``skip`` predicate that is True for pages
already resident or already covered by an in-flight migration, so a
prefetcher cannot double-migrate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from ..config import SimConfig
from ..engine.stats import SimStats
from ..obs import DISABLED, Observability

__all__ = ["PrefetchContext", "Prefetcher"]


@dataclass
class PrefetchContext:
    """Handed to the prefetcher by the GMMU at attach time."""

    config: SimConfig
    stats: SimStats
    #: Observability sink (tracer + metrics registry); the DISABLED
    #: singleton is stateless, so sharing it as a default is safe.
    obs: Observability = DISABLED

    @property
    def pages_per_chunk(self) -> int:
        return self.config.uvm.pages_per_chunk


class Prefetcher:
    """Base prefetcher: demand page only (subclasses widen the batch)."""

    name = "none"

    def __init__(self) -> None:
        self.ctx: PrefetchContext = None  # type: ignore[assignment]

    def attach(self, ctx: PrefetchContext) -> None:
        self.ctx = ctx

    def pages_to_migrate(
        self,
        vpn: int,
        memory_full: bool,
        skip: Callable[[int], bool],
        time: int = 0,
    ) -> List[int]:
        """Pages to migrate for a fault on ``vpn``.

        Must include ``vpn`` itself (unless it is skipped, i.e. already
        covered in flight) and must not include any page for which
        ``skip(page)`` is True.  ``memory_full`` tells the prefetcher the
        device is at capacity and every extra page forces an eviction.
        ``time`` is the fault's simulation time, used only for telemetry
        (trace events) — it must never influence the page batch.
        """
        return [] if skip(vpn) else [vpn]

    def on_chunk_evicted(
        self,
        chunk_id: int,
        touched_mask: int,
        untouch_level: int,
        strategy: str,
        time: int = 0,
    ) -> None:
        """Eviction feedback (CPPE coordination point).  Default: ignore."""

    # --- helpers -----------------------------------------------------------

    def _chunk_pages(self, vpn: int, skip: Callable[[int], bool]) -> List[int]:
        """All non-skipped pages of the chunk containing ``vpn``, with the
        faulted page first (it is the demand page; the rest are prefetch)."""
        ppc = self.ctx.pages_per_chunk
        base = (vpn // ppc) * ppc
        pages = [] if skip(vpn) else [vpn]
        pages += [p for p in range(base, base + ppc) if p != vpn and not skip(p)]
        return pages
