"""Online n-gram (order-k Markov) next-chunk prefetcher.

The learned-prefetching baseline the registry seam exists for (PAPERS.md:
Long et al., "Deep Learning based Data Prefetching in CPU-GPU UVM"): learn
chunk-to-chunk transitions from the run's *own* far-fault stream and, on
each fault, prefetch the chunk the model predicts will fault next.

Mechanics (all deterministic, all O(1) per fault):

* The fault stream is reduced to 64 KB chunk ids.  A sliding window of the
  last ``order`` distinct-chunk faults forms the *context*; every observed
  ``context -> next chunk`` transition increments a counter in a bounded
  FIFO table (``max_contexts`` contexts; the oldest context is dropped when
  the table is full — the same bounded-staleness idea as the paper's
  pattern buffer).
* On a fault the prefetcher always migrates the demand chunk (like the
  locality baseline), then consults the model with the *new* context: if
  the most frequent successor has been seen at least ``min_count`` times,
  that chunk's pages are appended to the batch.  Ties break toward the
  lower chunk id, so the batch never depends on dict insertion order.
* Coordination with eviction: when memory is full the speculative chunk is
  suppressed (demand chunk only — every extra page would force an
  eviction), and chunks the policy just evicted are blacklisted from
  prediction until they fault again (``on_chunk_evicted`` feedback), so
  the predictor does not fight the eviction policy.

This module is deliberately wired through the *public* registry API only —
no edits to ``harness/baselines.py``, ``config.py`` or ``cli.py`` — as the
proof that third-party prefetcher families can do the same.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..registry import register
from .base import Prefetcher

__all__ = ["NGramPrefetcher"]

#: Evicted chunks stay blacklisted from prediction until they fault again,
#: bounded FIFO so a long run cannot accumulate unbounded state.
_EVICTED_CAPACITY = 64


class NGramPrefetcher(Prefetcher):
    """Predict the next faulting chunk from the last ``order`` transitions."""

    def __init__(
        self,
        order: int = 2,
        min_count: int = 2,
        max_contexts: int = 4096,
    ) -> None:
        super().__init__()
        if order < 1:
            raise ConfigError(f"ngram order must be >= 1, got {order}")
        if min_count < 1:
            raise ConfigError(f"ngram min_count must be >= 1, got {min_count}")
        if max_contexts < 1:
            raise ConfigError(
                f"ngram max_contexts must be >= 1, got {max_contexts}"
            )
        self.order = order
        self.min_count = min_count
        self.max_contexts = max_contexts
        self.name = f"ngram/{order}"
        #: Sliding window of the last ``order`` faulted chunk ids.
        self._context: Tuple[int, ...] = ()
        #: context -> {next chunk id: observation count}, bounded FIFO.
        self._model: "OrderedDict[Tuple[int, ...], Dict[int, int]]" = (
            OrderedDict()
        )
        #: Recently evicted chunks (insertion-ordered dict used as a
        #: bounded FIFO set — set iteration is banned, REPRO105).
        self._evicted: "OrderedDict[int, None]" = OrderedDict()
        #: Telemetry counters (inspectable by tests; not part of results).
        self.predictions = 0
        self.trained_transitions = 0

    # --- model maintenance -------------------------------------------------

    def _observe(self, chunk: int) -> None:
        """Record the ``context -> chunk`` transition and slide the window."""
        context = self._context
        if context and context[-1] == chunk:
            return  # repeated faults into one chunk carry no transition
        if len(context) == self.order:
            bucket = self._model.get(context)
            if bucket is None:
                if len(self._model) >= self.max_contexts:
                    self._model.popitem(last=False)
                bucket = {}
                self._model[context] = bucket
            bucket[chunk] = bucket.get(chunk, 0) + 1
            self.trained_transitions += 1
        self._context = (context + (chunk,))[-self.order:]

    def _predict(self) -> Optional[int]:
        """Most frequent successor of the current context, if confident.

        Deterministic selection: highest count wins, ties break toward the
        lower chunk id — never dict order.
        """
        if len(self._context) < self.order:
            return None
        bucket = self._model.get(self._context)
        if not bucket:
            return None
        best_chunk = -1
        best_count = 0
        for candidate, count in bucket.items():
            if count > best_count or (
                count == best_count and candidate < best_chunk
            ):
                best_chunk = candidate
                best_count = count
        if best_count < self.min_count:
            return None
        if best_chunk in self._evicted:
            return None  # do not fight the eviction policy
        return best_chunk

    # --- Prefetcher interface ----------------------------------------------

    def pages_to_migrate(
        self,
        vpn: int,
        memory_full: bool,
        skip: Callable[[int], bool],
        time: int = 0,
    ) -> List[int]:
        ppc = self.ctx.pages_per_chunk
        chunk = vpn // ppc
        # A fault into a chunk proves it live again: lift the blacklist.
        self._evicted.pop(chunk, None)
        self._observe(chunk)
        pages = self._chunk_pages(vpn, skip)
        if memory_full:
            return pages  # demand chunk only: no speculation at capacity
        predicted = self._predict()
        if predicted is None or predicted == chunk:
            return pages
        self.predictions += 1
        base = predicted * ppc
        pages += [p for p in range(base, base + ppc) if not skip(p)]
        return pages

    def on_chunk_evicted(
        self,
        chunk_id: int,
        touched_mask: int,
        untouch_level: int,
        strategy: str,
        time: int = 0,
    ) -> None:
        self._evicted.pop(chunk_id, None)
        if len(self._evicted) >= _EVICTED_CAPACITY:
            self._evicted.popitem(last=False)
        self._evicted[chunk_id] = None


# Registered through the public API only — the acceptance proof that a new
# prefetcher family needs no edits to baselines.py / config.py / cli.py.
register(
    "prefetcher", "ngram", NGramPrefetcher,
    params_schema={
        "order": "context length in chunk transitions (default 2)",
        "min_count": "observations before a prediction fires (default 2)",
        "max_contexts": "bounded FIFO model size (default 4096)",
    },
    doc="online n-gram/Markov next-chunk predictor over the fault stream",
)
register(
    "setup", "ngram", ("lru", "ngram"),
    doc="LRU + n-gram predictor (learned-prefetching baseline)",
)
register(
    "setup", "cppe-ngram", ("mhpe", "ngram"),
    doc="MHPE eviction + n-gram prefetch (coordination with a learned family)",
)
