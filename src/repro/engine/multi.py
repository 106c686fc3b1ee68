"""Multi-instance smoke scenario: N ``MemorySystem`` pipelines, one queue.

The staged-pipeline refactor (``repro.memsim.system``) exists so that the
mechanism layer stops being one global object; this module proves the seam
is real by running **several** :class:`MemorySystem` instances — each with
its own device memory, page table, chunk chain, PCIe link, policy and
prefetcher — against a single shared :class:`EventQueue` and
:class:`SimStats`.  SMs are assigned round-robin (``sm_id % instances``),
modelling independent GPUs (or tenant partitions) that each serve their own
SMs' far faults out of an even share of the total frame budget.

This is deliberately a *minimal* scenario: no peer-to-peer migration, no
shared chain, no NVLink model — those are follow-up work.  What it must be
(and what ``tests/test_multi_instance.py`` enforces) is **deterministic**:
identical results from serial and process-pool harness paths, because all
simulation state lives in seeded, per-instance structures and every
cross-instance interaction goes through the deterministic event queue.

Enable it from the harness with ``RunSpec(instances=N)`` or from the CLI
with ``repro run APP --instances N``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..config import SimConfig
from ..errors import SimulationError, ThrashingCrash
from ..memsim.system import MemorySystem
from ..obs import DISABLED, Observability
from ..policies.base import EvictionPolicy
from ..prefetch.base import Prefetcher
from ..translation.hierarchy import TranslationHierarchy
from ..workloads.base import Workload
from .events import EventQueue
from .simulator import DEFAULT_MAX_EVENTS, SimulationResult, build_page_table
from .sm import StreamingMultiprocessor
from .stats import SimStats, publish_summary

__all__ = ["ShardedSimulator", "split_capacity"]


def split_capacity(total_frames: int, instances: int) -> List[int]:
    """Even frame split; low-index instances absorb the remainder."""
    if instances < 1:
        raise SimulationError(f"instances must be >= 1, got {instances}")
    base, rem = divmod(total_frames, instances)
    return [base + (1 if i < rem else 0) for i in range(instances)]


class ShardedSimulator:
    """One workload sharded across N independent ``MemorySystem`` instances.

    ``policies``/``prefetchers`` must hold one (fresh, unattached) instance
    per memory system — policy state is per-GPU.  All instances share the
    event queue and the stats bag (counters are additive; per-interval
    records interleave in deterministic event order).
    """

    def __init__(
        self,
        workload: Workload,
        policies: Sequence[EvictionPolicy],
        prefetchers: Sequence[Prefetcher],
        oversubscription: Optional[float] = None,
        config: Optional[SimConfig] = None,
        capacity_pages: Optional[int] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
        obs: Optional[Observability] = None,
    ):
        if len(policies) != len(prefetchers) or not policies:
            raise SimulationError(
                "need one (policy, prefetcher) pair per instance; got "
                f"{len(policies)} policies / {len(prefetchers)} prefetchers"
            )
        self.workload = workload
        self.config = config or SimConfig()
        self.obs = obs or DISABLED
        self.policies = list(policies)
        self.prefetchers = list(prefetchers)
        self.instances = len(self.policies)
        self.oversubscription = oversubscription
        self.capacity = (
            capacity_pages
            if capacity_pages is not None
            else workload.capacity_for(oversubscription)
        )
        self.max_events = max_events

        self.events = EventQueue()
        self.stats = SimStats()
        self.translations: List[Optional[TranslationHierarchy]] = []
        self.systems: List[MemorySystem] = []
        for i, frames in enumerate(split_capacity(self.capacity, self.instances)):
            page_table = build_page_table(self.config, workload)
            translation: Optional[TranslationHierarchy] = None
            if self.config.translation.enabled:
                # Sized for the global SM-id space: an SM only ever queries
                # its own instance's hierarchy, so the spare L1 TLBs idle.
                translation = TranslationHierarchy(
                    self.config.translation, self.config.sm.num_sms,
                    page_table, self.stats,
                )
            system = MemorySystem(
                config=self.config,
                capacity_frames=frames,
                events=self.events,
                stats=self.stats,
                policy=self.policies[i],
                prefetcher=self.prefetchers[i],
                translation=translation,
                footprint_pages=workload.footprint_pages,
                obs=self.obs,
                page_table=page_table,
            )
            self.translations.append(translation)
            self.systems.append(system)

        self._finished_sms = 0
        self.sms: List[StreamingMultiprocessor] = []
        for sm_id, (trace, writes) in enumerate(
            workload.per_sm_traces(self.config.sm.num_sms)
        ):
            if trace.size == 0:
                self._finished_sms += 1
                continue
            shard = sm_id % self.instances
            self.sms.append(
                StreamingMultiprocessor(
                    sm_id=sm_id,
                    trace=trace,
                    writes=writes,
                    config=self.config,
                    gmmu=self.systems[shard],
                    translation=self.translations[shard],
                    events=self.events,
                    stats=self.stats,
                    on_finish=self._on_sm_finish,
                )
            )
        if not self.sms:
            raise SimulationError("workload produced no non-empty SM traces")

    def _on_sm_finish(self, sm_id: int, time: int) -> None:
        self._finished_sms += 1

    def run(self) -> SimulationResult:
        """Execute to completion (or crash) and return the merged result."""
        result = SimulationResult(
            workload=self.workload.name,
            pattern_type=self.workload.pattern_type,
            policy=self.policies[0].name,
            prefetcher=self.prefetchers[0].name,
            oversubscription=self.oversubscription,
            capacity_pages=self.capacity,
            footprint_pages=self.workload.footprint_pages,
            stats=self.stats,
        )
        trace = self.obs.tracer
        if trace.enabled:
            trace.emit(
                "run_start", 0, label=result.label(),
                workload=self.workload.name, policy=result.policy,
                prefetcher=result.prefetcher,
                capacity_pages=self.capacity,
                footprint_pages=self.workload.footprint_pages,
                instances=self.instances,
            )
        for sm in self.sms:
            sm.start(0)
        try:
            self.events.run(max_events=self.max_events)
        except ThrashingCrash as crash:
            result.crashed = True
            result.crash_reason = str(crash)
            self.stats.total_cycles = self.events.now
            if trace.enabled:
                trace.emit(
                    "run_end", self.events.now, label=result.label(),
                    crashed=True, reason=result.crash_reason,
                )
            publish_summary(self.stats, self.obs.metrics)
            return result

        if any(not sm.done for sm in self.sms):
            raise SimulationError(
                f"event queue drained but {sum(1 for sm in self.sms if not sm.done)}"
                " SMs have not finished (deadlock?)"
            )
        for system in self.systems:
            system.drain_check()
        self.stats.total_cycles = max(
            self.stats.sm_finish_times.values(), default=self.events.now
        )
        for translation in self.translations:
            if translation is not None:
                translation.sync_counter_stats()
        # Shards adapt independently; instance 0 is the reported strategy.
        self.stats.final_strategy = self.policies[0].current_strategy
        if trace.enabled:
            trace.emit(
                "run_end", self.stats.total_cycles, label=result.label(),
                crashed=False, total_cycles=self.stats.total_cycles,
                far_faults=self.stats.far_faults,
            )
        publish_summary(self.stats, self.obs.metrics)
        return result
