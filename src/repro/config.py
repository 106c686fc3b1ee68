"""Configuration dataclasses for the simulated system.

Defaults mirror Table I of the paper:

====================  ======================================================
GPU cores             28 SMs, 1.4 GHz
Private L1 TLB        128-entry per SM, 1-cycle latency, LRU
Shared L2 TLB         512-entry, 16-way associative, 10-cycle latency
Page table walker     64 concurrent walks, 4-level page table
Page walk cache       8 KB, 16-way, 10-cycle latency
DRAM                  flat-latency model (see DESIGN.md deviation #4)
CPU-GPU interconnect  16 GB/s, 20 us page fault service time
====================  ======================================================
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from .errors import ConfigError
from .units import (
    DEFAULT_CLOCK_HZ,
    PAGES_PER_CHUNK,
    PAGE_SIZE_BYTES,
    page_transfer_cycles,
    us_to_cycles,
)

__all__ = [
    "TLBConfig",
    "PageWalkCacheConfig",
    "WalkerConfig",
    "TranslationConfig",
    "SMConfig",
    "UVMConfig",
    "MHPEConfig",
    "HPEConfig",
    "PatternBufferConfig",
    "SimConfig",
]


@dataclass(frozen=True)
class TLBConfig:
    """A set-associative TLB."""

    entries: int = 128
    associativity: int = 128  # L1 default: fully associative
    hit_latency: int = 1

    def __post_init__(self) -> None:
        if self.entries <= 0:
            raise ConfigError(f"TLB entries must be positive, got {self.entries}")
        if self.associativity <= 0 or self.entries % self.associativity != 0:
            raise ConfigError(
                f"associativity {self.associativity} must divide entries "
                f"{self.entries}"
            )
        if self.hit_latency < 0:
            raise ConfigError("hit_latency must be non-negative")

    @property
    def num_sets(self) -> int:
        return self.entries // self.associativity


@dataclass(frozen=True)
class PageWalkCacheConfig:
    """Shared page walk cache (caches upper-level page-table entries)."""

    size_bytes: int = 8 * 1024
    associativity: int = 16
    entry_bytes: int = 8
    latency: int = 10

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.entry_bytes <= 0:
            raise ConfigError("page walk cache sizes must be positive")
        if self.entries % self.associativity != 0:
            raise ConfigError("PWC associativity must divide entry count")

    @property
    def entries(self) -> int:
        return self.size_bytes // self.entry_bytes


@dataclass(frozen=True)
class WalkerConfig:
    """Highly-threaded page table walker."""

    concurrent_walks: int = 64
    levels: int = 4
    memory_access_latency: int = 160  # cycles per radix level fetched from DRAM

    def __post_init__(self) -> None:
        if self.concurrent_walks <= 0:
            raise ConfigError("walker must support at least one walk")
        if self.levels <= 0:
            raise ConfigError("page table must have at least one level")


@dataclass(frozen=True)
class TranslationConfig:
    """Two-level TLB hierarchy + walker (Fig. 1 of the paper)."""

    l1: TLBConfig = field(default_factory=TLBConfig)
    l2: TLBConfig = field(
        default_factory=lambda: TLBConfig(entries=512, associativity=16, hit_latency=10)
    )
    pwc: PageWalkCacheConfig = field(default_factory=PageWalkCacheConfig)
    walker: WalkerConfig = field(default_factory=WalkerConfig)
    enabled: bool = True  # disable to model an ideal-translation ablation
    #: Route walker memory accesses through the GDDR5 channel model instead
    #: of the flat per-level latency (Table I's DRAM row; opt-in).
    use_dram_model: bool = False


@dataclass(frozen=True)
class SMConfig:
    """Streaming multiprocessor execution model."""

    num_sms: int = 28
    compute_cycles_per_access: int = 4
    #: Replayable far faults: how many faulted accesses an SM can park while
    #: continuing to issue subsequent accesses (models other warps running).
    #: Four keeps the migration frontier's lead over the touch wavefront
    #: within the chunk chain's protected (new+middle) partitions, matching
    #: the paper's observation that MRU-with-forward-distance evictions of
    #: regular applications have untouch level ~0 (Table III).
    max_outstanding_faults: int = 4
    #: Max consecutive non-faulting accesses processed inside one event.
    burst_length: int = 64

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ConfigError("need at least one SM")
        if self.max_outstanding_faults <= 0:
            raise ConfigError("max_outstanding_faults must be positive")
        if self.burst_length <= 0:
            raise ConfigError("burst_length must be positive")


@dataclass(frozen=True)
class UVMConfig:
    """Unified-memory runtime (GMMU + host driver) parameters."""

    clock_hz: float = DEFAULT_CLOCK_HZ
    page_size: int = PAGE_SIZE_BYTES
    pages_per_chunk: int = PAGES_PER_CHUNK
    #: Interval length in *pages migrated* (paper: 64 = four chunk prefetches).
    interval_pages: int = 64
    fault_latency_cycles: int = us_to_cycles(20.0)
    interconnect_gbps: float = 16.0
    #: Fixed per-victim-chunk eviction overhead (unmap + TLB shootdown).
    eviction_overhead_cycles: int = 1000
    #: Number of fault-service operations the runtime can overlap.
    fault_parallelism: int = 1
    #: Distinct fault groups (chunks) one service op may drain from the
    #: fault buffer.  1 reproduces the paper's per-fault servicing; larger
    #: values model UVM batch processing of the fault buffer, amortising
    #: the 20 us base cost across chunks (ablation, not used by the paper).
    fault_batch_size: int = 1
    #: Fraction of accesses that dirty their page (writeback accounting).
    write_fraction: float = 0.3
    #: Crash model: a run whose chunk evictions exceed
    #: ``crash_eviction_budget_factor * footprint_chunks`` raises
    #: :class:`~repro.errors.ThrashingCrash`.  ``None`` disables it.
    crash_eviction_budget_factor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.pages_per_chunk <= 0:
            raise ConfigError("pages_per_chunk must be positive")
        if self.interval_pages % self.pages_per_chunk != 0:
            raise ConfigError(
                "interval_pages must be a whole number of chunks "
                f"({self.interval_pages} % {self.pages_per_chunk} != 0)"
            )
        if self.fault_parallelism <= 0:
            raise ConfigError("fault_parallelism must be positive")
        if self.fault_batch_size <= 0:
            raise ConfigError("fault_batch_size must be positive")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("write_fraction must be in [0, 1]")

    @property
    def page_transfer_cycles(self) -> int:
        return page_transfer_cycles(self.interconnect_gbps, self.clock_hz)

    @property
    def chunks_per_interval(self) -> int:
        return self.interval_pages // self.pages_per_chunk


@dataclass(frozen=True)
class MHPEConfig:
    """MHPE thresholds and knobs (Algorithm 1 + Section VI-A)."""

    #: Switch MRU -> LRU when one interval's total untouch level reaches T1.
    t1: int = 32
    #: Switch MRU -> LRU when the first four intervals' cumulative untouch
    #: level reaches T2 (checked once, at the end of the fourth interval).
    t2: int = 40
    #: Forward-distance growth limit.
    t3: int = 32
    #: Initial forward distance = clamp(chain_len // init_divisor, lo, hi).
    init_divisor: int = 100
    init_lo: int = 2
    init_hi: int = 8
    #: Evicted-chunk buffer length = max(min_buffer, buffer_unit *
    #: (chain_len // buffer_divisor)).
    buffer_divisor: int = 64
    buffer_unit: int = 8
    min_buffer: int = 8
    #: Disable to pin the forward distance at its initial value (used by the
    #: Section IV-B forward-distance sensitivity study).
    adjust_enabled: bool = True
    #: Disable to stay on MRU regardless of untouch level (used by the
    #: Table III/IV characterisation runs, which observe untouch under MRU).
    switch_enabled: bool = True

    def __post_init__(self) -> None:
        if not (0 < self.init_lo <= self.init_hi):
            raise ConfigError("need 0 < init_lo <= init_hi")
        if self.t1 <= 0 or self.t2 <= 0 or self.t3 <= 0:
            raise ConfigError("thresholds must be positive")


@dataclass(frozen=True)
class HPEConfig:
    """HPE (the prior, counter-based policy) knobs — see DESIGN.md dev. #1."""

    #: Counter threshold separating regular from irregular chunks.
    regular_counter_fraction: float = 0.75
    #: Number of intervals a strategy must underperform before switching.
    switch_patience: int = 2


@dataclass(frozen=True)
class PatternBufferConfig:
    """Access pattern-aware prefetcher's pattern buffer (Section IV-C)."""

    #: Record only evicted chunks with untouch level >= this (paper: 8,
    #: i.e. half a chunk).
    min_untouch_level: int = 8
    #: Deletion scheme: 1 = delete on any mismatch; 2 = delete only when the
    #: first lookup of the entry mismatches (paper adopts Scheme-2).
    deletion_scheme: int = 2
    #: Optional hard cap on entries (None = unbounded, as in the paper).
    max_entries: Optional[int] = None
    #: Record patterns only once the eviction strategy has switched to LRU
    #: (Section VI-C: "the buffer is used in limited cases").
    lru_only: bool = True

    def __post_init__(self) -> None:
        if self.deletion_scheme not in (1, 2):
            raise ConfigError("deletion_scheme must be 1 or 2")
        if self.min_untouch_level < 0:
            raise ConfigError("min_untouch_level must be non-negative")


@dataclass(frozen=True)
class SimConfig:
    """Top-level simulation configuration."""

    sm: SMConfig = field(default_factory=SMConfig)
    uvm: UVMConfig = field(default_factory=UVMConfig)
    translation: TranslationConfig = field(default_factory=TranslationConfig)
    mhpe: MHPEConfig = field(default_factory=MHPEConfig)
    hpe: HPEConfig = field(default_factory=HPEConfig)
    pattern_buffer: PatternBufferConfig = field(default_factory=PatternBufferConfig)
    seed: int = 0
    #: Simulation data-structure backend.  ``"array"`` (the default) is the
    #: flat-array fast path (``repro.memsim.array_backend``); ``"object"``
    #: is the reference implementation (per-page dicts, linked ChunkEntry
    #: objects), kept only as the differential oracle of
    #: ``tests/test_backend_differential.py`` and the pinned digests of
    #: ``tests/test_golden_digests.py``.  Because both backends produce
    #: identical results, ``backend`` is deliberately excluded from the
    #: cache fingerprints (:func:`repro.harness.cache.config_fingerprint`)
    #: so they share cached entries.
    backend: str = "array"

    def __post_init__(self) -> None:
        if self.backend not in ("object", "array"):
            raise ConfigError(
                f"backend must be 'object' or 'array', got {self.backend!r}"
            )

    def with_(self, **kwargs: Any) -> "SimConfig":
        """Return a copy with the given top-level fields replaced."""
        return replace(self, **kwargs)

    def make_rng(self) -> random.Random:
        """The simulation's seeded mechanism-layer RNG stream.

        Every stage of the memory system draws from this one injected
        instance (the seed is XOR-folded so policy-side streams seeded
        directly from ``seed`` stay decorrelated).  Constructing RNGs
        anywhere inside ``repro.memsim`` instead of here is a lint
        finding (REPRO106): the seed must flow from the config — and
        therefore through the cache content hash — not from ad-hoc
        constants scattered through mechanism code.
        """
        return random.Random(self.seed ^ 0x5EED)
