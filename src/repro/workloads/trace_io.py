"""Trace persistence and characterisation.

Supports the bring-your-own-trace workflow (see ``examples/custom_workload
.py``): traces captured from real applications (one virtual page index per
memory operation) can be stored compactly as ``.npz``, reloaded as
:class:`~repro.workloads.base.Workload` objects, down-sampled for quick
runs, and characterised — footprint, reuse, stride, working-set curve —
with the same vocabulary as the paper's Table II taxonomy.
"""

from __future__ import annotations

import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Union

import numpy as np

from ..errors import WorkloadError
from ..units import PAGES_PER_CHUNK
from .base import Workload

__all__ = [
    "save_trace",
    "load_trace",
    "downsample",
    "TraceProfile",
    "profile_trace",
]


def _npz_path(path: Path) -> Path:
    """The path ``np.savez`` actually writes for ``path``.

    Mirrors numpy's rule exactly — append ``.npz`` unless the *name string*
    already ends with it — using ``with_name`` rather than ``with_suffix``,
    so suffixless (``trace``), multi-dot (``trace.v1.2``) and trailing-dot
    (``trace.``) names all resolve to the real on-disk file instead of a
    re-derived guess (``with_suffix`` raises on trailing-dot names and
    *replaces* the last suffix instead of appending).
    """
    if path.name.endswith(".npz"):
        return path
    return path.with_name(path.name + ".npz")


def save_trace(workload: Workload, path: Union[str, Path]) -> Path:
    """Store a workload's trace as a compressed ``.npz``.

    Returns the path actually written: the on-disk target is computed
    *once* (:func:`_npz_path`) before writing and handed to numpy already
    carrying its ``.npz`` suffix, so the returned path can never drift
    from the file numpy created.
    """
    path = _npz_path(Path(path))
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        accesses=workload.accesses,
        writes=(workload.writes if workload.writes is not None
                else np.zeros(0, dtype=bool)),
        footprint_pages=np.int64(workload.footprint_pages),
        name=np.str_(workload.name),
        pattern_type=np.str_(workload.pattern_type),
        distribution=np.str_(workload.distribution),
    )
    return path


#: The arrays :func:`save_trace` writes, all of which :func:`load_trace` reads.
_TRACE_FIELDS = (
    "accesses", "writes", "footprint_pages", "name", "pattern_type",
    "distribution",
)


def load_trace(path: Union[str, Path]) -> Workload:
    """Load a workload previously written by :func:`save_trace`.

    Accepts either the exact path :func:`save_trace` returned or the
    original suffixless argument (the fallback applies the same
    ``.npz``-append rule the writer used).  A file that is not such an
    archive — not a zip, a missing or unreadable array, a non-integer
    ``footprint_pages`` — raises :class:`WorkloadError` naming the file and
    the field.
    """
    path = Path(path)
    if not path.exists() and _npz_path(path).exists():
        path = _npz_path(path)
    try:
        archive = np.load(path, allow_pickle=False)
    except (ValueError, zipfile.BadZipFile) as exc:
        raise WorkloadError(
            f"{path}: not a trace archive (.npz written by save_trace): {exc}"
        ) from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise WorkloadError(
            f"{path}: not a trace archive (.npz written by save_trace): "
            "it holds a single .npy array"
        )
    fields: Dict[str, np.ndarray] = {}
    with archive as data:
        for field in _TRACE_FIELDS:
            try:
                fields[field] = data[field]
            except KeyError:
                raise WorkloadError(
                    f"{path}: trace archive has no {field!r} array"
                ) from None
            except (ValueError, zipfile.BadZipFile) as exc:
                raise WorkloadError(
                    f"{path}: cannot read the {field!r} array: {exc}"
                ) from exc
    footprint = fields["footprint_pages"]
    if footprint.shape != () or not np.issubdtype(footprint.dtype, np.integer):
        raise WorkloadError(
            f"{path}: 'footprint_pages' must be an integer scalar, got "
            f"{footprint.dtype} array of shape {footprint.shape}"
        )
    writes = fields["writes"]
    return Workload(
        name=str(fields["name"]),
        pattern_type=str(fields["pattern_type"]),
        footprint_pages=int(footprint),
        accesses=fields["accesses"],
        writes=writes if writes.size else None,
        distribution=str(fields["distribution"]),
    )


def downsample(workload: Workload, factor: int) -> Workload:
    """Keep every ``factor``-th access (quick-look runs on huge traces).

    Down-sampling preserves the *ordering* and rough shape of a pattern but
    thins reuse, so treat results as qualitative.
    """
    if factor <= 0:
        raise WorkloadError(f"factor must be positive, got {factor}")
    if factor == 1:
        return workload
    accesses = workload.accesses[::factor]
    if accesses.size == 0:
        raise WorkloadError("downsampling removed every access")
    return Workload(
        name=f"{workload.name}/ds{factor}",
        pattern_type=workload.pattern_type,
        footprint_pages=workload.footprint_pages,
        accesses=accesses,
        writes=None if workload.writes is None else workload.writes[::factor],
        distribution=workload.distribution,
        description=f"{workload.description} (1/{factor} sampled)",
    )


@dataclass(frozen=True)
class TraceProfile:
    """Characterisation of one trace."""

    name: str
    num_accesses: int
    footprint_pages: int
    unique_pages: int
    touches_per_page_mean: float
    #: Fraction of accesses whose page was seen before (any distance).
    reuse_fraction: float
    #: Most common non-zero |stride| between consecutive accesses.
    dominant_stride: int
    #: Fraction of consecutive-access strides equal to the dominant one.
    dominant_stride_fraction: float
    #: Chunk-level coverage: mean fraction of each touched chunk's pages
    #: that are touched (low => pattern-prefetch opportunity).
    chunk_coverage_mean: float
    #: Unique pages in each quarter of the trace (working-set drift).
    quarter_working_sets: tuple

    def summary(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "accesses": self.num_accesses,
            "footprint": self.footprint_pages,
            "unique_pages": self.unique_pages,
            "touches/page": round(self.touches_per_page_mean, 2),
            "reuse": round(self.reuse_fraction, 3),
            "stride": self.dominant_stride,
            "stride_frac": round(self.dominant_stride_fraction, 3),
            "chunk_coverage": round(self.chunk_coverage_mean, 3),
        }


def profile_trace(workload: Workload) -> TraceProfile:
    """Compute a :class:`TraceProfile` (vectorised; fine for 1M accesses).

    A zero-access trace (e.g. one filtered/truncated to nothing after
    construction) profiles to all-zero statistics instead of crashing on
    ``min()`` / ``mean()`` of empty arrays.
    """
    acc = workload.accesses
    if acc.size == 0:
        return TraceProfile(
            name=workload.name,
            num_accesses=0,
            footprint_pages=workload.footprint_pages,
            unique_pages=0,
            touches_per_page_mean=0.0,
            reuse_fraction=0.0,
            dominant_stride=0,
            dominant_stride_fraction=0.0,
            chunk_coverage_mean=0.0,
            quarter_working_sets=(),
        )
    unique, counts = np.unique(acc, return_counts=True)

    # Reuse: accesses beyond each page's first occurrence.
    reuse_fraction = float((acc.size - unique.size) / acc.size) if acc.size else 0.0

    # Dominant stride among consecutive accesses.
    if acc.size > 1:
        strides = np.abs(np.diff(acc))
        strides = strides[strides > 0]
        if strides.size:
            vals, n = np.unique(strides, return_counts=True)
            idx = int(np.argmax(n))
            dominant = int(vals[idx])
            dominant_frac = float(n[idx] / strides.size)
        else:
            dominant, dominant_frac = 0, 0.0
    else:
        dominant, dominant_frac = 0, 0.0

    # Chunk coverage.
    chunk_ids = unique // PAGES_PER_CHUNK
    touched_per_chunk = np.bincount(chunk_ids - chunk_ids.min())
    touched_per_chunk = touched_per_chunk[touched_per_chunk > 0]
    coverage = float(np.mean(touched_per_chunk) / PAGES_PER_CHUNK)

    quarters = np.array_split(acc, 4)
    quarter_ws = tuple(int(np.unique(q).size) for q in quarters if q.size)

    return TraceProfile(
        name=workload.name,
        num_accesses=int(acc.size),
        footprint_pages=workload.footprint_pages,
        unique_pages=int(unique.size),
        touches_per_page_mean=float(np.mean(counts)),
        reuse_fraction=reuse_fraction,
        dominant_stride=dominant,
        dominant_stride_fraction=dominant_frac,
        chunk_coverage_mean=coverage,
        quarter_working_sets=quarter_ws,
    )
