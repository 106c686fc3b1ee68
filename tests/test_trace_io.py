"""Trace persistence and characterisation (repro.workloads.trace_io)."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.workloads.suite import make_workload
from repro.workloads.trace_io import (
    downsample,
    load_trace,
    profile_trace,
    save_trace,
)

from conftest import make_simple_workload


class TestSaveLoad:
    def test_roundtrip(self, tmp_path):
        wl = make_workload("NW", scale=0.25)
        path = tmp_path / "nw.npz"
        save_trace(wl, path)
        loaded = load_trace(path)
        assert loaded.name == wl.name
        assert loaded.pattern_type == wl.pattern_type
        assert loaded.footprint_pages == wl.footprint_pages
        assert np.array_equal(loaded.accesses, wl.accesses)
        assert np.array_equal(loaded.writes, wl.writes)

    def test_roundtrip_without_writes(self, tmp_path):
        wl = make_simple_workload()
        path = save_trace(wl, tmp_path / "t.npz")
        loaded = load_trace(path)
        assert loaded.writes is None

    def test_loaded_trace_simulates_identically(self, tmp_path):
        from repro.config import SimConfig, SMConfig
        from repro.engine.simulator import Simulator

        cfg = SimConfig(sm=SMConfig(num_sms=4))
        wl = make_workload("STN", scale=0.5)
        save_trace(wl, tmp_path / "stn.npz")
        a = Simulator(make_workload("STN", scale=0.5),
                      oversubscription=0.5, config=cfg).run()
        b = Simulator(load_trace(tmp_path / "stn.npz"),
                      oversubscription=0.5, config=cfg).run()
        assert a.total_cycles == b.total_cycles


class TestReturnPathParity:
    """Regression: ``save_trace`` returns the path numpy actually wrote.

    ``np.savez_compressed`` appends ``.npz`` unless the *name* already ends
    with it.  The old return path re-derived that with ``with_suffix``,
    which *replaces* the final suffix of multi-dot names and raises
    ``ValueError`` on trailing-dot names — so the returned path could point
    at a file that does not exist.
    """

    def test_suffixless_name(self, tmp_path):
        returned = save_trace(make_simple_workload(), tmp_path / "trace")
        assert returned.name == "trace.npz"
        assert returned.exists()
        load_trace(returned)

    def test_multi_dot_name(self, tmp_path):
        # with_suffix would have returned "model.npz" (replacing ".v2"),
        # while numpy writes "model.v2.npz".
        returned = save_trace(make_simple_workload(), tmp_path / "model.v2")
        assert returned.name == "model.v2.npz"
        assert returned.exists()
        load_trace(returned)

    def test_trailing_dot_name(self, tmp_path):
        # with_suffix raises ValueError on "trace."; numpy happily writes
        # "trace..npz".
        returned = save_trace(make_simple_workload(), tmp_path / "trace.")
        assert returned.name == "trace..npz"
        assert returned.exists()
        load_trace(returned)

    def test_hidden_file_name(self, tmp_path):
        returned = save_trace(make_simple_workload(), tmp_path / ".trace")
        assert returned.name == ".trace.npz"
        assert returned.exists()

    def test_explicit_npz_unchanged(self, tmp_path):
        returned = save_trace(make_simple_workload(), tmp_path / "t.npz")
        assert returned == tmp_path / "t.npz"

    def test_load_accepts_original_suffixless_argument(self, tmp_path):
        wl = make_simple_workload()
        save_trace(wl, tmp_path / "trace")
        loaded = load_trace(tmp_path / "trace")  # fallback appends .npz
        assert np.array_equal(loaded.accesses, wl.accesses)

    def test_every_returned_path_round_trips(self, tmp_path):
        wl = make_simple_workload()
        for name in ("plain", "a.b.c", "dotty.", ".hidden", "x.npz"):
            returned = save_trace(wl, tmp_path / name)
            assert returned.exists(), name
            assert np.array_equal(load_trace(returned).accesses, wl.accesses)


class TestMalformedTraceFiles:
    """load_trace names the file and the field for a malformed archive."""

    def _saved_fields(self, tmp_path):
        path = save_trace(make_simple_workload(footprint=64), tmp_path / "t.npz")
        with np.load(path) as data:
            return {name: data[name] for name in data.files}

    def test_non_zip_file(self, tmp_path):
        path = tmp_path / "notes.npz"
        path.write_text("not a trace\n")
        with pytest.raises(WorkloadError, match="notes.npz: not a trace archive"):
            load_trace(path)

    def test_missing_array(self, tmp_path):
        fields = self._saved_fields(tmp_path)
        del fields["writes"]
        path = tmp_path / "partial.npz"
        np.savez(path, **fields)
        with pytest.raises(WorkloadError, match="partial.npz: .*'writes'"):
            load_trace(path)

    def test_non_integer_footprint(self, tmp_path):
        fields = self._saved_fields(tmp_path)
        fields["footprint_pages"] = np.str_("many")
        path = tmp_path / "badfoot.npz"
        np.savez(path, **fields)
        with pytest.raises(WorkloadError, match="badfoot.npz: 'footprint_pages'"):
            load_trace(path)


class TestDownsample:
    def test_keeps_every_nth(self):
        wl = make_simple_workload()
        ds = downsample(wl, 4)
        assert ds.num_accesses == -(-wl.num_accesses // 4)
        assert np.array_equal(ds.accesses, wl.accesses[::4])
        assert ds.name.endswith("/ds4")

    def test_factor_one_is_identity(self):
        wl = make_simple_workload()
        assert downsample(wl, 1) is wl

    def test_invalid_factor(self):
        with pytest.raises(WorkloadError):
            downsample(make_simple_workload(), 0)


class TestProfile:
    def test_streaming_profile(self):
        wl = make_workload("2DC", scale=0.25)  # sequential, 2 touches/page
        p = profile_trace(wl)
        assert p.dominant_stride in (0, 1)
        assert p.touches_per_page_mean == pytest.approx(2.0)
        assert p.chunk_coverage_mean == pytest.approx(1.0)
        assert p.reuse_fraction == pytest.approx(0.5)

    def test_strided_profile_shows_low_chunk_coverage(self):
        wl = make_workload("MVT", scale=0.25)  # stride 4 per phase
        p = profile_trace(wl)
        # First phase touches every 4th page: unique/footprint ~ 1/2 over
        # two phases, and per-phase chunk coverage is low.
        assert p.dominant_stride == 4
        assert p.dominant_stride_fraction > 0.5

    def test_thrashing_profile_high_reuse(self):
        wl = make_workload("STN", scale=0.5)  # 16 sweeps
        p = profile_trace(wl)
        assert p.reuse_fraction > 0.9
        assert p.unique_pages == wl.footprint_pages

    def test_region_moving_working_set_drift(self):
        wl = make_workload("HYB", scale=0.25)
        p = profile_trace(wl)
        # Each quarter sees only part of the footprint.
        assert max(p.quarter_working_sets) < p.unique_pages

    def test_summary_keys(self):
        p = profile_trace(make_simple_workload())
        s = p.summary()
        for key in ("accesses", "footprint", "reuse", "stride", "chunk_coverage"):
            assert key in s


class TestDegenerateTraces:
    """Regression: profiling must not crash on empty or near-empty traces
    (e.g. an externally produced ``.npz`` or an aggressive downsample)."""

    def test_empty_trace_profiles_to_zeros(self):
        wl = make_simple_workload(footprint=256)
        wl.accesses = np.zeros(0, dtype=np.int64)  # post-init: bypass guard
        p = profile_trace(wl)
        assert p.num_accesses == 0
        assert p.unique_pages == 0
        assert p.footprint_pages == 256
        assert p.touches_per_page_mean == 0.0
        assert p.reuse_fraction == 0.0
        assert p.dominant_stride == 0
        assert p.dominant_stride_fraction == 0.0
        assert p.chunk_coverage_mean == 0.0
        assert p.quarter_working_sets == ()
        p.summary()  # renders without dividing by zero

    def test_single_access_profile(self):
        wl = make_simple_workload(footprint=64, accesses=[7])
        p = profile_trace(wl)
        assert p.num_accesses == 1
        assert p.unique_pages == 1
        assert p.reuse_fraction == 0.0
        assert p.dominant_stride == 0

    def test_downsample_to_minimum_then_profile(self):
        # Downsampling a trace to a single access must stay profileable.
        wl = make_simple_workload(footprint=256)
        thin = downsample(wl, wl.accesses.size)
        assert thin.accesses.size == 1
        p = profile_trace(thin)
        assert p.num_accesses == 1
        assert p.dominant_stride_fraction == 0.0
