"""Persistent result cache correctness (repro.harness.cache).

Covers hit/miss accounting, key sensitivity to every RunSpec and SimConfig
field, corruption tolerance (corrupted or truncated entries are misses, not
crashes), schema-version invalidation, and the run_one / clear_cache
integration that the test-isolation fixture relies on.
"""

import dataclasses
import pickle
import shutil

import pytest

from repro.config import (
    MHPEConfig,
    SimConfig,
    SMConfig,
    TranslationConfig,
    UVMConfig,
)
from repro.harness import cache as cache_mod
from repro.harness.cache import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    config_fingerprint,
    spec_fingerprint,
)
from repro.harness.experiment import (
    RunSpec,
    _seed_memo,
    clear_cache,
    execution_count,
    run_one,
    submit_batch,
)

FAST = SimConfig(sm=SMConfig(num_sms=4))
SPEC = RunSpec("STN", "baseline", 0.5, scale=0.25)


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")


@pytest.fixture
def result():
    return run_one(SPEC, config=FAST, use_cache=False)


class TestAccounting:
    def test_miss_then_hit(self, cache, result):
        assert cache.get(SPEC, FAST) is None
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(SPEC, FAST, result)
        assert cache.stores == 1
        loaded = cache.get(SPEC, FAST)
        assert loaded is not None
        assert (cache.hits, cache.misses) == (1, 1)
        assert dataclasses.asdict(loaded) == dataclasses.asdict(result)

    def test_stats_snapshot(self, cache, result):
        cache.put(SPEC, FAST, result)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["schema_version"] == CACHE_SCHEMA_VERSION

    def test_clear_removes_entries(self, cache, result):
        cache.put(SPEC, FAST, result)
        cache.put(dataclasses.replace(SPEC, app="NW"), FAST, result)
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0
        assert cache.get(SPEC, FAST) is None

    def test_clear_on_missing_root_is_noop(self, tmp_path):
        assert ResultCache(tmp_path / "never-created").clear() == 0


class TestKeySensitivity:
    @pytest.mark.parametrize(
        "change",
        [
            {"app": "NW"},
            {"setup": "cppe"},
            {"oversubscription": 0.75},
            {"oversubscription": None},
            {"scale": 0.5},
            {"seed": 1},
            {"crash_budget_factor": 2.0},
        ],
    )
    def test_any_runspec_field_changes_the_key(self, change):
        base = spec_fingerprint(SPEC, FAST)
        assert spec_fingerprint(dataclasses.replace(SPEC, **change), FAST) != base

    @pytest.mark.parametrize(
        "config",
        [
            SimConfig(sm=SMConfig(num_sms=8)),
            SimConfig(sm=SMConfig(num_sms=4), seed=1),
            SimConfig(sm=SMConfig(num_sms=4), uvm=UVMConfig(write_fraction=0.5)),
            SimConfig(sm=SMConfig(num_sms=4), mhpe=MHPEConfig(t1=16)),
            SimConfig(
                sm=SMConfig(num_sms=4),
                translation=TranslationConfig(enabled=False),
            ),
        ],
    )
    def test_any_simconfig_field_changes_the_key(self, config):
        assert spec_fingerprint(SPEC, config) != spec_fingerprint(SPEC, FAST)

    def test_none_config_equals_explicit_default(self):
        assert spec_fingerprint(SPEC, None) == spec_fingerprint(SPEC, SimConfig())
        assert config_fingerprint(None) == config_fingerprint(SimConfig())
        # The default's key is memoized; a non-default config keeps its own.
        assert config_fingerprint(SimConfig(seed=7)) != config_fingerprint(None)
        assert spec_fingerprint(SPEC, SimConfig(seed=7)) != spec_fingerprint(SPEC)

    def test_schema_version_changes_the_key(self):
        assert spec_fingerprint(SPEC, FAST, schema_version=2) != spec_fingerprint(
            SPEC, FAST, schema_version=1
        )


class TestCorruptionTolerance:
    def _entry_path(self, cache, result):
        cache.put(SPEC, FAST, result)
        return cache.path_for(cache.key_for(SPEC, FAST))

    def test_corrupted_entry_is_a_miss_and_removed(self, cache, result):
        path = self._entry_path(cache, result)
        path.write_bytes(b"\x80not a pickle at all")
        assert cache.get(SPEC, FAST) is None
        assert cache.misses == 1
        assert not path.exists()

    def test_truncated_entry_is_a_miss(self, cache, result):
        path = self._entry_path(cache, result)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        assert cache.get(SPEC, FAST) is None
        assert cache.misses == 1

    def test_empty_entry_is_a_miss(self, cache, result):
        path = self._entry_path(cache, result)
        path.write_bytes(b"")
        assert cache.get(SPEC, FAST) is None

    def test_wrong_payload_type_is_a_miss(self, cache, result):
        path = self._entry_path(cache, result)
        path.write_bytes(pickle.dumps(["not", "a", "payload"]))
        assert cache.get(SPEC, FAST) is None

    def test_entry_under_wrong_key_is_a_miss(self, cache, result):
        """A valid payload stored under a different key (e.g. a stale hash
        function) must fail the embedded-key check."""
        path = self._entry_path(cache, result)
        other = dataclasses.replace(SPEC, app="NW")
        other_path = cache.path_for(cache.key_for(other, FAST))
        other_path.parent.mkdir(parents=True, exist_ok=True)
        shutil.copy(path, other_path)
        assert cache.get(other, FAST) is None


class TestSchemaInvalidation:
    def test_bump_invalidates_old_entries(self, tmp_path, result):
        root = tmp_path / "cache"
        v1 = ResultCache(root, schema_version=1)
        v1.put(SPEC, FAST, result)
        v2 = ResultCache(root, schema_version=2)
        assert v2.get(SPEC, FAST) is None  # old entry unreachable
        v2.put(SPEC, FAST, result)
        assert v2.get(SPEC, FAST) is not None
        assert v1.get(SPEC, FAST) is not None  # both versions coexist on disk

    def test_stats_scoped_to_own_schema(self, tmp_path, result):
        # Regression: stats() used to glob every entry under the root, so a
        # schema bump silently inflated entries/bytes with unreachable data.
        root = tmp_path / "cache"
        v1 = ResultCache(root, schema_version=1)
        v1.put(SPEC, FAST, result)
        v1.put(dataclasses.replace(SPEC, app="NW"), FAST, result)
        v2 = ResultCache(root, schema_version=2)
        v2.put(SPEC, FAST, result)
        stats = v2.stats()
        assert stats["entries"] == 1
        assert stats["stale_entries"] == 2
        assert stats["stale_bytes"] > 0
        v1_stats = v1.stats()
        assert v1_stats["entries"] == 2
        assert v1_stats["stale_entries"] == 1

    def test_unreadable_entry_counts_as_stale(self, tmp_path, result):
        root = tmp_path / "cache"
        cache = ResultCache(root, schema_version=1)
        cache.put(SPEC, FAST, result)
        junk = next(iter(root.rglob("*.pkl"))).with_name("junk.pkl")
        junk.write_bytes(b"not a pickle")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["stale_entries"] == 1

    def test_clear_spares_other_schema_generations(self, tmp_path, result):
        # Regression: clear() used to delete every generation, so clearing
        # after a bump destroyed entries a rolled-back checkout still needs.
        root = tmp_path / "cache"
        v1 = ResultCache(root, schema_version=1)
        v1.put(SPEC, FAST, result)
        v2 = ResultCache(root, schema_version=2)
        v2.put(SPEC, FAST, result)
        assert v2.clear() == 1
        assert v2.get(SPEC, FAST) is None
        assert v1.get(SPEC, FAST) is not None  # v1 generation untouched
        assert v1.clear() == 1


class TestRunOneIntegration:
    def test_disk_hit_after_memo_cleared(self):
        active = cache_mod.get_active_cache()  # per-test tmp dir (conftest)
        before = execution_count()
        first = run_one(SPEC, config=FAST)
        assert execution_count() == before + 1
        assert active.stores == 1

        clear_cache(disk=False)  # fresh-process simulation: memo gone
        second = run_one(SPEC, config=FAST)
        assert execution_count() == before + 1  # served from disk
        assert active.hits == 1
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_memo_hit_does_not_touch_disk(self):
        active = cache_mod.get_active_cache()
        run_one(SPEC, config=FAST)
        lookups = active.hits + active.misses
        run_one(SPEC, config=FAST)
        assert active.hits + active.misses == lookups

    def test_use_cache_false_bypasses_both_layers(self):
        active = cache_mod.get_active_cache()
        before = execution_count()
        a = run_one(SPEC, config=FAST, use_cache=False)
        b = run_one(SPEC, config=FAST, use_cache=False)
        assert a is not b
        assert execution_count() == before + 2
        assert active.stores == 0 and active.hits == 0 and active.misses == 0

    def test_cache_none_skips_disk_but_memoises(self):
        active = cache_mod.get_active_cache()
        a = run_one(SPEC, config=FAST, cache=None)
        b = run_one(SPEC, config=FAST, cache=None)
        assert a is b
        assert active.stores == 0

    def test_clear_cache_empties_disk_too(self):
        active = cache_mod.get_active_cache()
        run_one(SPEC, config=FAST)
        assert active.stats()["entries"] == 1
        clear_cache()  # disk=True by default
        assert active.stats()["entries"] == 0
        before = execution_count()
        run_one(SPEC, config=FAST)
        assert execution_count() == before + 1  # really re-simulated

    def test_equivalent_configs_share_one_entry(self):
        active = cache_mod.get_active_cache()
        run_one(SPEC)  # config=None -> defaults
        clear_cache(disk=False)
        before = execution_count()
        run_one(SPEC, config=SimConfig())  # explicit defaults, same content
        assert execution_count() == before
        assert active.hits == 1


class TestFingerprintOncePerBatch:
    """A batch fingerprints its config once, not once per spec, and the
    default config (``None``) is fingerprinted once per process."""

    @pytest.fixture
    def hashed(self, monkeypatch):
        """Every payload serialized for a fingerprint, in call order."""
        calls = []
        real = cache_mod._canonical_json

        def counting(payload):
            calls.append(payload)
            return real(payload)

        monkeypatch.setattr(cache_mod, "_canonical_json", counting)
        return calls

    def test_one_config_fingerprint_per_batch(self, hashed):
        other = dataclasses.replace(SPEC, setup="cppe")
        specs = [SPEC, other, SPEC, other]
        _, stats = submit_batch(specs, config=FAST, cache=None)
        assert stats.simulated == 2
        assert len(hashed) == 1
        _, stats = submit_batch(specs, config=FAST, cache=None)
        assert stats.memo_hits == 2
        assert len(hashed) == 2

    def test_default_config_fingerprinted_once_per_process(self, hashed, result):
        cache_mod._default_config_fingerprint.cache_clear()
        specs = [SPEC, dataclasses.replace(SPEC, setup="cppe")]
        for spec in specs:  # any result will do: only the keys are counted
            _seed_memo(spec, None, result)
        assert len(hashed) == 1
        for _ in range(3):
            resolved, stats = submit_batch(specs, cache=None)
            assert stats.memo_hits == 2 and stats.simulated == 0
            assert all(r is result for r in resolved.values())
        assert len(hashed) == 1

    def test_default_payload_reused_by_spec_fingerprint(self, hashed):
        spec_fingerprint(SPEC)
        spec_fingerprint(dataclasses.replace(SPEC, setup="cppe"))
        assert hashed[0]["config"] is hashed[1]["config"]
        assert hashed[0]["config"] == dataclasses.asdict(SimConfig())

    def test_equal_but_differently_typed_configs_keep_their_own_keys(self):
        # 1 == 1.0 and hash(1) == hash(1.0), but they serialize differently:
        # a cache keyed on SimConfig equality would hand one the other's key.
        as_int = SimConfig(uvm=UVMConfig(write_fraction=0))
        as_float = SimConfig(uvm=UVMConfig(write_fraction=0.0))
        assert as_int == as_float and hash(as_int) == hash(as_float)
        assert config_fingerprint(as_int) != config_fingerprint(as_float)
        assert spec_fingerprint(SPEC, as_int) != spec_fingerprint(SPEC, as_float)
