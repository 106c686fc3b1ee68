"""Self-tests of the benchmark's own logic (not of the program).

    python3 -m pytest perfbench/tests -q

Run from the repository root.  They need no simulation: each check feeds
the benchmark's functions small synthetic inputs.
"""

from __future__ import annotations

import cProfile
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import benchlib  # noqa: E402
import run  # noqa: E402

BENCH = benchlib.load_benchmark(ROOT)


# --- percentile rule ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, tail", [(19, None), (20, 50), (99, 89), (100, 90), (138, 92), (1000, 99)]
)
def test_tail_percentile_keeps_ten_samples_beyond(n, tail):
    assert benchlib.tail_percentile(n) == tail
    if tail is not None:
        samples = list(range(1, n + 1))
        value = benchlib.percentile(samples, tail)
        assert sum(s > value for s in samples) >= benchlib.TAIL_SAMPLES
        # ...and it is the highest such whole percentile.
        higher = benchlib.percentile(samples, tail + 1)
        assert sum(s > higher for s in samples) < benchlib.TAIL_SAMPLES


def test_p90_refused_below_one_hundred_samples():
    with pytest.raises(ValueError, match="p90 needs 100 samples, have 99"):
        benchlib.checked_percentile([1.0] * 99, 90)
    assert benchlib.checked_percentile(list(range(100)), 90) == 89


def test_tail_note_reports_the_sample_count():
    assert benchlib.tail_note([0.001] * 250) == "250 samples; tail p96 = 1.000 ms"
    assert "too few" in benchlib.tail_note([0.001] * 5)


# --- metric names and units ----------------------------------------------------


def _names(kind):
    return [m["name"] for m in BENCH[kind]]


def _cold_pass(wall, slowdown=1.0):
    """A pass run on a host ``slowdown`` times slower than nominal."""
    results = {
        f"A/{setup}": {
            "pair": "A@0.5",
            "setup": setup,
            "counts": {"accesses": 10, "total_cycles": cycles},
        }
        for setup, cycles in (("baseline", 200), ("cppe", 100))
    }
    return {"wall_s": wall, "spec_s": [wall / 2] * 50,
            "slowdowns": [slowdown] * 50,
            "results": results, "peak_rss_mb": 50.0}


def test_cold_metrics_are_the_end_to_end_metrics():
    metrics = run.cold_metrics([_cold_pass(1.0), _cold_pass(1.2)], [0.3] * 5)
    assert list(metrics) == _names("end_to_end")
    assert metrics["cppe_speedup"] == pytest.approx(2.0)
    assert all(value > 0 for value in metrics.values())


def test_cold_times_are_normalized_by_their_own_pass():
    # The same work on a host twice as slow: normalized times agree.
    metrics = run.cold_metrics([_cold_pass(1.0), _cold_pass(2.0, slowdown=2.0)], [0.3] * 5)
    assert metrics["wall_s"] == pytest.approx(1.0)
    assert metrics["rt_p50_ms"] == pytest.approx(500.0)
    assert metrics["batches_per_s"] == pytest.approx(1.0)


def test_host_factor_is_one_over_the_mean_slowdown(tmp_path):
    assert benchlib.host_factor([2.0] * 5) == pytest.approx(0.5)
    # Slow for half the pass: the factor weighs both halves alike.
    assert benchlib.host_factor([1.0] * 4 + [3.0] * 4) == pytest.approx(0.5)
    assert benchlib.slowdown() > 0
    assert benchlib.slowdown(tmp_path) > 0
    assert list(tmp_path.iterdir()) == []  # the file yardstick cleans up


def test_each_sample_is_normalized_by_the_slowdowns_nearest_to_it():
    # The host halves its speed halfway through: every sample's work is the
    # same, and only the nearest slowdowns say so at the change.
    samples = [1.0] * 10 + [2.0] * 10
    normalized = benchlib.normalize(samples, [1.0] * 10 + [2.0] * 10)
    assert normalized[:8] == pytest.approx([1.0] * 8)
    assert normalized[12:] == pytest.approx([1.0] * 8)
    with pytest.raises(ValueError):
        benchlib.normalize([1.0], [])


def test_service_metrics_are_the_end_to_end_metrics():
    loop = {"rts": [0.005] * 100, "accesses": 1000,
            "cycles": {("A@0.5", "baseline"): 300, ("A@0.5", "cppe"): 100}}
    metrics = run.service_metrics(loop, [0.3] * 5, 50.0, pool_specs=92)
    assert list(metrics) == _names("end_to_end")
    assert metrics["wall_s"] == pytest.approx(0.005 * 23)
    assert all(value > 0 for value in metrics.values())


def _profile(tmp_path):
    """A real cProfile of a little repro code (no simulation)."""
    from repro.config import SimConfig

    prof = cProfile.Profile()
    prof.enable()
    SimConfig().make_rng().random()
    prof.disable()
    path = tmp_path / "tiny.prof"
    prof.dump_stats(str(path))
    return path


def test_layer_metrics_are_the_per_layer_metrics(tmp_path):
    counts = {name: 1 for name in benchlib.COUNT_FIELDS}
    outcome = run.Outcome()
    metrics = run.layer_metrics(
        _profile(tmp_path), [counts], {"simulated": 0, "memo_hits": 1, "cache_hits": 1},
        {"queue_wait": [0.001], "run": [0.002], "transport": [0.003]},
        overhead_s=0.1, outcome=outcome,
    )
    assert outcome.problems == []
    assert sorted(metrics) == sorted(_names("per_layer"))


def test_report_prints_every_metric_with_its_benchmark_unit():
    outcome = run.Outcome()
    outcome.attempted = 3
    units = benchlib.metric_units(BENCH, "end_to_end")
    outcome.metrics = {name: 1.5 for name in units}
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.report(outcome, units)
    last = json.loads(buf.getvalue().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True
    assert {k: v["unit"] for k, v in last["metrics"].items()} == units


def test_report_refuses_a_metric_missing_from_the_output():
    outcome = run.Outcome()
    outcome.attempted = 1
    units = benchlib.metric_units(BENCH, "end_to_end")
    outcome.metrics = {name: 1.5 for name in list(units)[1:]}
    with redirect_stdout(io.StringIO()) as buf:
        run.report(outcome, units)
    assert json.loads(buf.getvalue().splitlines()[-1])["correct"] is False


# --- service timer -------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class FakeClient:
    """Streams two progress events and a terminal one; the clock moves on
    every event.  It has no ``status``/``wait``: polling would raise."""

    def __init__(self, clock, events):
        self.clock = clock
        self.script = events
        self.follow = None

    def submit(self, payload):
        self.clock.now += 0.001
        return {"job": "b-1"}

    def events(self, job, follow=False):
        self.follow = follow
        for kind in self.script:
            self.clock.now += 0.010
            yield {"kind": kind, "job": job}
        # A stream that kept going would move the clock past the terminal
        # event; the timer must not see this.
        self.clock.now += 5.0
        yield {"kind": "spec_outcome", "job": job}


def test_service_timer_stops_on_the_terminal_event():
    clock = FakeClock()
    client = FakeClient(clock, ["started", "progress", "done"])
    job, kind, seconds = benchlib.round_trip(client, {"specs": []}, clock=clock)
    assert (job, kind) == ("b-1", "done")
    assert seconds == pytest.approx(0.031)
    assert client.follow is True


def test_service_timer_rejects_a_stream_without_terminal_event():
    clock = FakeClock()
    client = FakeClient(clock, [])
    client.events = lambda job, follow=False: iter([{"kind": "progress"}])
    with pytest.raises(RuntimeError, match="without a terminal event"):
        benchlib.round_trip(client, {"specs": []}, clock=clock)


# --- digests -----------------------------------------------------------------


def test_digest_ignores_dict_ordering():
    a = {"b": {"y": 2, "x": [1, {"q": 1.5, "p": None}]}, "a": 1}
    b = {"a": 1, "b": {"x": [1, {"p": None, "q": 1.5}], "y": 2}}
    assert benchlib.digest(a) == benchlib.digest(b)
    assert benchlib.digest(a) != benchlib.digest({**a, "a": 2})


def test_result_digest_covers_stats_and_ignores_ordering():
    from repro.engine.simulator import SimulationResult
    from repro.engine.stats import SimStats

    def result(order, crashed=False, accesses=7):
        stats = SimStats(accesses=accesses)
        for sm in order:
            stats.sm_finish_times[sm] = 100 + sm
        return SimulationResult("NW", "I", "lru", "locality", 0.5, 10, 20,
                                stats=stats, crashed=crashed)

    base = benchlib.result_digest(result([0, 1, 2]))
    assert benchlib.result_digest(result([2, 0, 1])) == base
    assert benchlib.result_digest(result([0, 1, 2], crashed=True)) != base
    assert benchlib.result_digest(result([0, 1, 2], accesses=8)) != base


def test_pinned_digests_cover_every_workload_spec():
    pinned = benchlib.load_pinned_digests()
    assert sorted(pinned) == sorted(run.WORKLOADS)
    assert [len(pinned[w]) for w in run.WORKLOADS] == [46, 46, 92]


# --- layer map -------------------------------------------------------------


def test_checked_in_layer_map_is_current():
    layers, layer_map = benchlib.load_layer_map()
    index = benchlib.SourceIndex(ROOT / "src")
    assert benchlib.stale_map_entries(layer_map, index) == []
    assert set(layer_map.values()) <= set(layers)
    assert set(layers) >= {n.split(".")[0] for n in _names("per_layer")} - {
        "sim", "translation", "trace"
    }


def test_stale_map_entries_are_reported():
    layers, layer_map = benchlib.load_layer_map()
    index = benchlib.SourceIndex(ROOT / "src")
    layer_map = {
        **layer_map,
        "repro.memsim.system:EvictionService.no_such_method": "eviction",
        "repro.memsim.no_such_module": "structures",
        "no_such_outside_module": "service",
    }
    assert benchlib.stale_map_entries(layer_map, index) == [
        "no_such_outside_module",
        "repro.memsim.no_such_module",
        "repro.memsim.system:EvictionService.no_such_method",
    ]


def test_layer_of_prefers_the_longest_entry():
    layer_map = {
        "repro.memsim.system:MemorySystem": "structures",
        "repro.memsim.system:MemorySystem.handle_fault": "frontend",
        "repro.harness": "harness",
        "repro.harness.cache": "cache",
    }
    assert benchlib.layer_of(layer_map, "repro.memsim.system", "MemorySystem.handle_fault") == "frontend"
    assert benchlib.layer_of(layer_map, "repro.memsim.system", "MemorySystem.touch_page") == "structures"
    assert benchlib.layer_of(layer_map, "repro.harness.cache", "ResultCache.get") == "cache"
    assert benchlib.layer_of(layer_map, "repro.harness.parallel", "ParallelRunner.run") == "harness"
    assert benchlib.layer_of(layer_map, "repro.memsim.system", "FrameLedger") is None


def _func(module_path, name):
    """A cProfile key for the ``def name`` in a repro source file."""
    path = ROOT / "src" / module_path
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        if line.lstrip().startswith(f"def {name}("):
            return (str(path), lineno, name)
    raise AssertionError(f"no def {name} in {module_path}")


def test_attribution_charges_builtins_and_unmapped_code():
    layers, _ = benchlib.load_layer_map()
    index = benchlib.SourceIndex(ROOT / "src")
    sm = _func("repro/engine/sm.py", "_run")
    push = _func("repro/engine/events.py", "schedule")
    builtin = ("~", 0, "<built-in method _heapq.heappush>")
    encode = ("/usr/lib/python3/json/encoder.py", 1, "_iterencode")
    stats = {
        sm: (1, 1, 2.0, 3.0, {}),
        push: (4, 4, 0.5, 1.0, {sm: (4, 4, 0.5, 1.0)}),
        # heappush called from both layers: split by the time each spent.
        builtin: (4, 4, 0.4, 0.4, {push: (3, 3, 0.3, 0.3), sm: (1, 1, 0.1, 0.1)}),
        # recursive unowned code still resolves to its entry point's layer.
        encode: (2, 2, 0.2, 0.2, {encode: (1, 1, 0.1, 0.1), push: (1, 1, 0.1, 0.1)}),
    }
    attr = benchlib.attribute(stats, layers, {"repro.engine.sm": "sm",
                                              "repro.engine.events": "events"}, index)
    assert attr.self_s["sm"] == pytest.approx(2.1)
    assert attr.self_s["events"] == pytest.approx(0.5 + 0.3 + 0.2)
    assert attr.self_s["other"] == pytest.approx(0.0, abs=1e-9)
    assert attr.calls == {**{l: 0 for l in layers}, "sm": 1, "events": 4}
    assert attr.unmapped == {}

    no_sm = benchlib.attribute(stats, layers, {"repro.engine.events": "events"}, index)
    assert no_sm.unmapped == {"repro.engine.sm:StreamingMultiprocessor._run": 2.0}
