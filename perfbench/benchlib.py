"""Shared pieces of the repository benchmark.

* canonical-JSON result digests (stable across Python 3.9-3.12, unlike
  pickle bytes);
* the percentile rule used for every reported latency;
* the checked-in module/qualname -> layer map (``layers.json``) and the
  profile attribution that sums cProfile self time through it.

Nothing here imports ``repro``: ``run.py`` must be able to load this module
(and fail cleanly) in a directory that holds only the benchmark's files.
"""

from __future__ import annotations

import ast
import hashlib
import importlib.util
import json
import math
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
LAYER_MAP_PATH = HERE / "layers.json"
DIGESTS_PATH = HERE / "digests.json"

#: Events that end a batch's NDJSON stream (see repro.service.server).
TERMINAL_EVENTS = ("done", "failed", "cancelled")

#: Samples that must lie beyond a reported tail percentile.
TAIL_SAMPLES = 10


# --------------------------------------------------------------------------
# digests
# --------------------------------------------------------------------------


def canonical_json(obj: object) -> str:
    """Key-sorted, whitespace-free JSON: independent of dict insertion order.

    Floats go through ``repr`` (shortest round-trip form), which is the same
    on every supported Python, so the text - and its digest - is too.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: object) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def result_view(result: object) -> dict:
    """Every field of a ``SimulationResult``: all ``SimStats`` fields
    (interval records included), ``crashed`` and the run's identity."""
    import dataclasses

    return dataclasses.asdict(result)  # type: ignore[call-overload]


def result_digest(result: object) -> str:
    return digest(result_view(result))


def load_pinned_digests() -> Dict[str, Dict[str, str]]:
    """``{workload: {spec label: digest}}`` for the default seed."""
    with open(DIGESTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


# --------------------------------------------------------------------------
# specs and simulated counts
# --------------------------------------------------------------------------

#: The paper's headline comparison: the software baseline against CPPE.
SETUPS = ("baseline", "cppe")


def make_specs(rates: Sequence[Optional[float]], scale: float, seed: int) -> list:
    """{baseline, cppe} x every Table II app x ``rates``.

    Seed 0 leaves ``RunSpec.seed`` unset, so each app runs on its own
    Table II seed; seed ``n`` offsets every app's seed by ``n``.
    """
    from repro.harness.experiment import RunSpec
    from repro.workloads.suite import BENCHMARKS

    return [
        RunSpec(
            app=app,
            setup=setup,
            oversubscription=rate,
            scale=scale,
            seed=None if seed == 0 else bench.seed + seed,
        )
        for rate in rates
        for app, bench in BENCHMARKS.items()
        for setup in SETUPS
    ]


#: SimStats fields the benchmark aggregates (all plain counters).
COUNT_FIELDS = (
    "total_cycles", "accesses", "l1_tlb_hits", "l1_tlb_misses", "page_walks",
    "far_faults", "merged_faults", "fault_service_ops", "pages_migrated",
    "demand_pages", "prefetched_pages", "prefetched_pages_touched",
    "pattern_hits", "chunks_evicted", "dirty_pages_written_back",
    "wrong_evictions", "chain_length_peak",
)


def sim_counts(stats: object) -> Dict[str, int]:
    return {name: getattr(stats, name) for name in COUNT_FIELDS}


def invariant_violations(counts: Dict[str, int], oversubscribed: bool) -> List[str]:
    """Conservation laws every correct run obeys, whatever its seed."""
    bad = []
    if counts["l1_tlb_hits"] + counts["l1_tlb_misses"] != counts["accesses"]:
        bad.append("L1 TLB hits + misses != accesses")
    if counts["demand_pages"] + counts["prefetched_pages"] != counts["pages_migrated"]:
        bad.append("demand + prefetched pages != pages migrated")
    if counts["total_cycles"] <= 0 or counts["accesses"] <= 0:
        bad.append("run did no work")
    if not oversubscribed and counts["chunks_evicted"]:
        bad.append("evictions without oversubscription")
    return bad


def cppe_speedup(cycles: Dict[Tuple[str, str], int]) -> float:
    """Geometric mean over (app, rate) pairs of baseline / CPPE cycles.

    ``cycles`` maps ``(pair, setup)`` to simulated cycles."""
    pairs = sorted({pair for pair, _ in cycles})
    logs = [
        math.log(cycles[(pair, "baseline")] / cycles[(pair, "cppe")])
        for pair in pairs
    ]
    return math.exp(sum(logs) / len(logs))


def simulated_layer_metrics(runs: Sequence[Dict[str, int]]) -> Dict[str, float]:
    """The simulated per-layer counts, summed over runs (peaks: max)."""

    def total(name: str) -> int:
        return sum(run[name] for run in runs)

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    l1 = total("l1_tlb_hits")
    return {
        "sim.accesses": total("accesses"),
        "translation.l1_tlb_hit_rate": ratio(l1, l1 + total("l1_tlb_misses")),
        "translation.page_walks": total("page_walks"),
        "frontend.far_faults": total("far_faults"),
        "frontend.merged_faults": total("merged_faults"),
        "migration.pages_migrated": total("pages_migrated"),
        "migration.service_ops": total("fault_service_ops"),
        "prefetch.prefetched_pages": total("prefetched_pages"),
        "prefetch.accuracy": ratio(
            total("prefetched_pages_touched"), total("prefetched_pages")
        ),
        "prefetch.pattern_hits": total("pattern_hits"),
        "eviction.chunks_evicted": total("chunks_evicted"),
        "eviction.pages_written_back": total("dirty_pages_written_back"),
        "policy.wrong_evictions": total("wrong_evictions"),
        "policy.wrong_eviction_ratio": ratio(
            total("wrong_evictions"), total("chunks_evicted")
        ),
        "structures.chain_length_peak": max(run["chain_length_peak"] for run in runs),
    }


# --------------------------------------------------------------------------
# host speed
# --------------------------------------------------------------------------

#: Iterations of the compute yardstick (about 11-20 ms of host time).
YARDSTICK_ITERS = 20_000
#: About the fastest the compute yardstick ran on a 2-vCPU Xeon VM.
YARDSTICK_NOMINAL_S = 0.011
#: Snapshot-sized files the file yardstick writes, renames, reads and deletes.
FILE_YARDSTICK_ROUNDS = 8
#: About the fastest the file yardstick ran on the same VM.
FILE_YARDSTICK_NOMINAL_S = 0.0017
#: A sample is normalized by the slowdowns this many places either side of
#: its own (the one measured right after it).
NEAREST_REACH = 2
#: Slowdowns that normalize one set-up sample.
SETUP_SLOWDOWNS = 5


def yardstick() -> float:
    """Run a fixed piece of pure-Python work and return its host seconds.

    The work looks like the simulator's inner loop - integer arithmetic,
    set-associative LRU lookups in small dicts, stores into a larger one -
    so the host slows it about as much as it slows the program.  Nothing
    here touches ``repro``: a change to the program cannot move it.
    """
    import time

    started = time.perf_counter()
    sets: List[dict] = [{} for _ in range(64)]
    table: dict = {}
    x = 1
    for _ in range(YARDSTICK_ITERS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        key = x >> 20
        ways = sets[key & 63]
        if key in ways:
            del ways[key]
        elif len(ways) >= 8:
            del ways[next(iter(ways))]
        ways[key] = None
        table[x & 0xFFFF] = key
    return time.perf_counter() - started


_SNAPSHOT = {f"field{i}": [i, i * 2.5, "x" * 20] for i in range(60)}


def file_yardstick(directory: Path) -> float:
    """Write a JSON document of a job snapshot's size to a temp file,
    rename it into place, read it back and delete it, a few times; return
    the host seconds.  This is the file work the service does per batch
    (job snapshots, cache entries), which a busy host slows differently
    from pure computation."""
    import time

    started = time.perf_counter()
    for i in range(FILE_YARDSTICK_ROUNDS):
        final, temp = directory / f"y{i}.json", directory / f"y{i}.tmp"
        temp.write_text(json.dumps(_SNAPSHOT), encoding="utf-8")
        os.replace(temp, final)
        json.loads(final.read_text(encoding="utf-8"))
        final.unlink()
    return time.perf_counter() - started


def slowdown(file_dir: Optional[Path] = None) -> float:
    """How many times slower than nominal the host runs right now.

    Without ``file_dir``, the compute yardstick's time over its nominal
    time (the cold suites are computation).  With it, the geometric mean of
    that and the file yardstick's ratio, run in ``file_dir``: the service
    spends its time on both, and over calibration runs the pair tracked its
    round trips on quiet and busy hosts alike, where either alone tracked
    only one of the two."""
    compute = yardstick() / YARDSTICK_NOMINAL_S
    if file_dir is None:
        return compute
    return math.sqrt(compute * file_yardstick(file_dir) / FILE_YARDSTICK_NOMINAL_S)


def host_factor(slowdowns: Sequence[float]) -> float:
    """Measured seconds times this factor are normalized seconds.

    The mean, not the median: a host that is slow for part of an interval
    slows that part of its wall time, and only the mean weighs the slow
    part as the wall time does.
    """
    return len(slowdowns) / sum(slowdowns)


def normalize(samples: Sequence[float], slowdowns: Sequence[float]) -> List[float]:
    """Each sample times the host factor of the slowdowns nearest to it.

    ``slowdowns[i]`` was measured right after ``samples[i]``.  The host's
    speed drifts within a pass too, so a spec is judged by the speed
    measured around it rather than by the pass's average."""
    if len(samples) != len(slowdowns):
        raise ValueError(f"{len(samples)} samples but {len(slowdowns)} slowdowns")
    return [
        sample * host_factor(slowdowns[max(0, i - NEAREST_REACH):i + NEAREST_REACH + 1])
        for i, sample in enumerate(samples)
    ]


# --------------------------------------------------------------------------
# percentiles
# --------------------------------------------------------------------------


def tail_percentile(n: int) -> Optional[int]:
    """The highest whole percentile with at least ``TAIL_SAMPLES`` of ``n``
    samples beyond it, or None when not even the median qualifies."""
    if n < 2 * TAIL_SAMPLES:
        return None
    return 100 * (n - TAIL_SAMPLES) // n


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``p``
    percent of the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def checked_percentile(samples: Sequence[float], p: int) -> float:
    """``percentile`` that refuses a percentile the samples cannot support
    (fewer than ``TAIL_SAMPLES`` samples beyond it)."""
    tail = tail_percentile(len(samples))
    if tail is None or p > tail:
        raise ValueError(
            f"p{p} needs {math.ceil(TAIL_SAMPLES * 100 / (100 - p))} samples,"
            f" have {len(samples)}"
        )
    return percentile(samples, p)


def tail_note(samples_s: Sequence[float]) -> str:
    """The sample count and the highest supported percentile, in ms."""
    tail = tail_percentile(len(samples_s))
    if tail is None:
        return f"{len(samples_s)} samples, too few for any tail percentile"
    value = percentile(samples_s, tail) * 1e3
    return f"{len(samples_s)} samples; tail p{tail} = {value:.3f} ms"


# --------------------------------------------------------------------------
# layer map
# --------------------------------------------------------------------------


def load_layer_map() -> Tuple[List[str], Dict[str, str]]:
    with open(LAYER_MAP_PATH, encoding="utf-8") as fh:
        doc = json.load(fh)
    return list(doc["layers"]), dict(doc["map"])


class SourceIndex:
    """Qualnames of every code object in the ``repro`` sources.

    cProfile keys functions by ``(file, first line, co_name)``; the layer
    map speaks in ``module:qualname``.  The index bridges the two from the
    AST, so nested functions, lambdas and comprehensions resolve too (the
    latter two to ``<enclosing qualname>.<lambda>`` etc.).
    """

    def __init__(self, src_root: Path) -> None:
        self.src_root = src_root.resolve()
        self._modules: Dict[str, Dict[Tuple[int, str], str]] = {}
        self._spans: Dict[str, List[Tuple[int, int, str]]] = {}
        self._qualnames: Dict[str, set] = {}

    def module_of(self, filename: str) -> Optional[str]:
        path = Path(filename)
        if not path.is_absolute():
            path = Path.cwd() / path
        try:
            rel = path.resolve().relative_to(self.src_root)
        except ValueError:
            return None
        parts = list(rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        return ".".join(parts)

    def module_exists(self, module: str) -> bool:
        base = self.src_root.joinpath(*module.split("."))
        return base.with_suffix(".py").is_file() or (base / "__init__.py").is_file()

    def _load(self, module: str) -> None:
        if module in self._modules:
            return
        base = self.src_root.joinpath(*module.split("."))
        path = base.with_suffix(".py")
        if not path.is_file():
            path = base / "__init__.py"
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        codes: Dict[Tuple[int, str], str] = {}
        spans: List[Tuple[int, int, str]] = []
        names: set = set()

        def visit(node: ast.AST, prefix: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = prefix + child.name
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    codes[(first, child.name)] = qual
                    spans.append((child.lineno, child.end_lineno or child.lineno, qual))
                    names.add(qual)
                    visit(child, qual + ".<locals>.")
                elif isinstance(child, ast.ClassDef):
                    names.add(prefix + child.name)
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
        self._modules[module] = codes
        self._spans[module] = sorted(spans, key=lambda s: (s[0], -s[1]))
        self._qualnames[module] = names

    def qualname(self, module: str, lineno: int, co_name: str) -> str:
        """Qualname of the code object cProfile reports as
        ``(file of module, lineno, co_name)``."""
        self._load(module)
        if co_name == "<module>":
            return "<module>"
        exact = self._modules[module].get((lineno, co_name))
        if exact is not None:
            return exact
        # Lambdas and comprehensions: the innermost def containing them.
        enclosing = ""
        for start, end, qual in self._spans[module]:
            if start <= lineno <= end:
                enclosing = qual
        return f"{enclosing}.{co_name}" if enclosing else co_name

    def has_qualname(self, module: str, qualname: str) -> bool:
        self._load(module)
        return qualname in self._qualnames[module]


def layer_of(layer_map: Dict[str, str], module: str, qualname: str) -> Optional[str]:
    """Longest map entry covering ``module:qualname``.

    Keys are ``package``, ``module`` or ``module:Qual.name``; a qualname key
    covers everything nested under it (methods of a class, closures of a
    function)."""
    parts = qualname.split(".")
    while parts:
        hit = layer_map.get(f"{module}:{'.'.join(parts)}")
        if hit is not None:
            return hit
        parts.pop()
    mod_parts = module.split(".")
    while mod_parts:
        hit = layer_map.get(".".join(mod_parts))
        if hit is not None:
            return hit
        mod_parts.pop()
    return None


def stale_map_entries(layer_map: Dict[str, str], index: SourceIndex) -> List[str]:
    """Map keys naming a module or function that no longer exists."""
    stale = []
    for key in sorted(layer_map):
        module, _, qual = key.partition(":")
        if module == "repro" or module.startswith("repro."):
            ok = index.module_exists(module) and (
                not qual or index.has_qualname(module, qual)
            )
        else:
            ok = not qual and importlib.util.find_spec(module) is not None
        if not ok:
            stale.append(key)
    return stale


def _stdlib_module(filename: str) -> Optional[str]:
    """Dotted module name of a file on ``sys.path`` (stdlib, site-packages)."""
    path = os.path.abspath(filename)
    best = None
    for entry in sys.path:
        root = os.path.abspath(entry or ".")
        if path.startswith(root + os.sep) and (best is None or len(root) > len(best)):
            best = root
    if best is None:
        return None
    rel = os.path.splitext(os.path.relpath(path, best))[0].split(os.sep)
    if rel[-1] == "__init__":
        rel.pop()
    return ".".join(rel)


#: Fixed-point rounds when resolving unowned callers (call-graph depth).
_MAX_ROUNDS = 200


class Attribution:
    """Per-layer self seconds and call counts of one merged profile."""

    def __init__(self, layers: Sequence[str]) -> None:
        self.self_s: Dict[str, float] = {name: 0.0 for name in layers}
        self.calls: Dict[str, int] = {name: 0 for name in layers}
        #: ``module:qualname`` of repro functions no map entry covers,
        #: with their self seconds.
        self.unmapped: Dict[str, float] = {}

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())


def attribute(
    stats: Dict[tuple, tuple],
    layers: Sequence[str],
    layer_map: Dict[str, str],
    index: SourceIndex,
) -> Attribution:
    """Sum a ``pstats.Stats(...).stats`` table into layers.

    A ``repro`` function's self time goes to its mapped layer, and so does a
    function of a mapped outside module (``http.server`` is the service's
    transport).  Everything else - builtins, numpy, json, threading - is
    charged to its callers in proportion to the time each caller spent in
    it, climbing until a mapped function is reached; time with no mapped
    ancestor lands in ``other``.  Calls are counted for mapped ``repro``
    functions only, so they are exact for a deterministic run.
    """
    out = Attribution(layers)
    owner: Dict[tuple, Optional[str]] = {}
    for func in stats:
        filename, lineno, name = func
        module = index.module_of(filename) if filename != "~" else None
        if module is not None:
            qual = index.qualname(module, lineno, name)
            layer = layer_of(layer_map, module, qual)
            if layer is None:
                out.unmapped[f"{module}:{qual}"] = (
                    out.unmapped.get(f"{module}:{qual}", 0.0) + stats[func][2]
                )
                layer = "other"
            owner[func] = layer
            out.calls[layer] += stats[func][1]
        elif filename not in ("~", "") and not filename.startswith("<"):
            ext = _stdlib_module(filename)
            owner[func] = layer_of(layer_map, ext, "") if ext else None
        else:
            owner[func] = None

    # Which layers an unowned function's time belongs to: its callers'
    # layers, weighted by the cumulative time spent in it from each caller.
    # Solved by fixed-point iteration, so recursion (json's encoder, deep
    # copies) resolves through its non-recursive entry points.
    def split(weights: Dict[tuple, float], dist: Dict[tuple, Dict[str, float]]):
        total = sum(weights.values())
        acc: Dict[str, float] = {}
        if total <= 0:
            return {"other": 1.0}
        for caller, weight in weights.items():
            layer = owner.get(caller)
            parts = {layer: 1.0} if layer is not None else dist.get(caller, {})
            for name, share in parts.items():
                acc[name] = acc.get(name, 0.0) + weight / total * share
        return acc

    unowned = [func for func in stats if owner[func] is None]
    dist: Dict[tuple, Dict[str, float]] = {func: {} for func in unowned}
    for _ in range(_MAX_ROUNDS):
        new = {
            func: split({c: v[3] for c, v in stats[func][4].items()}, dist)
            for func in unowned
        }
        settled = all(
            abs(new[f].get(k, 0.0) - dist[f].get(k, 0.0)) < 1e-12
            for f in unowned
            for k in set(new[f]) | set(dist[f])
        )
        dist = new
        if settled:
            break

    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if tt <= 0:
            continue
        if owner[func] is not None:
            out.self_s[owner[func]] += tt
            continue
        # The callee's own time, split by what each caller spent in it.
        parts = split({c: v[2] for c, v in callers.items()}, dist)
        for name, share in parts.items():
            out.self_s[name] += tt * share
        # Mass still circling an unresolved cycle has no mapped ancestor.
        out.self_s["other"] += tt * max(0.0, 1.0 - sum(parts.values()))
    return out


# --------------------------------------------------------------------------
# service round trip
# --------------------------------------------------------------------------


def round_trip(client, payload: dict, clock=None) -> Tuple[str, str, float]:
    """Submit one batch and follow its event stream; returns ``(job id,
    terminal event kind, seconds)``.

    The clock stops on the terminal event itself.  Polling ``status`` (or
    ``ServiceClient.wait``, which sleeps 0.2 s between polls) would time
    the poll interval, not the service.
    """
    import time

    clock = clock or time.perf_counter
    started = clock()
    job = client.submit(payload)["job"]
    for event in client.events(job, follow=True):
        if event.get("kind") in TERMINAL_EVENTS:
            return job, event["kind"], clock() - started
    raise RuntimeError(f"event stream of {job} ended without a terminal event")


# --------------------------------------------------------------------------
# BENCHMARK.json
# --------------------------------------------------------------------------


def load_benchmark(root: Path) -> dict:
    with open(root / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def metric_units(bench: dict, kind: str) -> Dict[str, str]:
    """``{name: unit}`` of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in bench[kind]}
