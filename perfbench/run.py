"""The repository benchmark: three workloads, one command, checked outputs.

    python3 perfbench/run.py --workload oversub-50 --seed 0 --seconds 20 --trace 0

Run it from the repository root.  ``--trace 0`` measures and prints every
end-to-end metric; ``--trace 1`` runs the workload once plain and once under
cProfile and prints every per-layer metric.  The last stdout line is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Workloads (see README.md for why each exists):

* ``oversub-50`` / ``no-oversub`` - {baseline, cppe} x the 23 Table II apps
  at 50% oversubscription / with everything fitting: 46 specs through one
  in-process ``submit_batch``, cold (fresh process, empty memo, no disk
  cache), serial.
* ``service-warm`` - one closed-loop client against a live ``repro serve
  --jobs 1`` whose cache directory was primed with the 92-spec pool, so
  every batch is answered without simulating.

The program always runs on its own ``SimConfig()`` defaults.

Every host time is normalized: fixed yardsticks (``benchlib.slowdown``)
run between specs or batches, off the clock, and each spec time or round
trip is divided by the mean slowdown measured around it.  On a shared host
whose speed drifts by tens of percent from minute to minute the raw times
are not repeatable; the normalized ones are.  The raw medians are printed
on ``#`` lines.  All processes of a run share one CPU, so the yardsticks
run where the work ran.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import pstats
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

COLD = {"oversub-50": 0.5, "no-oversub": None}
SERVICE = "service-warm"
WORKLOADS = (*COLD, SERVICE)

#: Set-up samples per run (the median is reported).
SETUP_SAMPLES = 9
#: Fresh servers per service-warm run, each loaded for an equal share.
SERVERS = 10
#: rt_p90_ms needs at least 10 samples beyond p90.
RT_SAMPLES = 100
#: The service-warm pool: {baseline, cppe} x 23 apps x these rates.
POOL_RATES = (0.75, 0.5)
POOL_SCALE = 0.25
BATCH_SPECS = 4
#: Pool rounds each server answers in a traced service run.
TRACE_ROUNDS = 10
CHILD_TIMEOUT_S = 170.0


class BenchError(Exception):
    """The benchmark could not run (not: the program answered wrongly)."""


class Outcome:
    """What one invocation measured, and every operation that went wrong."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.notes: List[str] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def fail(self, message: str, operations: int = 1) -> None:
        self.failed += operations
        self.problems.append(message)


class Processes:
    """Every child this run starts; ``stop_all`` ends and reaps them."""

    def __init__(self) -> None:
        self.live: List[subprocess.Popen] = []

    def start(self, cmd: List[str], **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(cmd, **kwargs)
        self.live.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, timeout: float = 30.0) -> int:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc in self.live:
            self.live.remove(proc)
        return proc.returncode

    def stop_all(self) -> None:
        for proc in list(self.live):
            self.stop(proc, timeout=5.0)


def child_env(disk_cache: bool) -> Dict[str, str]:
    """Environment of a measured child (``main`` has already dropped every
    ``REPRO_*`` setting the caller had)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    if not disk_cache:
        env["REPRO_CACHE"] = "0"
    return env


def share_one_cpu() -> Optional[int]:
    """Keep this process and every child it starts on one CPU, the last
    one allowed.  The yardsticks run in this process or the pass process,
    while a server does its work in its own process: only on a shared CPU
    do they measure the CPU the work ran on.  In a closed loop the client
    waits while the server works, so sharing costs little."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def host_note(what: str, raw: List[float], factors: List[float]) -> str:
    """What normalization did: the measured median and the host factors."""
    return (
        f"measured (not normalized) median {what} {statistics.median(raw):.6g} s; "
        f"host factor median {statistics.median(factors):.3f}, "
        f"range {min(factors):.3f}-{max(factors):.3f} "
        "(1 = nominal speed)"
    )


# --------------------------------------------------------------------------
# cold suites
# --------------------------------------------------------------------------


def cold_pass(procs: Processes, rate: Optional[float], seed: int, mode: str,
              profile_out: Optional[Path] = None) -> dict:
    """Launch one ``coldpass.py`` child; returns its report plus
    ``setup_s`` (launch until the first spec starts, normalized by the
    slowdowns measured right after it)."""
    cmd = [sys.executable, str(HERE / "coldpass.py"),
           "--rate", "none" if rate is None else repr(rate),
           "--seed", str(seed), "--mode", mode]
    if profile_out is not None:
        cmd += ["--profile-out", str(profile_out)]
    launched = time.time()
    proc = procs.start(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       env=child_env(disk_cache=False), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"cold pass still running after {CHILD_TIMEOUT_S:g} s") from exc
    finally:
        procs.stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(
            f"cold pass exited {proc.returncode}: {err.decode(errors='replace')[-2000:]}"
        )
    report = json.loads(out.decode().splitlines()[-1])
    report["setup_s"] = report["t_ready"] - launched
    if report.get("setup_slowdowns"):
        report["setup_s"] *= benchlib.host_factor(report["setup_slowdowns"])
    return report


def check_cold_pass(report: dict, workload: str, reference: Dict[str, str],
                    outcome: Outcome) -> None:
    """Count every spec that failed, crashed, broke an invariant or does
    not match ``reference`` (label -> digest)."""
    specs = report["specs"]
    outcome.attempted += specs
    if "error" in report:
        outcome.fail(f"{workload}: batch raised: {report['error']}", specs)
        return
    batch = report["batch"]
    if batch["simulated"] != specs:
        outcome.fail(f"{workload}: simulated {batch['simulated']} of {specs} specs", specs)
    for label, expected in sorted(reference.items()):
        got = report["results"].get(label)
        if got is None:
            outcome.fail(f"{label}: no result")
        elif got["crashed"]:
            outcome.fail(f"{label}: crashed")
        elif got["digest"] != expected:
            outcome.fail(f"{label}: digest {got['digest'][:12]} != {expected[:12]}")
        else:
            bad = benchlib.invariant_violations(got["counts"], COLD[workload] is not None)
            if bad:
                outcome.fail(f"{label}: {'; '.join(bad)}")


def reference_digests(workload: str, seed: int, passes: List[dict]) -> Dict[str, str]:
    """Pinned digests for the default seed; otherwise the first complete
    pass of this run (every other pass must repeat it exactly)."""
    if seed == 0:
        return benchlib.load_pinned_digests()[workload]
    for report in passes:
        if "error" not in report:
            return {label: (r or {}).get("digest", "") for label, r in report["results"].items()}
    return {}


def cold_cycles(report: dict) -> Dict[tuple, int]:
    return {
        (r["pair"], r["setup"]): r["counts"]["total_cycles"]
        for r in report["results"].values()
    }


def run_cold(workload: str, seed: int, seconds: float, procs: Processes,
             outcome: Outcome) -> None:
    rate = COLD[workload]
    passes: List[dict] = []
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or sum(len(p["spec_s"]) for p in passes) < RT_SAMPLES):
        passes.append(cold_pass(procs, rate, seed, "run"))
        if "error" in passes[-1]:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(cold_pass(procs, rate, seed, "setup")["setup_s"])

    reference = reference_digests(workload, seed, passes)
    for report in passes:
        check_cold_pass(report, workload, reference, outcome)
    if outcome.failed:
        return

    outcome.metrics = cold_metrics(passes, setups)
    spec_s = [s for p in passes for s in p["spec_s"]]
    outcome.notes.append(
        f"{len(passes)} passes of {passes[0]['specs']} specs; rt = one spec's "
        f"resolve time; {benchlib.tail_note(spec_s)} (measured)"
    )
    outcome.notes.append(host_note(
        "pass wall", [p["wall_s"] for p in passes], [pass_factor(p) for p in passes]
    ))


def pass_factor(report: dict) -> float:
    """A pass's host factor: its normalized over its measured spec time."""
    return sum(benchlib.normalize(report["spec_s"], report["slowdowns"])) / sum(report["spec_s"])


def cold_metrics(passes: List[dict], setups: List[float]) -> Dict[str, float]:
    """End-to-end metrics of checked cold passes (one batch per pass).
    Each spec's time is normalized by the slowdowns nearest to it, and a
    pass's wall time by the factor that gives its specs."""
    walls = [p["wall_s"] * pass_factor(p) for p in passes]
    spec_s = [s for p in passes for s in benchlib.normalize(p["spec_s"], p["slowdowns"])]
    accesses = sum(r["counts"]["accesses"] for r in passes[0]["results"].values())
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "sim_accesses_per_s": accesses / statistics.median(walls),
        "cppe_speedup": benchlib.cppe_speedup(cold_cycles(passes[0])),
        "rt_p50_ms": statistics.median(spec_s) * 1e3,
        "rt_p90_ms": benchlib.checked_percentile(spec_s, 90) * 1e3,
        "batches_per_s": len(walls) / sum(walls),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def trace_cold(workload: str, seed: int, procs: Processes, tmp: Path,
               outcome: Outcome) -> None:
    rate = COLD[workload]
    plain = cold_pass(procs, rate, seed, "run")
    prof = tmp / "cold.prof"
    traced = cold_pass(procs, rate, seed, "profile", prof)
    reference = reference_digests(workload, seed, [plain, traced])
    for report in (plain, traced):
        check_cold_pass(report, workload, reference, outcome)
    if outcome.failed:
        return
    counts = [r["counts"] for r in plain["results"].values()]
    outcome.metrics = layer_metrics(
        prof, counts, plain["batch"], None,
        overhead_s=traced["wall_s"] - plain["wall_s"], outcome=outcome,
    )


# --------------------------------------------------------------------------
# service-warm
# --------------------------------------------------------------------------


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve --jobs 1`` child on a free port."""

    def __init__(self, procs: Processes, state: Path, cache: Path, log: Path,
                 profile_out: Optional[Path] = None) -> None:
        self.procs = procs
        self.port = free_port()
        args = ["serve", "--host", "127.0.0.1", "--port", str(self.port),
                "--jobs", "1", "--state-dir", str(state), "--cache-dir", str(cache)]
        if profile_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "profserve.py"), str(profile_out), *args]
        self._log = open(log, "ab")
        launched = time.perf_counter()
        self.proc = procs.start(cmd, stdout=subprocess.DEVNULL, stderr=self._log,
                                env=child_env(disk_cache=True), cwd=ROOT)
        try:
            self._wait_healthy(deadline=launched + 60.0)
        except BaseException:
            procs.stop(self.proc)
            self._log.close()
            raise
        self.setup_s = time.perf_counter() - launched
        self.url = f"http://127.0.0.1:{self.port}"

    def _wait_healthy(self, deadline: float) -> None:
        while True:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/healthz")
                if conn.getresponse().status == 200:
                    return
            except OSError:
                pass
            finally:
                conn.close()
            if self.proc.poll() is not None:
                raise BenchError(f"repro serve exited {self.proc.returncode} at start")
            if time.perf_counter() > deadline:
                raise BenchError("repro serve never answered /healthz")
            time.sleep(0.002)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise BenchError("no VmHWM for the server process")

    def stop(self) -> None:
        code = self.procs.stop(self.proc)
        self._log.close()
        if code not in (0, -signal.SIGINT):
            raise BenchError(f"repro serve exited {code} on SIGINT")


class Pool:
    """The primed spec pool and what the service must answer for it."""

    def __init__(self, seed: int, cache: Path, outcome: Outcome) -> None:
        sys.path.insert(0, str(ROOT / "src"))
        from repro.harness.cache import ResultCache
        from repro.harness.experiment import spec_label, submit_batch
        from repro.service.wire import result_to_dict, spec_to_dict

        self.specs = benchlib.make_specs(POOL_RATES, scale=POOL_SCALE, seed=seed)
        results, stats = submit_batch(self.specs, cache=ResultCache(cache))
        if stats.simulated != len(self.specs):
            raise BenchError(f"priming simulated {stats.simulated} of {len(self.specs)}")
        primed = [results[spec.key()] for spec in self.specs]
        self.labels = [spec_label(spec) for spec in self.specs]
        self.payloads = [spec_to_dict(spec) for spec in self.specs]
        self.wire_digests = [benchlib.digest(result_to_dict(r)) for r in primed]
        self.counts = [benchlib.sim_counts(r.stats) for r in primed]
        if seed == 0:
            pinned = benchlib.load_pinned_digests()[SERVICE]
            for label, result in zip(self.labels, primed):
                if pinned.get(label) != benchlib.result_digest(result):
                    outcome.fail(f"primed {label}: digest differs from the pinned one", 0)

    def batches(self, rng: random.Random):
        """Endless batches of spec indices: each round is a seeded shuffle
        of the whole pool, so every spec is asked for once per round."""
        while True:
            order = list(range(len(self.specs)))
            rng.shuffle(order)
            for i in range(0, len(order), BATCH_SPECS):
                yield order[i:i + BATCH_SPECS]


def service_loop(server: Server, pool: Pool, source, outcome: Outcome,
                 seconds: float, batches: int, yardstick_dir: Optional[Path] = None) -> dict:
    """Closed loop, one client: submit the next batch from ``source``,
    follow its event stream to the terminal event, check it, repeat - for
    ``seconds`` and at least ``batches`` batches.  With ``yardstick_dir``
    the host's slowdown is measured between batches, off the round-trip
    clock, with the file yardstick writing there."""
    from repro.service.client import ServiceClient

    client = ServiceClient(server.url)
    rts: List[float] = []
    parts = {"queue_wait": [], "run": [], "transport": []}
    harness = {"simulated": 0, "memo_hits": 0, "cache_hits": 0}
    cycles: Dict[tuple, int] = {}
    slowdowns: List[float] = []
    accesses = sent = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or sent < batches:
        picked = next(source)
        sent += 1
        outcome.attempted += 1
        job, kind, rt = benchlib.round_trip(
            client, {"specs": [pool.payloads[i] for i in picked]}
        )
        view = client.status(job)
        problems = []
        if kind != "done" or view["state"] != "done":
            problems.append(f"ended {kind}/{view['state']}")
        stats = view.get("stats") or {}
        if stats.get("simulated") != 0:
            problems.append(f"simulated {stats.get('simulated')}")
        for i, entry in zip(picked, view["specs"]):
            result = entry.get("result")
            if result is None or benchlib.digest(result) != pool.wire_digests[i]:
                problems.append(f"{pool.labels[i]} differs from the primed result")
                continue
            spec = pool.specs[i]
            cycles[(f"{spec.app}@{spec.oversubscription}", spec.setup)] = result["total_cycles"]
            accesses += result["stats"]["accesses"]
        if problems:
            outcome.fail(f"batch {job}: {'; '.join(problems)}")
            continue
        for key in harness:
            harness[key] += stats[key]
        rts.append(rt)
        if yardstick_dir is not None:
            slowdowns.append(benchlib.slowdown(yardstick_dir))
        created, began, finished = view["created_ts"], view["started_ts"], view["finished_ts"]
        parts["queue_wait"].append(began - created)
        parts["run"].append(finished - began)
        parts["transport"].append(rt - (finished - created))
    return {"rts": rts, "parts": parts, "harness": harness, "cycles": cycles,
            "accesses": accesses, "slowdowns": slowdowns}


def merge_loops(loops: List[dict]) -> dict:
    return {
        "rts": [rt for loop in loops for rt in loop["rts"]],
        "parts": {part: [v for loop in loops for v in loop["parts"][part]]
                  for part in ("queue_wait", "run", "transport")},
        "harness": {key: sum(loop["harness"][key] for loop in loops)
                    for key in ("simulated", "memo_hits", "cache_hits")},
        "cycles": {k: v for loop in loops for k, v in loop["cycles"].items()},
        "accesses": sum(loop["accesses"] for loop in loops),
    }


def run_service(seed: int, seconds: float, procs: Processes, tmp: Path,
                outcome: Outcome) -> None:
    """``SERVERS`` fresh servers in turn, each timed from launch to
    ``/healthz`` and then loaded for an equal share of ``seconds``.  Pooling
    the servers' samples averages out where each process happened to be
    scheduled, which shifts a whole server's latencies together.  Each
    server's round trips are normalized by the slowdowns measured between
    them, its set-up (like a cold pass's) by compute slowdowns measured
    right after it."""
    cache = tmp / "cache"
    pool = Pool(seed, cache, outcome)
    source = pool.batches(random.Random(seed))
    yardstick_dir = tmp / "yardstick"
    yardstick_dir.mkdir()
    setups, rss, loops = [], [], []
    for i in range(SERVERS):
        server = Server(procs, tmp / f"state{i}", cache, tmp / "serve.log")
        try:
            setups.append(server.setup_s * benchlib.host_factor(
                [benchlib.slowdown() for _ in range(benchlib.SETUP_SLOWDOWNS)]
            ))
            loop = service_loop(
                server, pool, source, outcome, seconds=seconds / SERVERS,
                batches=-(-RT_SAMPLES // SERVERS), yardstick_dir=yardstick_dir,
            )
            rss.append(server.peak_rss_mb())
        finally:
            server.stop()
        loops.append(loop)
    if outcome.failed:
        return
    raw_rts = [statistics.fmean(loop["rts"]) for loop in loops]
    for loop in loops:
        loop["rts"] = benchlib.normalize(loop["rts"], loop["slowdowns"])
    factors = [statistics.fmean(loop["rts"]) / raw for loop, raw in zip(loops, raw_rts)]
    loop = merge_loops(loops)
    if len(loop["cycles"]) != len(pool.specs):
        outcome.fail(f"only {len(loop['cycles'])} of {len(pool.specs)} pool specs answered", 0)
        return
    outcome.metrics = service_metrics(loop, setups, statistics.median(rss), len(pool.specs))
    outcome.notes.append(
        f"{SERVERS} servers, {len(loop['rts'])} batches of {BATCH_SPECS} "
        f"specs; rt = submit to terminal event; {benchlib.tail_note(loop['rts'])}"
        " (normalized)"
    )
    outcome.notes.append(host_note("mean round trip per server", raw_rts, factors))


def service_metrics(loop: dict, setups: List[float], rss_mb: float,
                    pool_specs: int) -> Dict[str, float]:
    """End-to-end metrics of a checked service loop.  ``wall_s`` is the
    time to resolve one pool's worth of specs at the mean round trip."""
    rts = loop["rts"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(rts) * pool_specs / BATCH_SPECS,
        "sim_accesses_per_s": loop["accesses"] / sum(rts),
        "cppe_speedup": benchlib.cppe_speedup(loop["cycles"]),
        "rt_p50_ms": statistics.median(rts) * 1e3,
        "rt_p90_ms": benchlib.checked_percentile(rts, 90) * 1e3,
        "batches_per_s": len(rts) / sum(rts),
        "peak_rss_mb": rss_mb,
    }


def trace_service(seed: int, procs: Processes, tmp: Path, outcome: Outcome) -> None:
    """The same batches against a plain server and a profiled one."""
    cache = tmp / "cache"
    pool = Pool(seed, cache, outcome)
    batches = TRACE_ROUNDS * len(pool.specs) // BATCH_SPECS
    prof = tmp / "serve.prof"
    loops = []
    for name, profile_out in (("plain", None), ("traced", prof)):
        server = Server(procs, tmp / name, cache, tmp / "serve.log", profile_out)
        try:
            loops.append(service_loop(server, pool, pool.batches(random.Random(seed)),
                                      outcome, seconds=0.0, batches=batches))
        finally:
            server.stop()
    if outcome.failed:
        return
    plain, traced = loops
    outcome.metrics = layer_metrics(
        prof, pool.counts, plain["harness"], plain["parts"],
        overhead_s=sum(traced["rts"]) - sum(plain["rts"]), outcome=outcome,
    )


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------

#: Layers reported with both self seconds and call counts.
CALL_LAYERS = ("sm", "events", "frontend", "migration", "eviction",
               "structures", "policy", "prefetch")
#: Layers reported with self seconds only.
TIME_LAYERS = ("workloads", "harness", "cache", "service", "other")


def layer_metrics(profile: Path, counts: List[dict], harness: dict,
                  service_parts: Optional[dict], overhead_s: float,
                  outcome: Outcome) -> Dict[str, float]:
    layers, layer_map = benchlib.load_layer_map()
    index = benchlib.SourceIndex(ROOT / "src")
    stale = benchlib.stale_map_entries(layer_map, index)
    if stale:
        outcome.fail(f"layers.json names code that no longer exists: {stale}", 0)
    attr = benchlib.attribute(pstats.Stats(str(profile)).stats, layers, layer_map, index)
    unmapped = {k: v for k, v in attr.unmapped.items() if v > 0}
    if unmapped:
        outcome.fail(f"functions with self time but no layer: {sorted(unmapped)}", 0)
    sim = benchlib.simulated_layer_metrics(counts)
    metrics: Dict[str, float] = {}
    for layer in CALL_LAYERS:
        metrics[f"{layer}.self_s"] = attr.self_s[layer]
        metrics[f"{layer}.calls"] = attr.calls[layer]
    for layer in TIME_LAYERS:
        metrics[f"{layer}.self_s"] = attr.self_s[layer]
    metrics["sm.host_ns_per_access"] = attr.self_s["sm"] / sim["sim.accesses"] * 1e9
    metrics["frontend.host_us_per_fault"] = (
        attr.self_s["frontend"] / sim["frontend.far_faults"] * 1e6
        if sim["frontend.far_faults"] else 0.0
    )
    for part in ("queue_wait", "run", "transport"):
        metrics[f"service.{part}_ms"] = (
            statistics.median(service_parts[part]) * 1e3 if service_parts else 0.0
        )
    for key in ("simulated", "memo_hits", "cache_hits"):
        metrics[f"harness.{key}"] = harness[key]
    metrics["trace.overhead_s"] = overhead_s
    metrics.update(sim)
    outcome.notes.append(
        f"profiled self time {attr.total_s:.3f} s; tracing added {overhead_s:.3f} s"
    )
    return metrics


# --------------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------------


def report(outcome: Outcome, units: Dict[str, str]) -> None:
    if set(outcome.metrics) != set(units) and not outcome.failed:
        outcome.fail(
            "metrics differ from BENCHMARK.json: "
            f"{sorted(set(outcome.metrics) ^ set(units))}", 0
        )
    for name in units:
        if name in outcome.metrics:
            print(f"{name:32s} {outcome.metrics[name]:>16.6g} {units[name]}")
    for note in outcome.notes:
        print(f"# {note}")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"# error_rate {rate:.6g} ({outcome.failed} of {outcome.attempted} operations)")
    for problem in outcome.problems:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": units[name]}
            for name in units if name in outcome.metrics
        },
    }))


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from a repository root (no src/repro here)", file=sys.stderr)
        return 2
    units = benchlib.metric_units(
        benchlib.load_benchmark(ROOT), "per_layer" if args.trace else "end_to_end"
    )
    # A user's cache dir, fault plan or plugins must not reach a measured run.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cpu = share_one_cpu()
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    procs = Processes()
    outcome = Outcome()
    outcome.notes.append(f"every process of this run on CPU {cpu}" if cpu is not None
                         else "processes not pinned to a CPU")
    try:
        if args.workload in COLD and args.trace:
            trace_cold(args.workload, args.seed, procs, tmp, outcome)
        elif args.workload in COLD:
            run_cold(args.workload, args.seed, args.seconds, procs, outcome)
        elif args.trace:
            trace_service(args.seed, procs, tmp, outcome)
        else:
            run_service(args.seed, args.seconds, procs, tmp, outcome)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        procs.stop_all()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run's directory is still in there
    report(outcome, units)
    return 0 if not outcome.problems else 1


if __name__ == "__main__":
    sys.exit(main())
