"""One cold pass of a benchmark suite in a fresh process.

``run.py`` launches this once per pass so every pass starts with an empty
in-process memo and pays the real start-up cost.  The disk cache is off
(``cache=None``), and nothing sets a ``SimConfig`` field: the program runs
on its own defaults.

    python3 perfbench/coldpass.py --rate 0.5 --seed 0 --mode run

``--mode setup`` stops where the first spec would start (a set-up sample);
``--mode profile --profile-out F`` runs the pass under cProfile and writes
the profile to ``F``.  The last stdout line is JSON.

Outside a profile, ``benchlib.slowdown`` is measured after every spec (and
a few times before the first), off the clock, so ``run.py`` can express
the pass's times at a fixed host speed; a set-up sample measures it a few
times after it is ready.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import benchlib


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rate", required=True, help="oversubscription or 'none'")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--mode", choices=("setup", "run", "profile"), default="run")
    ap.add_argument("--profile-out")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(Path.cwd() / "src"))
    from repro.harness.experiment import spec_label, submit_batch

    rate = None if args.rate == "none" else float(args.rate)
    specs = benchlib.make_specs((rate,), scale=1.0, seed=args.seed)
    t_ready = time.time()
    measure_host = args.mode != "profile"
    setup_slowdowns = [
        benchlib.slowdown() for _ in range(benchlib.SETUP_SLOWDOWNS)
    ] if measure_host else []
    if args.mode == "setup":
        print(json.dumps({"t_ready": t_ready, "setup_slowdowns": setup_slowdowns}))
        return 0

    spec_s = []
    slowdowns = []
    last = [time.perf_counter()]
    off_clock = [0.0]

    def progress(done: int, total: int) -> None:
        now = time.perf_counter()
        spec_s.append(now - last[0])
        if measure_host:
            slowdowns.append(benchlib.slowdown())
            off_clock[0] += time.perf_counter() - now
        last[0] = time.perf_counter()

    profiler = None
    if args.mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    t0 = time.perf_counter()
    last[0] = t0
    try:
        results, stats = submit_batch(specs, cache=None, progress=progress)
    except Exception:  # the program failed: report it as failed specs
        print(json.dumps({"t_ready": t_ready, "specs": len(specs),
                          "error": traceback.format_exc(limit=5)}))
        return 0
    wall = time.perf_counter() - t0 - off_clock[0]
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(args.profile_out)

    per_spec = {}
    for spec in specs:
        result = results.get(spec.key())
        label = spec_label(spec)
        per_spec[label] = (
            None
            if result is None
            else {
                "digest": benchlib.result_digest(result),
                "setup": spec.setup,
                "pair": f"{spec.app}@{spec.oversubscription}",
                "crashed": result.crashed,
                "counts": benchlib.sim_counts(result.stats),
            }
        )
    print(
        json.dumps(
            {
                "t_ready": t_ready,
                "specs": len(specs),
                "wall_s": wall,
                "spec_s": spec_s,
                "setup_slowdowns": setup_slowdowns,
                "slowdowns": slowdowns,
                "batch": dataclasses.asdict(stats),
                "results": per_spec,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
