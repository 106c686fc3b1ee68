"""Run the ``repro`` command line with cProfile on every thread.

    python3 perfbench/profserve.py OUT.prof serve --port 8765 ...

Everything after ``OUT.prof`` is the ``repro`` command line, unchanged.
``repro serve`` does its work on threads (one scheduler thread, one thread
per HTTP request), and ``python -m cProfile`` sees only the main thread, so
this launcher gives each new thread its own profiler and merges them all
into ``OUT.prof`` when the command returns (``repro serve`` returns on
SIGINT).  The profilers time per-thread CPU, so threads blocked on a socket
or a queue are not charged for waiting.  Imports happen before profiling
starts: the profile holds the serving, not the start-up.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
import threading
import time
from pathlib import Path


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(Path.cwd() / "src"))
    from repro import cli
    import repro.service.server  # noqa: F401  (imported outside the profile)

    profilers = []
    lock = threading.Lock()

    def profile_this_thread(*_args: object) -> None:
        prof = cProfile.Profile(time.thread_time)
        with lock:
            profilers.append(prof)
        prof.enable()  # replaces this hook for the rest of the thread

    main_prof = cProfile.Profile(time.thread_time)
    profilers.append(main_prof)
    threading.setprofile(profile_this_thread)
    main_prof.enable()
    try:
        code = cli.main(argv)
    finally:
        main_prof.disable()
        threading.setprofile(None)
        with lock:
            done = list(profilers)
        merged = pstats.Stats(done[0])
        for prof in done[1:]:
            merged.add(prof)
        merged.dump_stats(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
