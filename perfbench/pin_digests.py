"""Recompute the pinned default-seed result digests (``digests.json``).

    python3 perfbench/pin_digests.py

Run from the repository root, only when a change is *meant* to alter
simulated results; every other change must leave the file as it is.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import benchlib
import run


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from repro.harness.experiment import spec_label, submit_batch

    suites = {name: ((rate,), 1.0) for name, rate in run.COLD.items()}
    suites[run.SERVICE] = (run.POOL_RATES, run.POOL_SCALE)
    pinned = {}
    for name, (rates, scale) in suites.items():
        specs = benchlib.make_specs(rates, scale=scale, seed=0)
        results, _ = submit_batch(specs, cache=None, use_cache=False)
        pinned[name] = {
            spec_label(spec): benchlib.result_digest(results[spec.key()])
            for spec in specs
        }
    text = json.dumps(pinned, indent=1, sort_keys=True) + "\n"
    benchlib.DIGESTS_PATH.write_text(text, encoding="utf-8")
    print(f"pinned {sum(map(len, pinned.values()))} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
