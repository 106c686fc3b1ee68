"""Pinned golden digests: simulated results checked byte for byte.

The pins were taken while two independent implementations of the memory
system's data structures still existed, and only where both agreed: a
policy x oversubscription matrix on two configs, their crash, trace and
metrics cases, a two-instance sharded run, hand-built workloads at the
edges of the chunk arithmetic, and registry-resolved n-gram setups.

A digest is the sha256 of canonical JSON (``sort_keys``, compact
separators) of ``dataclasses.asdict(SimulationResult)``: every ``SimStats``
field, interval records included, plus ``crashed``.  Traced cases also pin
the JSONL trace bytes and the metrics snapshot.  Pickle bytes are not used,
so the pins hold on Python 3.9–3.12.

Refresh the pins only in a change that means to alter simulated results::

    PYTHONPATH=src python tests/test_golden_digests.py --pin
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict

import numpy as np
import pytest

from repro.config import SimConfig, SMConfig
from repro.engine.multi import ShardedSimulator
from repro.engine.simulator import Simulator
from repro.harness.baselines import build_setup
from repro.harness.experiment import RunSpec, run_one
from repro.obs import Observability, write_jsonl
from repro.workloads.base import Workload
from repro.workloads.suite import make_workload

PINS_PATH = Path(__file__).with_name("golden_digests.json")

SETUPS = ["baseline", "hpe", "mhpe-naive", "cppe"]
RATES = [None, 0.75, 0.5]
SCALE = 0.25
#: (matrix name, apps, base config) — the two result matrices.
MATRICES = [
    ("backend", ["NW", "BFS"], SimConfig(sm=SMConfig(num_sms=4))),
    ("system", ["NW", "SRD", "BFS"], SimConfig()),
]


def _canonical_digest(obj: object) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _crash_config(base: SimConfig) -> SimConfig:
    return base.with_(
        uvm=dataclasses.replace(base.uvm, crash_eviction_budget_factor=0.5)
    )


def _simulate(app, setup, rate, config, obs=None):
    workload = app if isinstance(app, Workload) else make_workload(app, scale=SCALE)
    policy, prefetcher = build_setup(setup)
    return Simulator(
        workload,
        policy=policy,
        prefetcher=prefetcher,
        oversubscription=rate,
        config=config,
        obs=obs,
    ).run()


def _result_case(app, setup, rate, config) -> Callable[[], str]:
    def run() -> str:
        result = _simulate(app, setup, rate, config)
        return _canonical_digest(dataclasses.asdict(result))

    return run


def _sharded_case(config) -> Callable[[], str]:
    """NW under ``cppe`` at 0.5 split over two GPU instances."""

    def run() -> str:
        pairs = [build_setup("cppe") for _ in range(2)]
        result = ShardedSimulator(
            make_workload("NW", scale=SCALE),
            policies=[p for p, _ in pairs],
            prefetchers=[pf for _, pf in pairs],
            oversubscription=0.5,
            config=config,
        ).run()
        return _canonical_digest(dataclasses.asdict(result))

    return run


def _registry_case(setup, config) -> Callable[[], str]:
    """NW at 0.75 through ``run_one`` (registry-resolved setup names)."""

    def run() -> str:
        spec = RunSpec("NW", setup, 0.75, scale=SCALE)
        result = run_one(spec, config, use_cache=False)
        return _canonical_digest(dataclasses.asdict(result))

    return run


def _edge_workloads() -> Dict[str, Workload]:
    """Small hand-built shapes at the edges of the chunk arithmetic."""
    tail = np.arange(40, dtype=np.int64)
    tail2 = np.arange(200, dtype=np.int64)
    fits = np.arange(192, dtype=np.int64)
    straddle = [base + off for base in (60, 124, 188) for off in range(8)]
    return {
        # One partial chunk: masks must not reach past the 40th page.
        "tail40": Workload(
            name="tail", pattern_type="I", footprint_pages=40,
            accesses=np.concatenate([tail] * 4),
        ),
        # Three chunks plus an 8-page tail forced through eviction.
        "tail200": Workload(
            name="tail2", pattern_type="IV", footprint_pages=200,
            accesses=np.concatenate([tail2] * 5),
        ),
        # Fits in memory: install and touch only, no eviction.
        "fit192": Workload(
            name="fits", pattern_type="I", footprint_pages=192,
            accesses=np.concatenate([fits] * 3),
        ),
        # Strides across chunk boundaries: prefetch masks span two chunks.
        "straddle": Workload(
            name="straddle", pattern_type="II", footprint_pages=256,
            accesses=np.array(straddle * 6, dtype=np.int64),
        ),
    }


#: (edge workload, setup, rate) cases, run on the first matrix's config.
EDGE_CASES = [
    ("tail40", "cppe", None),
    ("tail40", "cppe", 0.5),
    ("tail200", "baseline", 0.6),
    ("fit192", "cppe", None),
    ("straddle", "cppe", None),
    ("straddle", "cppe", 0.5),
]


def _traced_case(app, setup, config, part) -> Callable[[], str]:
    def run() -> str:
        obs = Observability.enabled_()
        _simulate(app, setup, 0.5, config, obs=obs)
        if part == "metrics":
            return _canonical_digest(obs.metrics.snapshot())
        with tempfile.TemporaryDirectory() as tmp:
            path = write_jsonl(obs.tracer.events, Path(tmp) / "trace.jsonl")
            return hashlib.sha256(path.read_bytes()).hexdigest()

    return run


def _cases() -> Dict[str, Callable[[], str]]:
    cases: Dict[str, Callable[[], str]] = {}
    for name, apps, config in MATRICES:
        for app in apps:
            for setup in SETUPS:
                for rate in RATES:
                    cases[f"{name}/{app}/{setup}/{rate}"] = _result_case(
                        app, setup, rate, config
                    )
        cases[f"{name}/crash/NW/baseline/0.5"] = _result_case(
            "NW", "baseline", 0.5, _crash_config(config)
        )
        cases[f"{name}/metrics/NW/cppe/0.5"] = _traced_case(
            "NW", "cppe", config, "metrics"
        )
    four_sm_config = MATRICES[0][2]
    for app in ("NW", "BFS"):
        for setup in ("baseline", "cppe"):
            cases[f"backend/trace/{app}/{setup}/0.5"] = _traced_case(
                app, setup, four_sm_config, "trace"
            )
    cases["backend/sharded2/NW/cppe/0.5"] = _sharded_case(four_sm_config)
    edges = _edge_workloads()
    for name, setup, rate in EDGE_CASES:
        cases[f"edge/{name}/{setup}/{rate}"] = _result_case(
            edges[name], setup, rate, four_sm_config
        )
    for setup in ("ngram", "mhpe+ngram"):
        cases[f"registry/NW/{setup}/0.75"] = _registry_case(setup, four_sm_config)
    return cases


CASES = _cases()


def _pins() -> Dict[str, str]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def test_pins_cover_every_case():
    assert sorted(_pins()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_default_backend_matches_pin(case):
    assert CASES[case]() == _pins()[case]


def _pin() -> int:
    pins = {case: run() for case, run in sorted(CASES.items())}
    PINS_PATH.write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"pinned {len(pins)} digests to {PINS_PATH}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:] != ["--pin"]:
        print(__doc__)
        sys.exit(2)
    sys.exit(_pin())
