"""Pinned golden digests of the differential matrices.

``tests/test_backend_differential.py`` proves the array backend equal to
the object oracle, and ``tests/test_system_differential.py`` proves the
staged pipeline equal to the frozen monolith (``tests/_legacy_gmmu.py``).
Both need the oracle alive.  This file pins what the same matrices
*produce* on the default backend, so results stay checked byte for byte
once the oracles are deleted.

A digest is the sha256 of canonical JSON (``sort_keys``, compact
separators) of ``dataclasses.asdict(SimulationResult)``: every ``SimStats``
field, interval records included, plus ``crashed``.  Traced cases also pin
the JSONL trace bytes and the metrics snapshot.  Pickle bytes are not used,
so the pins hold on Python 3.9–3.12.

Refresh the pins only in a change that means to alter simulated results::

    PYTHONPATH=src python tests/test_golden_digests.py --pin

``--pin`` runs every case on both backends and refuses to write unless
they agree.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Callable, Dict

import pytest

from repro.config import SimConfig, SMConfig
from repro.engine.simulator import Simulator
from repro.harness.baselines import build_setup
from repro.obs import Observability, write_jsonl
from repro.workloads.suite import make_workload

PINS_PATH = Path(__file__).with_name("golden_digests.json")

SETUPS = ["baseline", "hpe", "mhpe-naive", "cppe"]
RATES = [None, 0.75, 0.5]
SCALE = 0.25
#: (matrix name, apps, base config) — the two differential matrices.
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
    policy, prefetcher = build_setup(setup)
    return Simulator(
        make_workload(app, scale=SCALE),
        policy=policy,
        prefetcher=prefetcher,
        oversubscription=rate,
        config=config,
        obs=obs,
    ).run()


def _result_case(app, setup, rate, config) -> Callable[[str], str]:
    def run(backend: str) -> str:
        result = _simulate(app, setup, rate, config.with_(backend=backend))
        return _canonical_digest(dataclasses.asdict(result))

    return run


def _traced_case(app, setup, config, part) -> Callable[[str], str]:
    def run(backend: str) -> str:
        obs = Observability.enabled_()
        _simulate(app, setup, 0.5, config.with_(backend=backend), obs=obs)
        if part == "metrics":
            return _canonical_digest(obs.metrics.snapshot())
        with tempfile.TemporaryDirectory() as tmp:
            path = write_jsonl(obs.tracer.events, Path(tmp) / "trace.jsonl")
            return hashlib.sha256(path.read_bytes()).hexdigest()

    return run


def _cases() -> Dict[str, Callable[[str], str]]:
    cases: Dict[str, Callable[[str], str]] = {}
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
    backend_config = MATRICES[0][2]
    for app in ("NW", "BFS"):
        for setup in ("baseline", "cppe"):
            cases[f"backend/trace/{app}/{setup}/0.5"] = _traced_case(
                app, setup, backend_config, "trace"
            )
    return cases


CASES = _cases()


def _pins() -> Dict[str, str]:
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def test_pins_cover_every_case():
    assert sorted(_pins()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_default_backend_matches_pin(case):
    assert CASES[case](SimConfig().backend) == _pins()[case]


def _pin() -> int:
    pins = {}
    for case, run in sorted(CASES.items()):
        got = {backend: run(backend) for backend in ("array", "object")}
        if got["array"] != got["object"]:
            print(f"{case}: backends disagree, not pinning", file=sys.stderr)
            return 1
        pins[case] = got["array"]
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
