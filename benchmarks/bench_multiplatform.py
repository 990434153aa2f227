"""Multi-platform sweep benchmark: cold vs disk-warm.

The work set is ``MappingSession.sweep`` over every registered
processor (SA-1110, ARM7TDMI-class, ARM926-class, generic DSP) with
the paper's library ladder and both complex blocks — the full
(block × library × platform) cross-product through the batch engine.

Three scenarios, each in a *fresh interpreter* so every number is a
true cold-process measurement:

* ``cold``           — no disk tier;
* ``disk-populate``  — empty cache dir, writes through;
* ``disk-warm``      — same cache dir, fresh process: the sweep must
  resolve every unique item from disk and *compute nothing*.

Every scenario also reports the sha256 of the sweep's canonical JSON,
so the benchmark doubles as a cross-process byte-parity check: cache
temperature must not change a single byte of the Pareto fronts.

Results land in ``BENCH_multiplatform.json`` at the repo root.

This module doubles as the scenario runner: the pytest orchestrator
invokes ``python benchmarks/bench_multiplatform.py`` in a controlled
environment and reads one JSON line from stdout.
"""

import hashlib
import json
import os
import sys
import time
from pathlib import Path

from _scenarios import REPO_ROOT, spawn_scenarios

OUTPUT = REPO_ROOT / "BENCH_multiplatform.json"


def run_scenario() -> dict:
    """Execute the sweep once in this process; return measurements."""
    from dataclasses import asdict

    from repro.api import MappingSession

    # A bare session reads REPRO_CACHE_DIR/REPRO_NO_CACHE, which is how
    # the orchestrator selects the scenario's disk tier.
    session = MappingSession()
    start = time.perf_counter()
    report = session.sweep()
    elapsed = time.perf_counter() - start
    rendered = report.to_json()
    return {
        "seconds": elapsed,
        "platforms": list(report.platforms),
        "cells": len(report.entries),
        "sweep_sha256": hashlib.sha256(rendered.encode()).hexdigest(),
        "sa1110_winners": sorted({name for name in
                                  report.winners("SA-1110").values()
                                  if name is not None}),
        **asdict(report.stats),
    }


def _spawn(name: str, cache_dir: "Path | None", runs: int = 1) -> list[dict]:
    """Run the sweep scenario in fresh interpreters (shared protocol)."""
    return spawn_scenarios(Path(__file__).resolve(), name, cache_dir, runs)


def test_multiplatform_sweep_benchmark(tmp_path, report, bench_output):
    """Measure the three scenarios and emit BENCH_multiplatform.json."""
    cache_dir = tmp_path / "warm-tier"

    cold = _spawn("cold", cache_dir=None, runs=2)
    populate = _spawn("disk-populate", cache_dir=cache_dir)
    warm = _spawn("disk-warm", cache_dir=cache_dir, runs=2)

    # Acceptance: a fresh process with a warm disk tier computes nothing.
    for measurement in warm:
        assert measurement["computed"] == 0, measurement
        assert measurement["disk_hits"] == measurement["unique"]

    # Byte parity: every scenario renders the identical sweep.
    digests = {m["sweep_sha256"] for m in cold + populate + warm}
    assert len(digests) == 1, digests

    cold_s = min(m["seconds"] for m in cold)
    warm_s = min(m["seconds"] for m in warm)
    payload = {
        "bench": "multiplatform_sweep",
        "workload": "MappingSession.sweep over all registered platforms "
                    "(blocks x library ladder x platforms)",
        "available_cpus": os.cpu_count(),
        "platforms": cold[0]["platforms"],
        "cells": cold[0]["cells"],
        "sweep_sha256": next(iter(digests)),
        "sa1110_winners": cold[0]["sa1110_winners"],
        "scenarios": cold + populate + warm,
        "derived": {
            "cold_seconds": cold_s,
            "disk_warm_seconds": warm_s,
            "warm_speedup_vs_cold": cold_s / warm_s,
            "note": "Block matching is cheap, so the disk tier's win "
                    "here is bounded — its payoff is skipping the "
                    "Decompose searches (see BENCH_batch_mapping.json); "
                    "what this benchmark pins is computed==0 and byte "
                    "parity across cache states.",
        },
    }
    output = bench_output(OUTPUT)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    report(f"\nMulti-platform sweep ({os.cpu_count()} cpu, "
           f"{cold[0]['cells']} cells): "
           f"cold {cold_s:.2f}s, "
           f"disk-warm fresh process {warm_s:.2f}s "
           f"({cold_s / warm_s:.1f}x) -> {output}")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    print(json.dumps(run_scenario()))
