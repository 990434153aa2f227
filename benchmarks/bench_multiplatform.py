"""Multi-platform sweep benchmark: cold vs disk-warm, serial vs parallel.

The work set is ``MethodologyFlow.sweep`` over every registered
processor (SA-1110, ARM7TDMI-class, ARM926-class, generic DSP) with
the paper's library ladder and both complex blocks — the full
(block × library × platform) cross-product through the batch engine.

Four scenarios, each in a *fresh interpreter* so every number is a
true cold-process measurement:

* ``cold-serial``    — no disk tier, one worker;
* ``cold-parallel``  — no disk tier, four workers;
* ``disk-populate``  — empty cache dir, writes through;
* ``disk-warm``      — same cache dir, fresh process: the sweep must
  resolve every unique item from disk and *compute nothing*.

Every scenario also reports the sha256 of the sweep's canonical JSON,
so the benchmark doubles as a cross-process byte-parity check: worker
count and cache temperature must not change a single byte of the
Pareto fronts.

Results land in ``BENCH_multiplatform.json`` at the repo root.

This module doubles as the scenario runner: the pytest orchestrator
invokes ``python benchmarks/bench_multiplatform.py --workers N`` in a
controlled environment and reads one JSON line from stdout.
"""

import hashlib
import json
import os
import sys
import time
from pathlib import Path

from _scenarios import REPO_ROOT, spawn_scenarios

OUTPUT = REPO_ROOT / "BENCH_multiplatform.json"


def run_scenario(workers: int) -> dict:
    """Execute the sweep once in this process; return measurements."""
    from dataclasses import asdict

    from repro.api import MappingSession
    from repro.mapping import MethodologyFlow

    # A bare session reads REPRO_CACHE_DIR/REPRO_NO_CACHE, which is how
    # the orchestrator selects the scenario's disk tier.
    flow = MethodologyFlow(workers=workers, tiers=MappingSession().tiers)
    start = time.perf_counter()
    report = flow.sweep()
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


def _spawn(name: str, workers: int, cache_dir: "Path | None",
           runs: int = 1) -> list[dict]:
    """Run the sweep scenario in fresh interpreters (shared protocol)."""
    return spawn_scenarios(Path(__file__).resolve(), name, workers,
                           cache_dir, runs)


def test_multiplatform_sweep_benchmark(tmp_path, report):
    """Measure the four scenarios and emit BENCH_multiplatform.json."""
    cache_dir = tmp_path / "warm-tier"

    cold_serial = _spawn("cold-serial", workers=1, cache_dir=None, runs=2)
    cold_parallel = _spawn("cold-parallel", workers=4, cache_dir=None,
                           runs=2)
    populate = _spawn("disk-populate", workers=1, cache_dir=cache_dir)
    warm = _spawn("disk-warm", workers=4, cache_dir=cache_dir, runs=2)

    # Acceptance: a fresh process with a warm disk tier computes nothing.
    for measurement in warm:
        assert measurement["computed"] == 0, measurement
        assert measurement["disk_hits"] == measurement["unique"]

    # Byte parity: every scenario renders the identical sweep.
    digests = {m["sweep_sha256"]
               for m in cold_serial + cold_parallel + populate + warm}
    assert len(digests) == 1, digests

    serial_s = min(m["seconds"] for m in cold_serial)
    parallel_s = min(m["seconds"] for m in cold_parallel)
    warm_s = min(m["seconds"] for m in warm)
    payload = {
        "bench": "multiplatform_sweep",
        "workload": "MethodologyFlow.sweep over all registered platforms "
                    "(blocks x library ladder x platforms)",
        "available_cpus": os.cpu_count(),
        "platforms": cold_serial[0]["platforms"],
        "cells": cold_serial[0]["cells"],
        "sweep_sha256": next(iter(digests)),
        "sa1110_winners": cold_serial[0]["sa1110_winners"],
        "scenarios": cold_serial + cold_parallel + populate + warm,
        "derived": {
            "cold_serial_seconds": serial_s,
            "cold_parallel_seconds": parallel_s,
            "disk_warm_seconds": warm_s,
            "parallel_speedup_vs_serial": serial_s / parallel_s,
            "warm_speedup_vs_cold_serial": serial_s / warm_s,
            "note": "parallel speedup requires >1 CPU; on a 1-core "
                    "host the scenario measures pure engine overhead. "
                    "Block matching is cheap, so the disk tier's win "
                    "here is bounded — its payoff is skipping the "
                    "Decompose searches (see BENCH_batch_mapping.json); "
                    "what this benchmark pins is computed==0 and byte "
                    "parity across worker counts and cache states.",
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    report(f"\nMulti-platform sweep ({os.cpu_count()} cpu, "
           f"{cold_serial[0]['cells']} cells): "
           f"cold serial {serial_s:.2f}s, "
           f"cold parallel(4) {parallel_s:.2f}s, "
           f"disk-warm fresh process {warm_s:.2f}s "
           f"({serial_s / warm_s:.1f}x) -> {OUTPUT.name}")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    print(json.dumps(run_scenario(args.workers)))
