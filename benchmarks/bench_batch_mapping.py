"""Batch-mapping engine benchmark: cold vs disk-warm.

The work set is the methodology's Table 4/5 workload — the two complex
blocks (IMDCT loop nest, polyphase matrixing) against the LM+IH and
LM+IH+IPP library ladders — plus the Decompose searches the paper's
examples exercise (the Section-3 target and Taylor models of libm
calls), the chunky cold searches the disk tier exists to skip.

Three scenarios, each in a *fresh interpreter* so every number is a
true cold-process measurement (back-to-back runs per scenario):

* ``cold``           — no disk tier;
* ``disk-populate``  — empty cache dir, writes through;
* ``disk-warm``      — same cache dir, fresh process: the engine must
  resolve every unique item from disk and *compute nothing*.

Results land in ``BENCH_batch_mapping.json`` at the repo root.

This module doubles as the scenario runner: the pytest orchestrator
invokes ``python benchmarks/bench_batch_mapping.py`` in a controlled
environment and reads one JSON line from stdout.
"""

import json
import os
import sys
import time
from pathlib import Path

from _scenarios import REPO_ROOT, spawn_scenarios

OUTPUT = REPO_ROOT / "BENCH_batch_mapping.json"


def work_items():
    """The benchmark's (block x library x platform) work set."""
    from repro.library import Library, full_library
    from repro.library.builtin import (inhouse_library, linux_math_library,
                                       reference_library)
    from repro.mapping import BatchItem, methodology_blocks
    from repro.platform import Badge4
    from repro.symalg import symbols, taylor

    platform = Badge4()
    lm_ih = Library.union(reference_library(), linux_math_library(),
                          inhouse_library())
    full = full_library()
    x, y = symbols("x y")
    imdct, matrixing = methodology_blocks().values()

    def model(fn, degree):
        return taylor(fn, degree).substitute({"_arg": x})

    items = [
        # Table 4: LM+IH pass maps both blocks.
        BatchItem.for_block(imdct, lm_ih, platform, tolerance=1e-6),
        BatchItem.for_block(matrixing, lm_ih, platform, tolerance=1e-6),
        # Table 5: the full ladder re-maps the same blocks.
        BatchItem.for_block(imdct, full, platform, tolerance=1e-6),
        BatchItem.for_block(matrixing, full, platform, tolerance=1e-6),
        # The Section-3 example and libm Taylor models, decomposed
        # against the full ladder (the chunky cold searches).
        BatchItem.for_target(x + x ** 3 * y ** 2 - 2 * x * y ** 3,
                             full, platform),
        BatchItem.for_target(model("exp", 4), full, platform,
                             accuracy_budget=5e-2),
        BatchItem.for_target(model("sin", 5), full, platform,
                             accuracy_budget=5e-2),
        BatchItem.for_target(model("cos", 4), full, platform,
                             accuracy_budget=5e-2),
        BatchItem.for_target(model("log1p", 4), full, platform,
                             accuracy_budget=5e-2),
        BatchItem.for_target((x + y) ** 3 - x ** 3 - y ** 3, full,
                             platform),
    ]
    return items


def run_scenario() -> dict:
    """Execute the work set once in this process; return measurements."""
    from dataclasses import asdict

    from repro.api import MappingSession
    from repro.mapping import run_batch

    items = work_items()
    # A bare session reads REPRO_CACHE_DIR/REPRO_NO_CACHE, which is how
    # the orchestrator selects the scenario's disk tier.
    tiers = MappingSession().tiers
    start = time.perf_counter()
    report = run_batch(items, tiers=tiers)
    elapsed = time.perf_counter() - start
    return {"seconds": elapsed, "items": len(items),
            **asdict(report.stats)}


def _spawn(name: str, cache_dir: "Path | None", runs: int = 1) -> list[dict]:
    """Run the batch scenario in fresh interpreters (shared protocol)."""
    return spawn_scenarios(Path(__file__).resolve(), name, cache_dir, runs)


def test_batch_mapping_benchmark(tmp_path, report, bench_output):
    """Measure the three scenarios and emit BENCH_batch_mapping.json."""
    cache_dir = tmp_path / "warm-tier"

    cold = _spawn("cold", cache_dir=None, runs=2)
    populate = _spawn("disk-populate", cache_dir=cache_dir)
    warm = _spawn("disk-warm", cache_dir=cache_dir, runs=2)

    # The acceptance bar: a fresh process with a warm disk tier skips
    # decompose entirely — every unique item resolves from disk.
    for measurement in warm:
        assert measurement["computed"] == 0, measurement
        assert measurement["disk_hits"] == measurement["unique"]

    cold_s = min(m["seconds"] for m in cold)
    warm_s = min(m["seconds"] for m in warm)
    payload = {
        "bench": "batch_mapping",
        "workload": "Table 4/5 block set + Decompose searches "
                    "(see work_items())",
        "available_cpus": os.cpu_count(),
        "scenarios": cold + populate + warm,
        "derived": {
            "cold_seconds": cold_s,
            "disk_warm_seconds": warm_s,
            "warm_speedup_vs_cold": cold_s / warm_s,
        },
    }
    output = bench_output(OUTPUT)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    report(f"\nBatch mapping ({os.cpu_count()} cpu): "
           f"cold {cold_s:.2f}s, "
           f"disk-warm fresh process {warm_s:.3f}s "
           f"({cold_s / warm_s:,.0f}x) -> {output}")


if __name__ == "__main__":
    sys.path.insert(0, str(REPO_ROOT / "src"))
    print(json.dumps(run_scenario()))
