"""Fresh-interpreter scenario runner shared by the engine benchmarks.

``bench_batch_mapping.py`` and ``bench_multiplatform.py`` measure the
same thing at different surfaces: run a workload in a *fresh* python
process under a controlled cache environment and read one JSON line of
measurements from its stdout.  This module owns that protocol — the
``REPRO_NO_CACHE``/``REPRO_CACHE_DIR`` wiring, the returncode check,
and the last-stdout-line parse — so the two benchmarks cannot drift.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def spawn_scenarios(script: Path, name: str, cache_dir: "Path | None",
                    runs: int = 1) -> list[dict]:
    """Run ``script`` ``runs`` times, each in a fresh interpreter, and
    return its per-run JSON measurements.

    ``cache_dir=None`` forces truly cold runs (``REPRO_NO_CACHE=1``);
    a path points the persistent tier there instead.
    """
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    if cache_dir is None:
        env["REPRO_NO_CACHE"] = "1"
        env.pop("REPRO_CACHE_DIR", None)
    else:
        env.pop("REPRO_NO_CACHE", None)
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    results = []
    for run in range(runs):
        proc = subprocess.run(
            [sys.executable, str(script)],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0, f"{name}: {proc.stderr}"
        measurement = json.loads(proc.stdout.strip().splitlines()[-1])
        measurement["scenario"] = name
        measurement["run"] = run
        results.append(measurement)
    return results
