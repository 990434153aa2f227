"""Per-workload sweep benchmark: cold vs warm, every registry entry.

For each workload in the default registry (``mp3``, ``dsp``,
``jpeg_idct``, ``gsm_mac``, plus anything a future PR registers) this
measures the three phases a new workload pays on its way through the
methodology:

* **extract** — frontend symbolic execution of the declared blocks;
* **cold sweep** — every block against the full library on SA-1110
  with empty mapping caches;
* **warm sweep** — the identical sweep again, resolved from the LRUs.

Cold and warm reports must render byte-identical canonical JSON — the
benchmark doubles as a reproducibility check, mirroring the workload
conformance suite's contract.

Results land in ``BENCH_workloads.json`` at the repo root (refreshed
by the nightly benchmark job).
"""

import hashlib
import json
import time
from pathlib import Path

from repro.api import MappingSession, SessionConfig
from repro.library.builtin import full_library
from repro.mapping import clear_shared_caches
from repro.workload import DEFAULT_WORKLOAD_REGISTRY, get_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_workloads.json"


def _sweep_once(key: str, blocks: dict, library, session: MappingSession):
    start = time.perf_counter()
    sweep = session.sweep(platforms=["SA-1110"], libraries=[library],
                          blocks=blocks, workload=key)
    return time.perf_counter() - start, sweep


def test_per_workload_sweep_benchmark(report, bench_output):
    library = full_library()
    rows = []
    for key in DEFAULT_WORKLOAD_REGISTRY.names():
        entry = get_workload(key)
        clear_shared_caches()
        # Memory-only, shared by the cold and the warm sweep.
        session = MappingSession(SessionConfig())

        start = time.perf_counter()
        blocks = entry.blocks()
        extract_s = time.perf_counter() - start

        cold_s, cold = _sweep_once(key, blocks, library, session)
        warm_s, warm = _sweep_once(key, blocks, library, session)

        cold_json = cold.to_json()
        assert cold.workload == key
        assert cold_json == warm.to_json(), (
            f"{key}: cold and warm sweeps must render identical bytes")

        rows.append({
            "workload": key,
            "title": entry.workload.title,
            "blocks": list(blocks),
            "extract_seconds": extract_s,
            "cold_sweep_seconds": cold_s,
            "warm_sweep_seconds": warm_s,
            "warm_speedup": cold_s / warm_s if warm_s else None,
            "sweep_sha256": hashlib.sha256(cold_json.encode()).hexdigest(),
            # winners() keys by (block, library combo) tuples; flatten
            # for JSON.
            "winners": {f"{block} @ {combo}": name for (block, combo), name
                        in cold.winners("SA-1110").items()},
        })

    payload = {
        "bench": "per_workload_sweep",
        "platform": "SA-1110",
        "library": "REF+LM+IH+IPP (full)",
        "workloads": rows,
    }
    output = bench_output(OUTPUT)
    output.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [f"\nPer-workload sweep (SA-1110, full library) "
             f"-> {output}"]
    for row in rows:
        lines.append(
            f"  {row['workload']:<10} extract {row['extract_seconds']:.2f}s  "
            f"cold {row['cold_sweep_seconds']:.3f}s  "
            f"warm {row['warm_sweep_seconds']:.3f}s")
    report("\n".join(lines))
