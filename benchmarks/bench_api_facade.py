"""Session-facade overhead: the warm `MappingSession.map` path.

The api redesign routes every frontend through `MappingSession`; this
bench pins down what the facade costs on the warm path (LRU hit +
typed-result construction) and what canonical rendering adds, and
re-asserts the redesign's core guarantee — a warm answer's
``to_json()`` is byte-identical to a cold answer from a fresh session.

Results land in ``BENCH_api_facade.json`` at the repo root.
"""

import json
import time
from pathlib import Path

from repro.api import MappingSession, SessionConfig

OUTPUT = Path(__file__).resolve().parents[1] / "BENCH_api_facade.json"

_ROUNDS = 200


def _time_per_call(fn, rounds=_ROUNDS) -> float:
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - start) / rounds


def test_facade_overhead_and_parity(report, bench_output):
    session = MappingSession(SessionConfig())
    block = session.catalog.block("inv_mdctL")
    library = session.catalog.library(("REF", "LM", "IH"))

    result = session.map(block, library)      # warms the session LRU
    fresh = MappingSession(SessionConfig(), blocks=session.blocks())
    assert fresh.map(block, library).to_json() == result.to_json()

    session_us = _time_per_call(lambda: session.map(block, library)) * 1e6
    render_us = _time_per_call(result.to_json) * 1e6

    payload = {
        "rounds": _ROUNDS,
        "warm_session_map_us": round(session_us, 2),
        "render_to_json_us": round(render_us, 2),
        "byte_parity": True,
        "note": "warm-path cost per call; the session path includes "
                "typed MapResult construction; byte parity is warm vs a "
                "fresh session's cold answer",
    }
    output = bench_output(OUTPUT)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    report(f"\napi facade warm map: session {session_us:.1f}us; to_json "
           f"{render_us:.1f}us (byte parity asserted) -> {output}")
