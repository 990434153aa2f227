"""Every built-in workload block measures to its recorded bytes.

The golden (``verify_digests.json`` beside this file) holds, per
workload and block, the sha256 of the full-library ``verify`` JSON and
of the measured ``pareto(measure=True)`` JSON on SA-1110.  Both carry
every measured error and SNR as canonical floats, so a change to how
generated kernels execute that keeps every digest measures the same
numbers, bit for bit.  Parametrized by registry key, so
``pytest tests/workload -k <key>`` (the CI conformance matrix) selects
one workload's case.

The golden is an oracle: regenerate it only for a change that is meant
to move a measurement, with
``PYTHONPATH=src python tests/workload/test_verify_digests.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import MappingSession, SessionConfig
from repro.library import full_library
from repro.workload import DEFAULT_WORKLOAD_REGISTRY, get_workload

GOLDEN = Path(__file__).with_name("verify_digests.json")
WORKLOAD_KEYS = DEFAULT_WORKLOAD_REGISTRY.names()
PLATFORM = "SA-1110"


def _sha256(result) -> str:
    return hashlib.sha256(result.to_json()).hexdigest()


def verify_digests(key: str) -> dict:
    """``{block: {"verify": digest, "pareto_measured": digest}}``."""
    session = MappingSession(SessionConfig())
    library = full_library()
    out = {}
    for name, block in get_workload(key).blocks().items():
        verified = session.verify(block, library, PLATFORM, workload=key)
        front = session.pareto(block, library, PLATFORM, workload=key,
                               measure=True)
        out[name] = {"verify": _sha256(verified),
                     "pareto_measured": _sha256(front)}
    return out


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_registered_workload():
    assert sorted(_golden()) == sorted(WORKLOAD_KEYS)


@pytest.mark.parametrize("key", WORKLOAD_KEYS)
def test_verify_digests_match_the_golden(key):
    assert verify_digests(key) == _golden()[key]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {key: verify_digests(key) for key in WORKLOAD_KEYS}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
