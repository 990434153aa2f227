"""Every built-in workload block lowers to its recorded kernels.

The golden (``kernel_digests.json`` beside this file) holds, per
workload and block, the sha256 of ``str(lower_block(block))`` and the
name and kernel sha256 of the full-library winner's ``lower_match`` on
SA-1110 (``null`` when nothing matches).  The rendered kernel lists
every instruction, so a scheduling refactor that keeps every digest
emits the same code.  Parametrized by registry key, so
``pytest tests/workload -k <key>`` (the CI conformance matrix) selects
one workload's case.

The golden is an oracle: regenerate it only for a change that is meant
to move the generated code, with
``PYTHONPATH=src python tests/workload/test_kernel_digests.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import MappingSession, SessionConfig
from repro.codegen.lower import lower_block, lower_match
from repro.library import full_library
from repro.workload import DEFAULT_WORKLOAD_REGISTRY, get_workload

GOLDEN = Path(__file__).with_name("kernel_digests.json")
WORKLOAD_KEYS = DEFAULT_WORKLOAD_REGISTRY.names()
PLATFORM = "SA-1110"


def _sha256(kernel) -> str:
    return hashlib.sha256(str(kernel).encode()).hexdigest()


def kernel_digests(key: str) -> dict:
    """``{block: {"block": digest, "winner": name, "match": digest}}``."""
    session = MappingSession(SessionConfig())
    library = full_library()
    out = {}
    for name, block in get_workload(key).blocks().items():
        winner = session.map(block, library, PLATFORM, workload=key).winner
        out[name] = {
            "block": _sha256(lower_block(block)),
            "winner": winner.element.name if winner else None,
            "match": _sha256(lower_match(block, winner)) if winner else None,
        }
    return out


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_registered_workload():
    assert sorted(_golden()) == sorted(WORKLOAD_KEYS)


@pytest.mark.parametrize("key", WORKLOAD_KEYS)
def test_kernel_digests_match_the_golden(key):
    assert kernel_digests(key) == _golden()[key]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {key: kernel_digests(key) for key in WORKLOAD_KEYS}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
