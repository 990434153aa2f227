"""Every built-in workload block extracts to its recorded polynomials.

The golden (``block_digests.json`` beside this file) holds, per
workload and block, the block's ``input_variables`` and each output's
name and :meth:`~repro.symalg.polynomial.Polynomial.content_digest`.
Polynomials are canonical, so a frontend refactor that keeps every
digest computes the same blocks.  Parametrized by registry key, so
``pytest tests/workload -k <key>`` (the CI conformance matrix) selects
one workload's case.

The golden is an oracle: regenerate it only for a change that is meant
to move a block's polynomials, with
``PYTHONPATH=src python tests/workload/test_block_digests.py``.
"""

import json
from pathlib import Path

import pytest

from repro.workload import DEFAULT_WORKLOAD_REGISTRY, get_workload

GOLDEN = Path(__file__).with_name("block_digests.json")
WORKLOAD_KEYS = DEFAULT_WORKLOAD_REGISTRY.names()


def block_digests(key: str) -> dict:
    """``{block: {"input_variables": [...], "outputs": {name: digest}}}``."""
    return {
        name: {
            "input_variables": list(block.input_variables),
            "outputs": {out: poly.content_digest()
                        for out, poly in block.outputs.items()},
        }
        for name, block in get_workload(key).blocks().items()
    }


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_registered_workload():
    assert sorted(_golden()) == sorted(WORKLOAD_KEYS)


@pytest.mark.parametrize("key", WORKLOAD_KEYS)
def test_block_digests_match_the_golden(key):
    expected = _golden()[key]
    got = block_digests(key)
    assert list(got) == list(expected)
    for name, want in expected.items():
        assert got[name]["input_variables"] == want["input_variables"], name
        # Output order is part of the block: compare as ordered pairs.
        assert list(got[name]["outputs"].items()) == \
            list(want["outputs"].items()), name


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {key: block_digests(key) for key in WORKLOAD_KEYS}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
