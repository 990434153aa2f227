"""Shared fixtures for the resilience (chaos) suite.

CI's chaos job runs this directory across a seed matrix
(``REPRO_CHAOS_SEED``); every plan built on the ``chaos_seed`` fixture
replays bit-for-bit under the same seed, so a red matrix cell is
reproducible locally by exporting one environment variable.
"""

import os

import pytest

from repro.library import Library, LibraryElement
from repro.platform import OperationTally
from repro.symalg import Polynomial


@pytest.fixture
def chaos_seed() -> int:
    """The suite-wide fault-plan seed (CI sets REPRO_CHAOS_SEED)."""
    return int(os.environ.get("REPRO_CHAOS_SEED", "0"))


def demo_library() -> Library:
    """A one-element demo library (``sq2y``: in0^2 - 2*in1), cheap
    enough that chaos tests can afford many cold computations."""
    i0 = Polynomial.variable("in0")
    i1 = Polynomial.variable("in1")
    return Library("demo", [LibraryElement(
        name="sq2y", library="IH", polynomials=(i0 ** 2 - 2 * i1,),
        input_format="q", output_format="q", accuracy=1e-9,
        cost=OperationTally(int_mul=1, int_alu=1))])
