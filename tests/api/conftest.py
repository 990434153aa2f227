"""Shared fixtures and builders for the session-facade test suite."""

import functools

import pytest

import repro.cli
from repro.api import MappingSession
from repro.frontend.extract import TargetBlock
from repro.library import Library, LibraryElement
from repro.platform import OperationTally
from repro.symalg import Polynomial


def tiny_block() -> TargetBlock:
    """A two-output butterfly block, cheap enough to map per test."""
    x0 = Polynomial.variable("x_0")
    x1 = Polynomial.variable("x_1")
    return TargetBlock(
        name="tiny_butterfly",
        outputs={"o0": x0 + x1, "o1": x0 - x1},
        input_variables=("x_0", "x_1"),
    )


def tiny_library() -> Library:
    """A one-element library whose rows cover :func:`tiny_block`."""
    i0 = Polynomial.variable("in0")
    i1 = Polynomial.variable("in1")
    element = LibraryElement(
        name="tiny_butterfly_el",
        library="IH",
        polynomials=(i0 + i1, i0 - i1),
        input_format="q",
        output_format="q",
        accuracy=1e-9,
        cost=OperationTally(int_alu=2),
    )
    return Library("demo", [element])


@pytest.fixture
def cli_reuses_extraction(monkeypatch, mp3_blocks):
    """CLI invocations build their sessions as usual (config from the
    environment and ``--cache-dir``) but over the run's one MP3
    extraction, instead of re-running the frontend per call (~1 s)."""
    monkeypatch.setattr(repro.cli, "MappingSession",
                        functools.partial(MappingSession, blocks=mp3_blocks))
