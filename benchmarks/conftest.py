"""Shared fixtures for the benchmark harness.

Environment knobs (so cold numbers are reproducible without editing
code):

* ``REPRO_NO_CACHE=1`` — disable the persistent disk tier of every
  environment-built session *and* clear every process-wide memo
  (shared mapping caches, Groebner bases, GCDs) before each benchmark
  test: every measurement starts truly cold.  Mapping LRUs belong to
  the sessions each benchmark builds, so they start cold anyway.
* ``REPRO_CACHE_DIR=<dir>`` — point environment-built sessions'
  persistent tier at ``<dir>`` to measure warm-process behaviour
  instead.
"""

import os

import pytest

from repro.mapping import clear_shared_caches
from repro.mp3 import make_stream
from repro.platform import Badge4


@pytest.fixture(scope="session")
def platform():
    return Badge4()


@pytest.fixture(scope="session")
def stream():
    """The shared workload: a deterministic 3-frame stereo stream."""
    return make_stream(n_frames=3, seed=2002)


@pytest.fixture(autouse=True)
def _cold_run_knob():
    """Honor REPRO_NO_CACHE: reset every process-wide memo before each
    test."""
    if os.environ.get("REPRO_NO_CACHE"):
        clear_shared_caches()
    yield


@pytest.fixture
def report(capsys):
    """Print a block of text to the real terminal (not captured)."""
    def _print(text: str) -> None:
        with capsys.disabled():
            print(text)
    return _print
