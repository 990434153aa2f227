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

A timed run refreshes the recorded ``BENCH_*.json`` files at the repo
root; under ``--benchmark-disable`` they land in each test's
``tmp_path`` instead (see :func:`bench_output`).
"""

import os
from pathlib import Path

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
def bench_output(request, tmp_path):
    """``bench_output(recorded)``: where a bench writes its JSON.

    ``recorded`` is the baseline's repo-root path.  A timed run writes
    there.  Under ``--benchmark-disable`` (the CI smoke) the numbers are
    not the run's to record, so the file goes to ``tmp_path`` and the
    committed baselines stay as they are.
    """
    config = request.config
    smoke = (config.getoption("benchmark_disable", False)
             and not config.getoption("benchmark_enable", False))

    def where(recorded: Path) -> Path:
        return tmp_path / recorded.name if smoke else recorded
    return where


@pytest.fixture
def report(capsys):
    """Print a block of text to the real terminal (not captured)."""
    def _print(text: str) -> None:
        with capsys.disabled():
            print(text)
    return _print
