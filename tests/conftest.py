"""Fixtures shared by every test package."""

import pytest

from repro.api import MappingSession, SessionConfig
from repro.mapping import clear_shared_caches


@pytest.fixture
def isolated_cache_env(monkeypatch):
    """Environment cache knobs unset, process-wide memo caches cold.

    Mapping caches belong to the session (or bare flow) a test builds,
    so they are isolated by construction; what is left process-wide is
    the ``REPRO_*`` environment a bare ``MappingSession()`` reads and
    the shared memo caches.
    """
    for name in ("REPRO_CACHE_DIR", "REPRO_NO_CACHE"):
        monkeypatch.delenv(name, raising=False)
    clear_shared_caches()
    yield
    clear_shared_caches()


@pytest.fixture(scope="session")
def mp3_blocks():
    """The default (MP3) workload's target blocks, extracted once per run."""
    return MappingSession(SessionConfig()).blocks()


@pytest.fixture
def fresh_session(mp3_blocks):
    """A memory-only session with cold tiers over the shared MP3 blocks.

    Services and parity checks build on it so each one starts cold
    without re-running frontend extraction (~1 s per session).
    """
    return MappingSession(SessionConfig(), blocks=mp3_blocks)
