"""Shared fixtures for the service-layer test suite."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import MappingSession, SessionConfig
from repro.service import MappingService, ServiceClient, ServiceThread


class GatedExecutor(ThreadPoolExecutor):
    """A request executor whose jobs wait for an event before running.

    Injected into :class:`MappingService` to make coalescing
    deterministic: the first request's computation blocks on the gate
    until the test has piled N identical requests onto the flight,
    then the gate opens and exactly one computation serves them all.
    """

    def __init__(self, gate: threading.Event, max_workers: int = 2):
        super().__init__(max_workers=max_workers,
                         thread_name_prefix="repro-gated")
        self._gate = gate

    def submit(self, fn, *args, **kwargs):
        def gated():
            assert self._gate.wait(timeout=60), "gate never opened"
            return fn(*args, **kwargs)
        return super().submit(gated)


@pytest.fixture(scope="module")
def live_service(mp3_blocks):
    """One service instance shared by a module's round-trip tests."""
    session = MappingSession(SessionConfig(), blocks=mp3_blocks)
    with ServiceThread(MappingService(port=0, session=session)) as thread:
        client = ServiceClient(thread.base_url)
        client.wait_healthy()
        yield thread.service, client
