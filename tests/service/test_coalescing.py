"""The single-flight acceptance test: N concurrent identical requests
trigger exactly one computation, proven via the session's cache
statistics."""

import threading
import time

from repro.service import MappingService, ServiceClient, ServiceThread

from .conftest import GatedExecutor


def _lru(service) -> dict:
    return service.session.stats()["map_block"]


def test_concurrent_identical_requests_compute_once(fresh_session):
    n_requests = 6
    gate = threading.Event()
    service = MappingService(port=0, executor=GatedExecutor(gate),
                             session=fresh_session)
    with ServiceThread(service) as thread:
        client = ServiceClient(thread.base_url)
        client.wait_healthy()
        misses_before = _lru(service)["misses"]

        replies = [None] * n_requests

        def issue(i):
            replies[i] = client.request_bytes(
                "POST", "/v1/map", {"block": "inv_mdctL"})

        requesters = [threading.Thread(target=issue, args=(i,))
                      for i in range(n_requests)]
        for requester in requesters:
            requester.start()

        # Every request must have landed on the one in-flight
        # computation before the gate opens — this is what makes the
        # test deterministic rather than a race.
        deadline = time.monotonic() + 30
        while service.flight.coalesced < n_requests - 1:
            assert time.monotonic() < deadline, service.flight.stats()
            time.sleep(0.01)
        assert service.flight.in_flight == 1

        gate.set()
        for requester in requesters:
            requester.join(timeout=60)

        # one computation, N answers, all byte-identical
        assert {status for status, _body in replies} == {200}
        assert len({body for _status, body in replies}) == 1
        assert service.flight.started == 1
        assert service.flight.coalesced == n_requests - 1
        assert _lru(service)["misses"] == misses_before + 1

        # a follow-up request is a warm cache hit with the same bytes
        hits_before = _lru(service)["hits"]
        status, body = client.request_bytes("POST", "/v1/map",
                                            {"block": "inv_mdctL"})
        assert status == 200
        assert body == replies[0][1]
        assert _lru(service)["hits"] == hits_before + 1
        assert _lru(service)["misses"] == misses_before + 1


def test_distinct_requests_do_not_coalesce(fresh_session):
    gate = threading.Event()
    gate.set()                      # no gating: plain concurrent load
    service = MappingService(port=0, executor=GatedExecutor(gate),
                             session=fresh_session)
    with ServiceThread(service) as thread:
        client = ServiceClient(thread.base_url)
        client.wait_healthy()
        replies = {}

        def issue(name, payload):
            replies[name] = client.request_bytes("POST", "/v1/map",
                                                 payload)

        requesters = [
            threading.Thread(target=issue, args=(
                "imdct", {"block": "inv_mdctL"})),
            threading.Thread(target=issue, args=(
                "synth", {"block": "SubBandSynthesis"})),
        ]
        for requester in requesters:
            requester.start()
        for requester in requesters:
            requester.join(timeout=120)

        assert replies["imdct"][0] == 200
        assert replies["synth"][0] == 200
        assert replies["imdct"][1] != replies["synth"][1]
        assert service.flight.started == 2
