"""The service under chaos: every request gets a well-formed answer.

The acceptance bar for the whole resilience layer, stated as tests:
with faults firing across the cache and dispatch paths the service
answers every request with 200, 429 or 503 — never a hung connection,
never a corrupt payload — and every 200 body is byte-identical to the
fault-free answer.
"""

import http.client
import json
import sqlite3
import threading
import time

from repro.errors import ServiceError
from repro.resilience import FaultPlan, FaultRule
from repro.service import (FleetSupervisor, MappingService, ServiceClient,
                           ServiceThread)

from ..service.conftest import GatedExecutor


def _raw_request(service, method: str, path: str, payload=None):
    """One request over a fresh socket, headers included in the answer.

    The ServiceClient hides headers (and retries); chaos assertions
    need the raw status line, ``Retry-After`` and the exact body bytes.
    """
    conn = http.client.HTTPConnection(service.host, service.port,
                                      timeout=30)
    try:
        body = None
        headers = {}
        if payload is not None:
            body = json.dumps(payload).encode("ascii")
            headers["Content-Type"] = "application/json"
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        return (response.status, dict(response.getheaders()),
                response.read())
    finally:
        conn.close()


class TestChaosAcceptance:
    PAYLOADS = [
        {"block": "inv_mdctL"},
        {"block": "inv_mdctL", "platform": "DSP"},
        {"block": "SubBandSynthesis", "platform": "ARM926"},
    ]

    def test_only_clean_statuses_and_faithful_bodies(self, tmp_path,
                                                     chaos_seed):
        """Disk faults + accept sheds + dispatch delays, many requests:
        statuses stay in {200, 503} and every 200 body matches the
        fault-free wire bytes exactly."""
        plan = FaultPlan([
            FaultRule("disk_cache.read", probability=0.5,
                      error=lambda: sqlite3.OperationalError(
                          "injected: disk I/O error")),
            FaultRule("disk_cache.write", probability=0.5,
                      error=lambda: sqlite3.OperationalError(
                          "injected: database is locked")),
            FaultRule("service.accept", probability=0.2,
                      error=lambda: ServiceError(
                          503, "injected: accept shed", retry_after=1.0)),
            FaultRule("service.dispatch", probability=0.3, delay=0.02),
        ], seed=chaos_seed)
        service = MappingService(port=0, cache_dir=str(tmp_path / "cache"))
        with ServiceThread(service) as thread:
            client = ServiceClient(thread.base_url)
            client.wait_healthy()
            # Chaos first, while the caches are cold: cold lookups and
            # result writes actually touch the (faulty) disk tier.
            statuses = []
            chaos_bodies = []
            with plan.activate():
                for _round in range(4):
                    for payload in self.PAYLOADS:
                        status, body = client.request_bytes(
                            "POST", "/v1/map", payload)
                        statuses.append(status)
                        if status == 200:
                            key = json.dumps(payload, sort_keys=True)
                            chaos_bodies.append((key, body))
            # Fault-free replay for the reference bytes (warm-vs-cold
            # parity is pinned by the service suite, so warm clean
            # bytes are the canonical answer).
            clean = {}
            for payload in self.PAYLOADS:
                status, body = client.request_bytes("POST", "/v1/map",
                                                    payload)
                assert status == 200
                clean[json.dumps(payload, sort_keys=True)] = body
            for key, body in chaos_bodies:
                assert body == clean[key]
            assert set(statuses) <= {200, 503}
            assert 200 in statuses
            hits = plan.counts()["hits"]
            assert hits.get("disk_cache.write", 0) > 0
            assert hits.get("service.accept", 0) > 0

    def test_disk_corruption_degrades_to_memory_only_service(
            self, tmp_path, chaos_seed):
        """A corrupted store trips the breaker; the service keeps
        answering 200 from memory, and /v1/stats says why."""
        cache_dir = tmp_path / "cache"
        service = MappingService(port=0, cache_dir=str(cache_dir))
        with ServiceThread(service) as thread:
            client = ServiceClient(thread.base_url)
            client.wait_healthy()
            status, first = client.request_bytes(
                "POST", "/v1/map", {"block": "inv_mdctL"})
            assert status == 200
            service.session.tiers.disk().breaker.trip()
            status, again = client.request_bytes(
                "POST", "/v1/map", {"block": "inv_mdctL"})
            assert status == 200
            assert again == first
            stats = client.stats()
            assert stats["caches"]["disk"]["broken"] is True
            assert stats["caches"]["disk"]["breaker"]["state"] == "open"


class TestOverload:
    def test_admission_bound_sheds_429_with_retry_after(self, fresh_session):
        gate = threading.Event()
        service = MappingService(port=0, executor=GatedExecutor(gate),
                                 session=fresh_session,
                                 max_inflight=1, retry_after_hint=1.0)
        thread = ServiceThread(service)
        thread.__enter__()
        try:
            client = ServiceClient(thread.base_url)
            client.wait_healthy()
            outcome = {}

            def issue():
                outcome["reply"] = client.request_bytes(
                    "POST", "/v1/map", {"block": "inv_mdctL"})

            holder = threading.Thread(target=issue)
            holder.start()
            deadline = time.monotonic() + 30
            while service.admission.inflight < 1:
                assert time.monotonic() < deadline, "request never admitted"
                time.sleep(0.01)

            status, headers, body = _raw_request(
                service, "POST", "/v1/map", {"block": "inv_mdctL"})
            assert status == 429
            assert headers["Retry-After"] == "1"
            assert headers["Connection"] == "close"
            assert "over capacity" in json.loads(body)["error"]

            gate.set()
            holder.join(timeout=60)
            assert outcome["reply"][0] == 200
            stats = client.stats()["service"]["admission"]
            assert stats["endpoints"]["/v1/map"] == \
                {"admitted": 1, "shed": 1}
            assert stats["max_inflight"] == 1
        finally:
            gate.set()
            thread.__exit__(None, None, None)


class TestDrain:
    def test_drain_sheds_new_work_finishes_old_then_stops(
            self, fresh_session):
        import asyncio

        gate = threading.Event()
        service = MappingService(port=0, executor=GatedExecutor(gate),
                                 session=fresh_session,
                                 retry_after_hint=2.0)
        thread = ServiceThread(service)
        thread.__enter__()
        try:
            client = ServiceClient(thread.base_url)
            client.wait_healthy()
            outcome = {}

            def issue():
                outcome["reply"] = client.request_bytes(
                    "POST", "/v1/map", {"block": "inv_mdctL"})

            requester = threading.Thread(target=issue)
            requester.start()
            deadline = time.monotonic() + 30
            while service.admission.inflight < 1:
                assert time.monotonic() < deadline, "request never admitted"
                time.sleep(0.01)

            drain_future = asyncio.run_coroutine_threadsafe(
                service.drain(grace=60), thread._loop)
            deadline = time.monotonic() + 30
            while not service.draining:
                assert time.monotonic() < deadline
                time.sleep(0.01)

            # New work during the drain: refused retryably, not hung.
            status, headers, body = _raw_request(
                service, "POST", "/v1/map", {"block": "inv_mdctL"})
            assert status == 503
            assert headers["Retry-After"] == "2"
            assert headers["Connection"] == "close"
            assert "draining" in json.loads(body)["error"]

            # The admitted request still finishes with a full answer.
            gate.set()
            requester.join(timeout=60)
            status, reply = outcome["reply"]
            assert status == 200
            assert json.loads(reply)["winner"] == "IppsMDCTInv_MP3_32s"
            drain_future.result(timeout=60)
            assert service.admission.stats()["shed"] == 1
        finally:
            gate.set()
            thread.__exit__(None, None, None)


class TestFleetChaos:
    """Chaos against the multi-process fleet (CI's ``mode: fleet``
    matrix cell; selected with ``-k fleet``).

    The ``fleet.worker`` site is armed in the *parent* before the
    supervisor forks, so every worker inherits the active plan — the
    only way a test can reach into processes it never constructs.  A
    firing rule kills the worker mid-request (``os._exit``); the
    client sees a severed connection, retries, and must end up with
    the same clean contract the single-process suite pins: statuses
    in {200, 429, 503}, every 200 byte-identical to fault-free.
    """

    PAYLOADS = [
        {"block": "inv_mdctL"},
        {"block": "inv_mdctL", "platform": "DSP"},
        {"block": "SubBandSynthesis", "platform": "ARM926"},
    ]

    def test_worker_kills_stay_inside_the_status_contract(
            self, tmp_path, chaos_seed):
        plan = FaultPlan([
            # Each worker's inherited plan copy draws its own stream;
            # times=2 bounds the kills per worker so the run always
            # converges while still exercising respawn.
            FaultRule("fleet.worker", probability=0.10, times=2,
                      error=lambda: RuntimeError("injected: worker kill")),
            FaultRule("service.dispatch", probability=0.2, delay=0.02),
        ], seed=chaos_seed)
        supervisor = FleetSupervisor(
            workers=2, port=0, cache_dir=str(tmp_path / "cache"),
            respawn_backoff=0.05, drain_grace=5.0)
        statuses, chaos_bodies = [], []
        with plan.activate():
            with supervisor:
                client = ServiceClient(
                    f"http://127.0.0.1:{supervisor.port}")
                client.wait_healthy()
                for _round in range(6):
                    for payload in self.PAYLOADS:
                        status, body = client.request_bytes(
                            "POST", "/v1/map", payload)
                        statuses.append(status)
                        if status == 200:
                            key = json.dumps(payload, sort_keys=True)
                            chaos_bodies.append((key, body))
                # Reference-byte replay on the same fleet.  The
                # nested empty plan disarms the *parent* (so workers
                # respawned from here on come up chaos-free); already
                # -running workers may spend what is left of their
                # kill budget, which the client's connection retries
                # absorb — the 200 bytes are what must not change.
                clean = {}
                with FaultPlan([], seed=chaos_seed).activate():
                    for payload in self.PAYLOADS:
                        status, body = client.request_bytes(
                            "POST", "/v1/map", payload)
                        assert status == 200
                        clean[json.dumps(payload, sort_keys=True)] = body
                for key, body in chaos_bodies:
                    assert body == clean[key]
                assert set(statuses) <= {200, 429, 503}
                assert 200 in statuses
                final = supervisor.status()
                assert all(final["alive"])

    def test_fleet_drain_refuses_new_work_cleanly(self, tmp_path):
        """SIGTERM-style stop mid-traffic: the PR-7 drain machinery
        runs per worker, and the port closes without a hung client."""
        supervisor = FleetSupervisor(
            workers=2, port=0, cache_dir=str(tmp_path / "cache"),
            drain_grace=5.0)
        supervisor.start()
        try:
            supervisor.wait_ready()
            client = ServiceClient(f"http://127.0.0.1:{supervisor.port}")
            client.wait_healthy()
            assert client.request_bytes(
                "POST", "/v1/map", {"block": "inv_mdctL"})[0] == 200
        finally:
            supervisor.stop(drain=True)
        assert supervisor.status()["alive"] == [False, False]
