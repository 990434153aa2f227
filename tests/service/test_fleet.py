"""The fleet front: the worker pair, and whole-fleet supervision.

Two layers of coverage, cheapest first:

* in-process tests — two :class:`FleetWorker` instances, each on its
  own event-loop thread, wired through their internal listeners the
  way the supervisor wires forked workers: fleet-wide ``/metrics``
  aggregation and per-worker ``/v1/stats``;
* whole-fleet process tests — a real :class:`FleetSupervisor` with
  forked workers, pinning 1-worker vs 4-worker byte parity, the
  shared disk tier's one-write-per-key bound on duplicate cold work,
  the aggregated ``/metrics``, rolling restart and crashed-worker
  respawn.
"""

import json
import os
import signal
import socket
import time

import pytest

from repro.service import (FleetSupervisor, FleetWorker, MappingService,
                           ServiceClient, ServiceThread)
from repro.service.protocol import canonical_json


@pytest.fixture
def worker_pair(fresh_session):
    """Two in-process FleetWorkers wired as a 2-slot fleet.

    Internal loopback sockets are bound here (the supervisor's job in
    production); each worker runs on its own background loop, and
    both share one session.
    """
    internal_sockets = []
    internal_ports = []
    for _ in range(2):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        internal_sockets.append(sock)
        internal_ports.append(sock.getsockname()[1])
    threads, clients = [], []
    try:
        for index in range(2):
            worker = FleetWorker(port=0, worker_index=index,
                                 internal_ports=tuple(internal_ports),
                                 internal_socket=internal_sockets[index],
                                 session=fresh_session,
                                 strategy="in_process")
            thread = ServiceThread(worker)
            thread.__enter__()
            threads.append(thread)
            clients.append(ServiceClient(thread.base_url))
        for client in clients:
            client.wait_healthy()
        yield clients
    finally:
        for thread in reversed(threads):
            thread.__exit__(None, None, None)


class TestWorkerPair:
    def test_metrics_aggregate_across_the_pair(self, worker_pair):
        clients = worker_pair
        for client in clients:
            assert client.health()["ok"]
        metrics = clients[0].metrics()
        assert metrics["service"]["workers"] == 2
        assert metrics["service"]["reporting"] == 2
        assert metrics["service"]["missing_workers"] == []
        # Both workers' /healthz observations land in one histogram.
        assert metrics["endpoints"]["/healthz"]["count"] >= 2
        # The only fleet state a worker reports is where it sits.
        assert "fleet" not in metrics
        solo = clients[1].request("GET", "/v1/stats")[1]
        assert solo["fleet"] == {"worker_index": 1, "workers": 2,
                                 "strategy": "in_process"}


@pytest.fixture(scope="module")
def live_fleet(tmp_path_factory):
    """One 4-worker fleet shared by the whole-process tests."""
    supervisor = FleetSupervisor(
        workers=4, port=0,
        cache_dir=str(tmp_path_factory.mktemp("fleet-cache")))
    with supervisor:
        yield supervisor, ServiceClient(
            f"http://127.0.0.1:{supervisor.port}")


PARITY_PAYLOADS = [
    ("/v1/map", {"block": "inv_mdctL"}),
    ("/v1/map", {"block": "inv_mdctL", "platform": "DSP"}),
    ("/v1/map", {"block": "SubBandSynthesis", "platform": "ARM926"}),
    ("/v1/pareto", {"block": "inv_mdctL"}),
    ("/v1/sweep", {"blocks": ["inv_mdctL"], "platforms": ["SA-1110"]}),
]


class TestFleetProcesses:
    def test_four_worker_fleet_matches_one_worker_bytes(
            self, live_fleet, tmp_path):
        """Every response must be independent of fleet size and of
        which worker accepted: byte parity between a plain 1-worker
        service and the 4-worker fleet, twice (cold then warm)."""
        _supervisor, fleet_client = live_fleet
        single = MappingService(port=0,
                                cache_dir=str(tmp_path / "single"))
        with ServiceThread(single) as thread:
            single_client = ServiceClient(thread.base_url)
            single_client.wait_healthy()
            for path, payload in PARITY_PAYLOADS:
                body = canonical_json(payload)
                expected_status, expected = single_client.request_bytes(
                    "POST", path, body)
                assert expected_status == 200
                for _attempt in range(2):      # cold relay, then warm
                    status, got = fleet_client.request_bytes(
                        "POST", path, body)
                    assert status == 200
                    assert got == expected, \
                        f"{path} {payload} differs between fleet sizes"

    def test_shared_disk_tier_bounds_duplicate_cold_work(self,
                                                         live_fleet):
        """Any worker may take a cold request, so the shared sqlite
        tier is what stops sequential duplicates from computing again:
        one write fleet-wide, and every answer byte-identical whichever
        worker gave it."""
        _supervisor, client = live_fleet
        # A key no other test in this module requests, so it is cold.
        payload = {"block": "SubBandSynthesis", "platform": "ARM7TDMI"}
        before = client.metrics()["caches"]["disk"]
        bodies = set()
        for _ in range(12):
            status, body = client.request_bytes("POST", "/v1/map",
                                                payload)
            assert status == 200
            bodies.add(body)
        after = client.metrics()["caches"]["disk"]
        assert len(bodies) == 1
        assert after["writes"] - before["writes"] == 1
        # A worker that did not compute the key served it from disk.
        assert after["hits"] > before["hits"]

    def test_fleet_metrics_see_every_worker(self, live_fleet):
        supervisor, client = live_fleet
        before = client.metrics()["requests"]
        for _ in range(8):
            assert client.health()["ok"]
        metrics = client.metrics()
        assert metrics["service"]["workers"] == 4
        assert metrics["service"]["reporting"] == 4
        assert metrics["service"]["missing_workers"] == []
        assert metrics["service"]["strategy"] == supervisor.strategy
        # Whichever workers took the probes, the merge counts them all.
        assert metrics["requests"] >= before + 8
        status, body = client.request_bytes("GET", "/metrics")
        assert status == 200
        assert canonical_json(json.loads(body)) == body

    def test_status_reports_all_slots_alive(self, live_fleet):
        supervisor, _client = live_fleet
        status = supervisor.status()
        assert status["workers"] == 4
        assert status["alive"] == [True] * 4
        assert len(set(status["pids"])) == 4
        assert status["strategy"] in ("so_reuseport", "shared_socket")

    def test_rolling_restart_replaces_every_worker(self, tmp_path):
        supervisor = FleetSupervisor(
            workers=2, port=0, cache_dir=str(tmp_path / "cache"),
            drain_grace=5.0)
        with supervisor:
            client = ServiceClient(f"http://127.0.0.1:{supervisor.port}")
            assert client.map_block("inv_mdctL")["winner"]
            pids_before = supervisor.status()["pids"]
            supervisor.rolling_restart()
            status = supervisor.status()
            assert status["alive"] == [True, True]
            assert set(status["pids"]).isdisjoint(pids_before)
            assert status["restarts"] == 2
            # Same port, still serving, caches still shared/warm.
            assert client.map_block("inv_mdctL")["winner"]

    def test_crashed_worker_is_respawned_with_backoff(self, tmp_path):
        supervisor = FleetSupervisor(
            workers=2, port=0, cache_dir=str(tmp_path / "cache"),
            respawn_backoff=0.05)
        with supervisor:
            client = ServiceClient(f"http://127.0.0.1:{supervisor.port}")
            client.wait_healthy()
            victim = supervisor.status()["pids"][0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                status = supervisor.status()
                if all(status["alive"]) and status["pids"][0] != victim:
                    break
                time.sleep(0.05)
            else:
                raise AssertionError(
                    f"worker never respawned: {supervisor.status()}")
            supervisor.wait_ready()
            assert supervisor.restarts >= 1
            assert client.map_block("inv_mdctL")["winner"]
