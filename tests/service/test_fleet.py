"""The fleet front: ring determinism, shard routing, and supervision.

Three layers of coverage, cheapest first:

* :class:`HashRing` unit tests — determinism across instances and
  insertion orders, balance, and the consistent-hashing rebalance
  bound (losing one of N nodes moves only that node's keys);
* in-process routing tests — two :class:`FleetWorker` instances on
  one event-loop-per-thread harness, where the test *chooses* which
  worker accepts and therefore forces each router branch (forward,
  owner-local, warm-peek) deterministically;
* whole-fleet process tests — a real :class:`FleetSupervisor` with
  forked workers, pinning 1-worker vs 4-worker byte parity, the
  aggregated ``/metrics``, rolling restart and crashed-worker respawn.
"""

import json
import os
import signal
import socket
import time

import pytest

from repro.service import (FleetSupervisor, FleetWorker, HashRing,
                           MappingService, ServiceClient, ServiceThread)
from repro.service.protocol import canonical_json


class TestHashRing:
    def test_owner_is_deterministic_across_instances(self):
        digests = [f"digest-{i}" for i in range(500)]
        ring_a = HashRing(range(4))
        ring_b = HashRing(range(4))
        assert [ring_a.owner(d) for d in digests] == \
               [ring_b.owner(d) for d in digests]

    def test_owner_ignores_insertion_order(self):
        digests = [f"digest-{i}" for i in range(500)]
        forward = HashRing([0, 1, 2, 3])
        shuffled = HashRing([2, 0, 3, 1])
        assert [forward.owner(d) for d in digests] == \
               [shuffled.owner(d) for d in digests]

    def test_ring_is_roughly_balanced(self):
        ring = HashRing(range(4))
        owners = [ring.owner(f"digest-{i}") for i in range(2000)]
        for node in range(4):
            share = owners.count(node) / len(owners)
            assert 0.10 <= share <= 0.45, \
                f"node {node} owns {share:.0%} of the key space"

    def test_removing_a_node_moves_only_its_keys(self):
        """The consistent-hashing contract: keys owned by survivors
        never move, so removing one of four nodes rebalances only
        ~1/4 of the key space."""
        digests = [f"digest-{i}" for i in range(2000)]
        ring = HashRing(range(4))
        before = {d: ring.owner(d) for d in digests}
        ring.remove(2)
        moved = 0
        for digest in digests:
            after = ring.owner(digest)
            if before[digest] == 2:
                assert after != 2
                moved += 1
            else:
                assert after == before[digest], \
                    "a survivor-owned key moved on an unrelated removal"
        assert moved == sum(1 for o in before.values() if o == 2)
        assert 0 < moved < len(digests) / 2

    def test_add_and_remove_are_idempotent(self):
        ring = HashRing([0, 1])
        ring.add(1)
        ring.remove(7)
        assert ring.nodes == (0, 1)
        ring.remove(0)
        assert ring.nodes == (1,)
        assert ring.owner("anything") == 1

    def test_empty_ring_and_bad_replicas_raise(self):
        with pytest.raises(ValueError):
            HashRing().owner("digest")
        with pytest.raises(ValueError):
            HashRing(replicas=0)


@pytest.fixture
def worker_pair(fresh_session):
    """Two in-process FleetWorkers wired as a 2-slot fleet.

    Internal loopback sockets are bound here (the supervisor's job in
    production); each worker runs on its own background loop.  Both
    share one session, which stands in for the shared disk tier:
    anything one worker computes, the other's warm peek sees.
    """
    internal_sockets = []
    internal_ports = []
    for _ in range(2):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        internal_sockets.append(sock)
        internal_ports.append(sock.getsockname()[1])
    workers, threads, clients = [], [], []
    try:
        for index in range(2):
            worker = FleetWorker(port=0, worker_index=index,
                                 internal_ports=tuple(internal_ports),
                                 internal_socket=internal_sockets[index],
                                 session=fresh_session,
                                 strategy="in_process")
            thread = ServiceThread(worker)
            thread.__enter__()
            workers.append(worker)
            threads.append(thread)
            clients.append(ServiceClient(thread.base_url))
        for client in clients:
            client.wait_healthy()
        yield workers, clients
    finally:
        for thread in reversed(threads):
            thread.__exit__(None, None, None)


def _payload_owned_by(worker, target: int) -> dict:
    """A /v1/map payload whose shard digest ``worker``'s ring assigns
    to slot ``target`` (searched over the known blocks/platforms)."""
    for block in ("inv_mdctL", "SubBandSynthesis"):
        for platform in ("SA-1110", "DSP", "ARM926"):
            payload = {"block": block, "platform": platform}
            body = canonical_json(payload)
            digest, _key = worker._shard_digest("/v1/map", body)
            if worker.ring.owner(digest) == target:
                return payload
    raise AssertionError(f"no candidate payload hashes to slot {target}")


class TestShardRouting:
    def test_cold_non_owned_request_forwards_one_hop(self, worker_pair):
        workers, clients = worker_pair
        payload = _payload_owned_by(workers[0], target=1)
        status, body = clients[0].request_bytes("POST", "/v1/map",
                                                payload)
        assert status == 200
        assert workers[0].fleet_counters["routed_out"] == 1
        assert workers[1].fleet_counters["routed_in"] == 1
        # The owner served it through the normal local path: exactly
        # one hop, no re-forward back out.
        assert workers[1].fleet_counters["routed_out"] == 0
        # Relayed bytes re-render canonically: identical to asking the
        # owner directly.
        direct_status, direct_body = clients[1].request_bytes(
            "POST", "/v1/map", payload)
        assert direct_status == 200
        assert body == direct_body

    def test_owned_request_is_served_locally(self, worker_pair):
        workers, clients = worker_pair
        payload = _payload_owned_by(workers[0], target=0)
        status, _body = clients[0].request_bytes("POST", "/v1/map",
                                                 payload)
        assert status == 200
        assert workers[0].fleet_counters["served_local_owner"] == 1
        assert workers[0].fleet_counters["routed_out"] == 0

    def test_warm_hit_short_circuits_the_forward(self, worker_pair):
        """Once the shared tier holds the answer, a non-owner serves
        it locally — warm traffic must scale with workers, not funnel
        through shard owners."""
        workers, clients = worker_pair
        payload = _payload_owned_by(workers[0], target=1)
        first_status, first_body = clients[0].request_bytes(
            "POST", "/v1/map", payload)
        assert first_status == 200
        assert workers[0].fleet_counters["routed_out"] == 1
        second_status, second_body = clients[0].request_bytes(
            "POST", "/v1/map", payload)
        assert second_status == 200
        assert second_body == first_body
        assert workers[0].fleet_counters["served_local_warm"] == 1
        assert workers[0].fleet_counters["routed_out"] == 1   # unchanged

    def test_dead_owner_falls_back_to_local(self, worker_pair):
        workers, clients = worker_pair
        payload = _payload_owned_by(workers[0], target=1)
        # Simulate the owner dying: point slot 1 at a dead port.
        dead = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        dead.bind(("127.0.0.1", 0))
        dead_port = dead.getsockname()[1]
        dead.close()
        workers[0].internal_ports = (workers[0].internal_ports[0],
                                     dead_port)
        status, body = clients[0].request_bytes("POST", "/v1/map",
                                                payload)
        assert status == 200
        assert json.loads(body)["winner"]
        assert workers[0].fleet_counters["forward_fallback"] == 1
        assert workers[0].fleet_counters["routed_out"] == 0

    def test_metrics_aggregate_across_the_pair(self, worker_pair):
        workers, clients = worker_pair
        for client in clients:
            assert client.health()["ok"]
        metrics = clients[0].metrics()
        assert metrics["service"]["workers"] == 2
        assert metrics["service"]["reporting"] == 2
        assert metrics["service"]["missing_workers"] == []
        # Both workers' /healthz observations land in one histogram.
        assert metrics["endpoints"]["/healthz"]["count"] >= 2
        assert "fleet" in metrics
        solo = clients[1].request("GET", "/v1/stats")[1]
        assert solo["fleet"]["worker_index"] == 1
        assert solo["fleet"]["workers"] == 2
        assert solo["fleet"]["strategy"] == "in_process"


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

    def test_fleet_metrics_see_every_worker(self, live_fleet):
        supervisor, client = live_fleet
        metrics = client.metrics()
        assert metrics["service"]["workers"] == 4
        assert metrics["service"]["reporting"] == 4
        assert metrics["service"]["missing_workers"] == []
        assert metrics["service"]["strategy"] == supervisor.strategy
        fleet = metrics["fleet"]
        handled = (fleet["routed_out"] + fleet["served_local_owner"]
                   + fleet["served_local_warm"]
                   + fleet["forward_fallback"])
        assert handled > 0
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
