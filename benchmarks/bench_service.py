"""Service-layer benchmark: cold / warm / coalesced request latency
and throughput over HTTP.

One in-process :class:`~repro.service.server.MappingService` (its own
event loop on a background thread), exercised through the blocking
client exactly the way external traffic arrives:

* ``cold``       — every cache tier cleared, one ``/v1/map`` request:
  the full parse → fingerprint → batch-engine search path;
* ``warm``       — the same request repeated: the LRU answers, the
  latency is parse + cache hit + canonical rendering;
* ``throughput`` — the warm request hammered from several client
  threads, as requests per second;
* ``coalesced``  — caches cleared again, N identical requests fired
  concurrently: single-flight folds them onto one computation (the
  run records how many coalesced);
* ``sweep``      — cold and warm ``/v1/sweep`` over every platform.

Byte parity is asserted along the way: the warm and coalesced bodies
must equal the cold body, byte for byte.  Results land in
``BENCH_service.json`` at the repo root.
"""

import hashlib
import json
import statistics
import threading
import time

from _scenarios import REPO_ROOT

from repro.service import MappingService, ServiceClient, ServiceThread

OUTPUT = REPO_ROOT / "BENCH_service.json"

MAP_PAYLOAD = {"block": "inv_mdctL"}
WARM_ROUNDS = 60
THROUGHPUT_THREADS = 4
THROUGHPUT_REQUESTS = 40            # per thread
COALESCED_REQUESTS = 8


def _timed_map(client) -> "tuple[float, int, bytes]":
    start = time.perf_counter()
    status, body = client.request_bytes("POST", "/v1/map", MAP_PAYLOAD)
    return time.perf_counter() - start, status, body


def test_service_benchmark(report):
    service = MappingService(port=0)
    with ServiceThread(service) as thread:
        client = ServiceClient(thread.base_url)
        client.wait_healthy()

        # -- cold ------------------------------------------------------
        service.session.clear_caches()
        cold_s, status, cold_body = _timed_map(client)
        assert status == 200, cold_body

        # -- warm ------------------------------------------------------
        warm_latencies = []
        for _ in range(WARM_ROUNDS):
            seconds, status, body = _timed_map(client)
            assert status == 200
            assert body == cold_body, "warm response drifted from cold"
            warm_latencies.append(seconds)

        # -- throughput ------------------------------------------------
        def hammer(failures):
            for _ in range(THROUGHPUT_REQUESTS):
                status, body = client.request_bytes("POST", "/v1/map",
                                                    MAP_PAYLOAD)
                if status != 200 or body != cold_body:
                    failures.append(status)

        failures: list = []
        workers = [threading.Thread(target=hammer, args=(failures,))
                   for _ in range(THROUGHPUT_THREADS)]
        start = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        throughput_elapsed = time.perf_counter() - start
        assert not failures, failures
        total_requests = THROUGHPUT_THREADS * THROUGHPUT_REQUESTS

        # -- coalesced -------------------------------------------------
        service.session.clear_caches()
        flight_before = dict(service.flight.stats())
        replies: list = [None] * COALESCED_REQUESTS

        def fire(i):
            replies[i] = client.request_bytes("POST", "/v1/map",
                                              MAP_PAYLOAD)

        burst = [threading.Thread(target=fire, args=(i,))
                 for i in range(COALESCED_REQUESTS)]
        start = time.perf_counter()
        for worker in burst:
            worker.start()
        for worker in burst:
            worker.join()
        coalesced_elapsed = time.perf_counter() - start
        assert {s for s, _b in replies} == {200}
        assert {b for _s, b in replies} == {cold_body}, \
            "coalesced responses drifted from cold"
        flight_after = service.flight.stats()
        coalesced = flight_after["coalesced"] - flight_before["coalesced"]
        started = flight_after["started"] - flight_before["started"]

        # -- sweep -----------------------------------------------------
        service.session.clear_caches()
        start = time.perf_counter()
        status, sweep_body = client.request_bytes("POST", "/v1/sweep", {})
        sweep_cold_s = time.perf_counter() - start
        assert status == 200
        start = time.perf_counter()
        status, warm_sweep_body = client.request_bytes("POST", "/v1/sweep",
                                                       {})
        sweep_warm_s = time.perf_counter() - start
        assert status == 200
        assert warm_sweep_body == sweep_body

    warm_median = statistics.median(warm_latencies)
    payload = {
        "bench": "service",
        "workload": "POST /v1/map (inv_mdctL, full ladder, SA-1110) "
                    "against an in-process MappingService over HTTP",
        "map_sha256": hashlib.sha256(cold_body).hexdigest(),
        "sweep_sha256": hashlib.sha256(sweep_body).hexdigest(),
        "scenarios": {
            "cold": {"seconds": cold_s},
            "warm": {
                "rounds": WARM_ROUNDS,
                "median_seconds": warm_median,
                "min_seconds": min(warm_latencies),
                "max_seconds": max(warm_latencies),
            },
            "throughput": {
                "threads": THROUGHPUT_THREADS,
                "requests": total_requests,
                "seconds": throughput_elapsed,
                "requests_per_second": total_requests / throughput_elapsed,
            },
            "coalesced": {
                "concurrent_requests": COALESCED_REQUESTS,
                "seconds_for_burst": coalesced_elapsed,
                "computations_started": started,
                "requests_coalesced": coalesced,
            },
            "sweep": {"cold_seconds": sweep_cold_s,
                      "warm_seconds": sweep_warm_s},
        },
        "derived": {
            "warm_speedup_vs_cold": cold_s / warm_median,
            "byte_parity": "warm and coalesced /v1/map bodies asserted "
                           "equal to the cold body; warm /v1/sweep body "
                           "equal to cold",
        },
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
    report(f"\nService bench: cold {cold_s * 1e3:.1f}ms, "
           f"warm median {warm_median * 1e3:.2f}ms "
           f"({cold_s / warm_median:.0f}x), "
           f"{total_requests / throughput_elapsed:.0f} req/s "
           f"({THROUGHPUT_THREADS} threads), burst of "
           f"{COALESCED_REQUESTS} -> {started} computation(s) "
           f"({coalesced} coalesced) -> {OUTPUT.name}")
