"""Resilience-layer benchmark: what the safety rails cost and save.

Three questions, answered with numbers in ``BENCH_resilience.json``:

* ``admission`` — what does admission control cost the warm path?
  The same warm ``/v1/map`` request is timed against two services,
  one with ``max_inflight`` unset and one with it enabled, strictly
  interleaved so clock drift cancels.  The acceptance target for the
  resilience layer is < 5% median overhead.
* ``breaker``   — what does a tripped disk tier cost per lookup?
  A :class:`~repro.mapping.cache.DiskCache` is timed closed (sqlite
  answers) and open (the breaker short-circuits to a miss): degraded
  mode must be *cheaper* than the failure it papers over.
* ``overload``  — what does shedding look like under pressure?  A
  bounded service is hammered by more threads than it admits; the run
  records served vs shed and asserts nothing but 200/429 came back.

Byte parity is asserted along the way, as everywhere: admission
control must not change a single warm-path byte.
"""

import json
import statistics
import tempfile
import threading
import time
from pathlib import Path

from _scenarios import REPO_ROOT

from repro.mapping.cache import DiskCache
from repro.service import MappingService, ServiceClient, ServiceThread

OUTPUT = REPO_ROOT / "BENCH_resilience.json"

MAP_PAYLOAD = {"block": "inv_mdctL"}
WARM_ROUNDS = 80
BREAKER_ROUNDS = 200
OVERLOAD_THREADS = 8
OVERLOAD_REQUESTS = 30              # per thread
OVERLOAD_BOUND = 2


def _timed_map(client) -> "tuple[float, int, bytes]":
    start = time.perf_counter()
    status, body = client.request_bytes("POST", "/v1/map", MAP_PAYLOAD)
    return time.perf_counter() - start, status, body


def _median_get_seconds(cache, rounds: int) -> float:
    samples = []
    for _ in range(rounds):
        start = time.perf_counter()
        cache.get("k")
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_resilience_benchmark(report, bench_output):
    # -- admission: warm-path overhead, interleaved A/B ----------------
    plain = MappingService(port=0)
    gated = MappingService(port=0, max_inflight=64)
    with ServiceThread(plain) as plain_thread, \
            ServiceThread(gated) as gated_thread:
        plain_client = ServiceClient(plain_thread.base_url)
        gated_client = ServiceClient(gated_thread.base_url)
        plain_client.wait_healthy()
        gated_client.wait_healthy()
        # Prime both services warm (they share the process session, so
        # one computation serves both).
        _s, status, reference = _timed_map(plain_client)
        assert status == 200, reference
        _s, status, gated_body = _timed_map(gated_client)
        assert status == 200
        assert gated_body == reference, \
            "admission control changed warm-path bytes"

        plain_lat, gated_lat = [], []
        for _ in range(WARM_ROUNDS):
            seconds, status, body = _timed_map(plain_client)
            assert status == 200 and body == reference
            plain_lat.append(seconds)
            seconds, status, body = _timed_map(gated_client)
            assert status == 200 and body == reference
            gated_lat.append(seconds)
        admitted = gated.admission.stats()["admitted"]

    plain_median = statistics.median(plain_lat)
    gated_median = statistics.median(gated_lat)
    overhead = gated_median / plain_median - 1.0

    # -- breaker: lookup cost closed vs open ---------------------------
    with tempfile.TemporaryDirectory() as tmp:
        cache = DiskCache(Path(tmp) / "bench.sqlite")
        cache.put("k", {"v": list(range(64))})
        closed_median = _median_get_seconds(cache, BREAKER_ROUNDS)
        cache.breaker.trip()
        open_median = _median_get_seconds(cache, BREAKER_ROUNDS)
        assert cache.get("k") is None, "open breaker must answer misses"
        cache.breaker.reset()
        assert cache.get("k") == {"v": list(range(64))}, \
            "reset breaker must serve the stored value again"

    # -- overload: shed vs served under a tight bound ------------------
    service = MappingService(port=0, max_inflight=OVERLOAD_BOUND)
    with ServiceThread(service) as thread:
        client = ServiceClient(thread.base_url)
        client.wait_healthy()
        _s, status, _b = _timed_map(client)
        assert status == 200
        statuses: list = []
        lock = threading.Lock()

        def hammer():
            mine = []
            for _ in range(OVERLOAD_REQUESTS):
                status, _body = client.request_bytes("POST", "/v1/map",
                                                     MAP_PAYLOAD)
                mine.append(status)
            with lock:
                statuses.extend(mine)

        workers = [threading.Thread(target=hammer)
                   for _ in range(OVERLOAD_THREADS)]
        start = time.perf_counter()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        overload_elapsed = time.perf_counter() - start
        admission = service.admission.stats()

    assert set(statuses) <= {200, 429}, sorted(set(statuses))
    served = statuses.count(200)
    shed = statuses.count(429)
    total = OVERLOAD_THREADS * OVERLOAD_REQUESTS

    payload = {
        "bench": "resilience",
        "workload": "warm POST /v1/map (inv_mdctL) with and without "
                    "admission control; DiskCache lookups with the "
                    "breaker closed and open; bounded-service overload",
        "scenarios": {
            "admission": {
                "rounds": WARM_ROUNDS,
                "max_inflight": 64,
                "plain_median_seconds": plain_median,
                "gated_median_seconds": gated_median,
                "gated_requests_admitted": admitted,
            },
            "breaker": {
                "rounds": BREAKER_ROUNDS,
                "closed_median_seconds": closed_median,
                "open_median_seconds": open_median,
            },
            "overload": {
                "threads": OVERLOAD_THREADS,
                "max_inflight": OVERLOAD_BOUND,
                "requests": total,
                "served_200": served,
                "shed_429": shed,
                "seconds": overload_elapsed,
                "requests_per_second": total / overload_elapsed,
            },
        },
        "derived": {
            "admission_overhead_fraction": overhead,
            "admission_overhead_target": "< 0.05 warm-path overhead",
            "open_breaker_speedup_vs_closed": closed_median / open_median
            if open_median else None,
            "byte_parity": "warm /v1/map bytes asserted identical with "
                           "admission control on and off",
        },
    }
    output = bench_output(OUTPUT)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    report(f"\nResilience bench: warm median {plain_median * 1e3:.2f}ms "
           f"plain vs {gated_median * 1e3:.2f}ms gated "
           f"({overhead * 100:+.1f}%), breaker open lookup "
           f"{open_median * 1e6:.0f}us vs closed "
           f"{closed_median * 1e6:.0f}us, overload {served}/{total} "
           f"served + {shed} shed -> {output}")
