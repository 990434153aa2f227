"""The /metrics surface: histograms, merging, and the live endpoint.

The fleet front aggregates per-worker snapshots by *summing* them, so
these tests pin the properties that make summing correct: fixed
bucket bounds, non-cumulative counts, and merge helpers that are
associative and shape-preserving.
"""

import math

from repro.api import canonical_json
from repro.service.metrics import (BUCKET_BOUNDS_SECONDS,
                                   BUCKET_BOUNDS_WIRE, LatencyHistogram,
                                   MetricsRegistry, merge_counters,
                                   merge_histograms, merge_metrics)


class TestLatencyHistogram:
    def test_observations_land_in_the_right_buckets(self):
        hist = LatencyHistogram()
        hist.observe(0.0004)        # <= 0.0005: first bucket
        hist.observe(0.003)         # (0.0025, 0.005]
        hist.observe(120.0)         # past 60s: the unbounded bucket
        snapshot = hist.snapshot()
        assert snapshot["count"] == 3
        assert snapshot["buckets"][0] == 1
        assert snapshot["buckets"][BUCKET_BOUNDS_SECONDS.index(0.005)] == 1
        assert snapshot["buckets"][-1] == 1
        assert math.isclose(snapshot["sum_seconds"], 120.0034)

    def test_quantiles_interpolate_and_bound(self):
        hist = LatencyHistogram()
        for _ in range(100):
            hist.observe(0.003)     # all in (0.0025, 0.005]
        assert 0.0025 <= hist.quantile(0.5) <= 0.005
        assert 0.0025 <= hist.quantile(0.99) <= 0.005
        assert hist.quantile(0.0) == 0.0 or hist.quantile(0.0) <= 0.005

    def test_empty_histogram_quantile_is_zero(self):
        assert LatencyHistogram().quantile(0.5) == 0.0

    def test_merge_is_elementwise_sum(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.observe(0.001)
        b.observe(0.2)
        b.observe(0.2)
        merged = merge_histograms([a.snapshot(), b.snapshot()])
        assert merged["count"] == 3
        assert math.isclose(merged["sum_seconds"], 0.401)
        assert sum(merged["buckets"]) == 3
        assert "p50_seconds" in merged and "p99_seconds" in merged

    def test_wire_bounds_are_canonical_json_safe(self):
        # The terminal inf bound must survive canonical rendering.
        body = canonical_json({"bounds": list(BUCKET_BOUNDS_WIRE)})
        assert b'"inf"' in body
        assert len(BUCKET_BOUNDS_WIRE) == len(BUCKET_BOUNDS_SECONDS)


class TestMergeCounters:
    def test_numeric_leaves_sum_recursively(self):
        merged = merge_counters([
            {"hits": 2, "nested": {"shed": 1}, "enabled": True},
            {"hits": 3, "nested": {"shed": 4, "admitted": 7}},
        ])
        assert merged == {"hits": 5,
                          "nested": {"shed": 5, "admitted": 7},
                          "enabled": True}

    def test_non_numeric_values_last_write_wins(self):
        merged = merge_counters([{"state": "closed"}, {"state": "open"}])
        assert merged["state"] == "open"

    def test_merge_metrics_groups_by_endpoint(self):
        registry_a, registry_b = MetricsRegistry(), MetricsRegistry()
        registry_a.observe("/v1/map", 0.01, 200)
        registry_a.observe("/v1/map", 0.01, 429)
        registry_b.observe("/v1/map", 0.02, 200)
        registry_b.observe("/healthz", 0.001, 200)
        merged = merge_metrics([registry_a.snapshot(),
                                registry_b.snapshot()])
        assert set(merged) == {"/v1/map", "/healthz"}
        assert merged["/v1/map"]["count"] == 3
        assert merged["/v1/map"]["statuses"] == {"2xx": 2, "4xx": 1}
        assert merged["/healthz"]["statuses"] == {"2xx": 1}


class TestMetricsEndpoint:
    def test_metrics_reports_observed_traffic(self, live_service):
        service, client = live_service
        before = client.metrics()
        assert client.request("POST", "/v1/map",
                              {"block": "inv_mdctL"})[0] == 200
        after = client.metrics()
        assert after["service"]["workers"] == 1
        assert after["bucket_bounds_seconds"][-1] == "inf"
        map_stats = after["endpoints"]["/v1/map"]
        previous = before["endpoints"].get("/v1/map", {"count": 0})
        assert map_stats["count"] == previous["count"] + 1
        assert map_stats["statuses"]["2xx"] >= 1
        assert map_stats["p50_seconds"] >= 0.0
        assert after["requests"] > before["requests"]
        assert "admission" in after and "singleflight" in after
        assert set(after["caches"]) == {"decompose", "map_block", "disk"}

    def test_metrics_body_is_canonical_json(self, live_service):
        _service, client = live_service
        status, body = client.request_bytes("GET", "/metrics")
        assert status == 200
        import json
        assert canonical_json(json.loads(body)) == body
