"""End-to-end service tests: endpoint round-trips, error paths,
byte parity, graceful shutdown."""

import http.client
import importlib
import json
import sys
import threading
import time
import urllib.error

import pytest

from repro.api import MappingSession, SessionConfig
from repro.errors import ServiceError
from repro.platform.registry import DEFAULT_REGISTRY
from repro.service import MappingService, ServiceClient, ServiceThread

from .conftest import GatedExecutor


def _raw_post(service, path: str, body: bytes,
              content_type: str = "application/json"):
    """POST arbitrary bytes (the client only sends well-formed JSON)."""
    conn = http.client.HTTPConnection(service.host, service.port,
                                      timeout=30)
    try:
        conn.request("POST", path, body=body,
                     headers={"Content-Type": content_type})
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def _direct_session(service) -> MappingSession:
    """An independent session over the service's blocks: its own cold
    tiers compute every answer again."""
    return MappingSession(SessionConfig(), blocks=service.catalog.blocks())


class TestRoundTrips:
    def test_healthz(self, live_service):
        _service, client = live_service
        health = client.health()
        assert health["ok"] is True
        assert health["service"] == "repro.service"

    def test_platforms_mirror_registry(self, live_service):
        _service, client = live_service
        payload = client.platforms()
        assert payload["default"] == "SA-1110"
        assert [p["key"] for p in payload["platforms"]] == \
            DEFAULT_REGISTRY.names()

    def test_map_matches_direct_call(self, live_service):
        service, client = live_service
        response = client.map_block("inv_mdctL")
        assert response["mapped"] is True
        assert response["winner"] == "IppsMDCTInv_MP3_32s"

        direct = _direct_session(service).map(
            "inv_mdctL", ("REF", "LM", "IH", "IPP"), "SA-1110")
        assert response["winner"] == direct.winner.element.name
        assert [m["element"] for m in response["matches"]] == \
            [m.element.name for m in direct.matches]
        # matches arrive in the block match's cycles-ascending order
        cycles = [m["cycles"] for m in response["matches"]]
        assert cycles == sorted(cycles)

    def test_pareto_matches_direct_call(self, live_service):
        service, client = live_service
        response = client.pareto("SubBandSynthesis", platform="DSP")
        result = _direct_session(service).pareto(
            "SubBandSynthesis", ("REF", "LM", "IH", "IPP"), "DSP").result
        assert [p["element"] for p in response["front"]] == \
            [p.element_name for p in result.front]
        assert response["winner"] == result.cycles_winner.element.name

    def test_verify_matches_direct_call(self, live_service):
        service, client = live_service
        payload = {"block": "inv_mdctL", "library": ["LM", "IH"]}
        status, body = client.request_bytes("POST", "/v1/verify", payload)
        assert status == 200
        expected = service.session.verify("inv_mdctL", ("LM", "IH"))
        assert body == expected.to_json()
        response = json.loads(body)
        assert response["mapped"] is True
        assert response["compliance"] in {"full", "limited"}

    def test_verify_responses_are_cached(self, live_service):
        service, client = live_service
        payload = {"block": "inv_mdctL", "library": ["LM", "IH"],
                   "platform": "DSP"}
        before = len(service._verify_cache)
        first = client.request_bytes("POST", "/v1/verify", payload)
        after_first = len(service._verify_cache)
        second = client.request_bytes("POST", "/v1/verify", payload)
        assert first == second
        assert first[0] == 200
        assert after_first == before + 1
        # the repeat was served from the cache, not recomputed
        assert len(service._verify_cache) == after_first

    def test_verify_answer_carries_the_request_labels(self, live_service):
        """The measurement is cached by content, which ignores tag
        order; each answer still names the library as its request did."""
        service, client = live_service
        payload = {"block": "inv_mdctL", "platform": "ARM926"}
        first = client.request_bytes(
            "POST", "/v1/verify", {**payload, "library": ["LM", "IH"]})
        cached = len(service._verify_cache)
        second = client.request_bytes(
            "POST", "/v1/verify", {**payload, "library": ["IH", "LM"]})
        assert json.loads(first[1])["library"] == "LM+IH"
        expected = _direct_session(service).verify(
            "inv_mdctL", ("IH", "LM"), "ARM926")
        assert second == (200, expected.to_json())
        assert len(service._verify_cache) == cached

    def test_verify_unmapped_block_reports_null_element(self, live_service):
        _service, client = live_service
        payload = {"block": "inv_mdctL", "library": ["LM", "IH"],
                   "accuracy_budget": 0.0}
        status, body = client.request_bytes("POST", "/v1/verify", payload)
        assert status == 200
        response = json.loads(body)
        assert response["mapped"] is False
        assert response["element"] is None

    def test_verify_negative_budget_is_400(self, live_service):
        from repro.api.types import ACCURACY_BUDGET_MESSAGE

        service, _client = live_service
        status, body = _raw_post(
            service, "/v1/verify",
            b'{"block": "inv_mdctL", "accuracy_budget": -1}')
        assert status == 400
        assert ACCURACY_BUDGET_MESSAGE in json.loads(body)["error"]

    def test_sweep_is_the_canonical_sweep_json(self, live_service):
        service, client = live_service
        status, body = client.request_bytes(
            "POST", "/v1/sweep", {"platforms": ["SA-1110", "DSP"]})
        assert status == 200
        report = _direct_session(service).sweep(platforms=["SA-1110", "DSP"])
        assert body == report.to_json().encode("ascii")

    def test_stats_shape(self, live_service):
        _service, client = live_service
        stats = client.stats()
        assert {"started", "coalesced", "in_flight"} <= \
            set(stats["service"]["singleflight"])
        assert "map_block" in stats["caches"]
        assert "disk" in stats["caches"]

    def test_warm_response_byte_identical_to_cold(self, live_service):
        _service, client = live_service
        payload = {"block": "SubBandSynthesis", "platform": "ARM926"}
        first = client.request_bytes("POST", "/v1/map", payload)
        second = client.request_bytes("POST", "/v1/map", payload)
        assert first == second
        assert first[0] == 200

    def test_warm_map_builds_its_cache_key_once(self, live_service,
                                                monkeypatch):
        """Single-flight digests the key of the very batch item the
        service submits, so a warm request keys its match once."""
        # The package re-exports the function under the module's name.
        decompose_mod = importlib.import_module("repro.mapping.decompose")
        _service, client = live_service
        payload = {"block": "inv_mdctL", "platform": "ARM926"}
        assert client.request_bytes("POST", "/v1/map", payload)[0] == 200
        real = decompose_mod.fingerprint_library
        calls = []

        def counted(library):
            calls.append(library)
            return real(library)

        monkeypatch.setattr(decompose_mod, "fingerprint_library", counted)
        assert client.request_bytes("POST", "/v1/map", payload)[0] == 200
        assert len(calls) == 1

    def test_warm_sweep_fingerprints_each_cell_once(self, live_service,
                                                    monkeypatch):
        """The service keys a sweep's flight on the request alone and
        the session keys each cell, so a warm sweep fingerprints every
        cell's block and library once, wherever the functions are
        imported."""
        cache_mod = importlib.import_module("repro.mapping.cache")
        _service, client = live_service
        payload = {"platforms": ["SA-1110"]}
        assert client.request_bytes("POST", "/v1/sweep", payload)[0] == 200
        calls = {"fingerprint_block": [], "fingerprint_library": []}
        for name, seen in calls.items():
            real = getattr(cache_mod, name)

            def counted(arg, real=real, seen=seen):
                seen.append(arg)
                return real(arg)

            for module in list(sys.modules.values()):
                if (module is not None and module.__name__.startswith("repro")
                        and getattr(module, name, None) is real):
                    monkeypatch.setattr(module, name, counted)
        status, body = client.request_bytes("POST", "/v1/sweep", payload)
        assert status == 200
        cells = len(json.loads(body)["entries"])
        assert cells == 4  # one platform x the two-library ladder x two blocks
        assert {name: len(seen) for name, seen in calls.items()} == {
            "fingerprint_block": cells, "fingerprint_library": cells}

    def test_verify_fingerprints_its_library_once(self, mp3_blocks,
                                                  monkeypatch):
        """/v1/verify measures the batch item it keyed its flight on, so
        a cold request fingerprints the library once, as a warm one
        (served from the verify cache) does; both answer the bytes a
        direct ``session.verify`` renders."""
        cache_mod = importlib.import_module("repro.mapping.cache")
        real = cache_mod.fingerprint_library
        calls = []

        def counted(library):
            calls.append(library)
            return real(library)

        for module in list(sys.modules.values()):
            if (module is not None and module.__name__.startswith("repro")
                    and getattr(module, "fingerprint_library", None) is real):
                monkeypatch.setattr(module, "fingerprint_library", counted)
        payload = {"block": "inv_mdctL", "library": ["LM", "IH"]}
        session = MappingSession(SessionConfig(), blocks=mp3_blocks)
        counts, bodies = [], []
        with ServiceThread(MappingService(port=0, session=session)) as thread:
            client = ServiceClient(thread.base_url)
            client.wait_healthy()
            for _cold_then_warm in range(2):
                calls.clear()
                status, body = client.request_bytes("POST", "/v1/verify",
                                                    payload)
                assert status == 200
                counts.append(len(calls))
                bodies.append(body)
        assert counts == [1, 1]
        direct = MappingSession(SessionConfig(), blocks=mp3_blocks)
        assert bodies == [direct.verify("inv_mdctL", ("LM", "IH")).to_json()] * 2


class TestSessionWiring:
    def test_platforms_render_from_the_session(self):
        """A service around a custom-registry session advertises exactly
        the keys its /v1/map resolves (not the process default registry)."""
        from repro.api import MappingSession, SessionConfig
        from repro.platform.energy import BADGE4_ENERGY
        from repro.platform.processor import SA1110
        from repro.platform.registry import ProcessorRegistry

        registry = ProcessorRegistry()
        registry.register("mycore", SA1110, BADGE4_ENERGY)
        session = MappingSession(
            SessionConfig(registry=registry, platform="mycore"))
        service = MappingService(port=0, session=session)
        payload = service._get_platforms()
        assert payload["default"] == "mycore"
        assert [p["key"] for p in payload["platforms"]] == ["mycore"]


class TestErrorPaths:
    def test_malformed_json_is_400(self, live_service):
        service, _client = live_service
        status, body = _raw_post(service, "/v1/map", b"{not json")
        assert status == 400
        assert "malformed JSON" in json.loads(body)["error"]

    def test_empty_body_is_400(self, live_service):
        service, _client = live_service
        status, _body = _raw_post(service, "/v1/map", b"")
        assert status == 400

    def test_non_object_body_is_400(self, live_service):
        service, _client = live_service
        status, _body = _raw_post(service, "/v1/map", b"[1,2]")
        assert status == 400

    def test_unknown_platform_is_404(self, live_service):
        _service, client = live_service
        status, body = client.request(
            "POST", "/v1/map", {"block": "inv_mdctL", "platform": "Z80"})
        assert status == 404
        assert "Z80" in body["error"]

    def test_unknown_block_is_404(self, live_service):
        _service, client = live_service
        status, _body = client.request("POST", "/v1/map",
                                       {"block": "fft_radix2"})
        assert status == 404

    def test_unknown_library_tag_is_404(self, live_service):
        _service, client = live_service
        status, _body = client.request(
            "POST", "/v1/map",
            {"block": "inv_mdctL", "library": ["REF", "MKL"]})
        assert status == 404

    def test_unknown_sweep_platform_is_404(self, live_service):
        _service, client = live_service
        status, _body = client.request("POST", "/v1/sweep",
                                       {"platforms": ["Z80"]})
        assert status == 404

    def test_duplicate_sweep_platforms_is_400(self, live_service):
        _service, client = live_service
        status, body = client.request(
            "POST", "/v1/sweep", {"platforms": ["SA-1110", "SA-1110"]})
        assert status == 400
        assert "duplicate" in body["error"]

    def test_unknown_endpoint_is_404(self, live_service):
        _service, client = live_service
        status, _body = client.request("GET", "/v2/map")
        assert status == 404

    def test_wrong_method_is_405(self, live_service):
        _service, client = live_service
        assert client.request("GET", "/v1/map")[0] == 405
        assert client.request("POST", "/healthz", {})[0] == 405

    def test_unknown_request_field_is_400(self, live_service):
        _service, client = live_service
        status, body = client.request(
            "POST", "/v1/map", {"block": "inv_mdctL", "workers": 4})
        assert status == 400
        assert "workers" in body["error"]

    @pytest.mark.parametrize("path, body", [
        ("/v1/map", b'{"block": "inv_mdctL", "tolerance": NaN}'),
        ("/v1/pareto", b'{"block": "inv_mdctL", "tolerance": Infinity}'),
        ("/v1/verify", b'{"block": "inv_mdctL", "tolerance": -Infinity}'),
        ("/v1/sweep", b'{"tolerance": NaN}'),
        ("/v1/map", b'{"block": "inv_mdctL", "tolerance": -1}'),
    ])
    def test_non_finite_or_negative_tolerance_is_400(self, live_service,
                                                     path, body):
        from repro.api.types import TOLERANCE_MESSAGE

        service, _client = live_service
        before = service.session.stats()["map_block"]
        status, response = _raw_post(service, path, body)
        assert status == 400
        assert TOLERANCE_MESSAGE in json.loads(response)["error"]
        # refused before any lookup: nothing computed, nothing cached
        assert service.session.stats()["map_block"] == before

    def test_errors_are_counted(self, live_service):
        service, client = live_service
        before = service.errors
        client.request("GET", "/no/such/path")
        assert service.errors == before + 1


class TestTimeouts:
    def test_expired_request_timeout_is_503_with_retry_after(
            self, fresh_session):
        """A request that outlives ``request_timeout`` is shed like
        overload: 503, a ``Retry-After`` hint on the wire, and the
        usual ``Connection: close`` — never a hung socket."""
        gate = threading.Event()
        service = MappingService(port=0, executor=GatedExecutor(gate),
                                 session=fresh_session,
                                 request_timeout=0.3, retry_after_hint=2.0)
        thread = ServiceThread(service)
        thread.__enter__()
        try:
            conn = http.client.HTTPConnection(service.host, service.port,
                                              timeout=30)
            try:
                body = b'{"block": "inv_mdctL"}'
                conn.request("POST", "/v1/map", body=body,
                             headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                assert response.status == 503
                assert response.getheader("Retry-After") == "2"
                assert response.getheader("Connection") == "close"
                assert "timed out" in json.loads(response.read())["error"]
            finally:
                conn.close()
        finally:
            gate.set()       # free the stuck work so shutdown drains
            thread.__exit__(None, None, None)


class TestClientRetries:
    def test_connection_errors_wrap_in_service_error_with_history(self):
        """Nothing listens on port 9: the client retries its budget,
        then raises ServiceError naming the URL and every attempt."""
        from repro.resilience import RetryPolicy

        client = ServiceClient("http://127.0.0.1:9", timeout=1,
                               retry=RetryPolicy(attempts=2,
                                                 base_delay=0.01,
                                                 jitter=0.0))
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        err = excinfo.value
        assert err.status == 503
        assert "http://127.0.0.1:9/healthz" in err.message
        assert "2 attempt(s)" in err.message
        assert len(err.attempts) == 2
        assert all("connection error" in note for note in err.attempts)


class TestGracefulShutdown:
    def test_shutdown_refuses_new_connections(self, fresh_session):
        # The client retries connection errors, then wraps the terminal
        # failure in ServiceError — a stopped service surfaces as that,
        # never a raw urllib exception.
        with ServiceThread(MappingService(port=0,
                                          session=fresh_session)) as thread:
            client = ServiceClient(thread.base_url, timeout=10)
            client.wait_healthy()
        with pytest.raises(ServiceError) as excinfo:
            client.health()
        assert excinfo.value.status == 503
        assert excinfo.value.attempts

    def test_shutdown_drains_inflight_requests(self, fresh_session):
        gate = threading.Event()
        thread = ServiceThread(
            MappingService(port=0, executor=GatedExecutor(gate),
                           session=fresh_session))
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
            while thread.service.flight.in_flight < 1:
                assert time.monotonic() < deadline, "request never started"
                time.sleep(0.01)

            closer = threading.Thread(
                target=thread.__exit__, args=(None, None, None))
            closer.start()
            time.sleep(0.2)
            # shutdown is draining, not killing: the request still runs
            assert closer.is_alive()
            gate.set()
            closer.join(timeout=60)
            requester.join(timeout=60)
            assert not closer.is_alive()
            status, body = outcome["reply"]
            assert status == 200
            assert json.loads(body)["winner"] == "IppsMDCTInv_MP3_32s"
        finally:
            gate.set()


class TestEnvironmentCacheDir:
    """Without ``cache_dir`` a service builds its session from the
    environment, exactly like the CLI."""

    def test_repro_cache_dir_receives_the_store(self, isolated_cache_env,
                                                 monkeypatch, tmp_path,
                                                 mp3_blocks):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        service = MappingService(port=0)
        service.session.map(mp3_blocks["inv_mdctL"], ("LM", "IH"))
        assert (tmp_path / "mapping_cache.sqlite").exists()

    def test_repro_no_cache_writes_nothing(self, isolated_cache_env,
                                           monkeypatch, tmp_path, mp3_blocks):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        service = MappingService(port=0)
        service.session.map(mp3_blocks["inv_mdctL"], ("LM", "IH"))
        assert service.session.tiers.disk() is None
        assert list(tmp_path.iterdir()) == []
