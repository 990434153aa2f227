"""A thin blocking client for the mapping service (stdlib ``urllib``).

One class, no dependencies: CI smoke steps, benchmarks and examples
talk to a running :class:`~repro.service.server.MappingService`
through it.  Payloads are built by the request dataclasses of
:mod:`repro.api`, the same ones the server validates with, so a client
request and the server's validation can never drift apart.

>>> client = ServiceClient("http://127.0.0.1:8357")   # doctest: +SKIP
>>> client.map_block("inv_mdctL")["winner"]           # doctest: +SKIP
'IppsMDCTInv_MP3_32s'
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request

from repro.api import (DEFAULT_LIBRARY, DEFAULT_PLATFORM, MapRequest,
                       SweepRequest, canonical_json)
from repro.errors import ServiceError
from repro.resilience import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = ["ServiceClient"]


def _retry_after_hint(headers) -> "float | None":
    """The response's ``Retry-After`` seconds, when present and sane."""
    value = headers.get("Retry-After") if headers is not None else None
    if value is None:
        return None
    try:
        seconds = float(value)
    except ValueError:
        return None          # HTTP-date form: let the backoff decide
    return seconds if seconds >= 0 else None


class ServiceClient:
    """Blocking HTTP/JSON access to one service instance.

    The high-level methods (:meth:`map_block`, :meth:`pareto`,
    :meth:`sweep`, ...) return the parsed response payload and raise
    :class:`~repro.errors.ServiceError` on any non-200 answer;
    :meth:`request` and :meth:`request_bytes` expose the raw
    ``(status, payload)`` layer for tests and smoke checks that assert
    on status codes and exact bytes.

    Transient failure is handled here, once, for every caller: the
    transport retries connection-level errors (refused, reset, DNS)
    with the capped jittered backoff of ``retry`` (a
    :class:`~repro.resilience.RetryPolicy`), and the high-level
    methods additionally retry the service's shedding statuses
    (429/503), honoring its ``Retry-After`` hint as a floor.  A
    request that exhausts the budget raises
    :class:`~repro.errors.ServiceError` carrying the full attempt
    history — never a raw ``urllib`` exception.  ``retry_seed`` pins
    the jitter sequence for deterministic tests.
    """

    def __init__(self, base_url: str = "http://127.0.0.1:8357",
                 timeout: float = 60.0, *,
                 retry: "RetryPolicy | None" = None,
                 retry_seed: "int | None" = None):
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retry = retry if retry is not None else DEFAULT_RETRY_POLICY
        self._rng = random.Random(retry_seed)

    # -- transport -------------------------------------------------------
    def _request_once(self, method: str, url: str, data):
        """One wire round trip: ``(status, headers, raw body bytes)``."""
        req = urllib.request.Request(
            url, data=data, method=method,
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return resp.status, resp.headers, resp.read()
        except urllib.error.HTTPError as err:
            with err:
                return err.code, err.headers, err.read()

    def request_bytes(self, method: str, path: str, payload=None, *,
                      retry_statuses=()) -> "tuple[int, bytes]":
        """``(status, raw body bytes)`` of one request.

        Connection-level errors are retried per the client's policy
        and, exhausted, raise :class:`~repro.errors.ServiceError`
        (status 503) naming the URL and every attempt.  Statuses are
        returned as-is — tests assert on 429/503 through this layer —
        unless listed in ``retry_statuses``, which is how the
        high-level methods opt into waiting out shed load.

        ``payload`` may be pre-rendered bytes, sent verbatim — the
        byte-parity tests use this to replay one exact wire body
        against several servers.
        """
        if isinstance(payload, (bytes, bytearray)):
            data = bytes(payload)
        else:
            data = canonical_json(payload) if payload is not None else None
        url = self.base_url + path
        policy = self.retry
        attempts: "list[str]" = []
        for attempt in range(policy.attempts):
            last = attempt + 1 >= policy.attempts
            try:
                status, headers, body = self._request_once(method, url, data)
            except (urllib.error.URLError, ConnectionError,
                    TimeoutError, OSError) as err:
                reason = getattr(err, "reason", None) or err
                attempts.append(f"connection error: {reason}")
                if last:
                    raise ServiceError(
                        503,
                        f"{method} {url} failed after {len(attempts)} "
                        f"attempt(s): {reason}",
                        attempts=attempts) from err
            else:
                if status not in retry_statuses or last:
                    return status, body
                attempts.append(f"shed with {status}")
                hint = _retry_after_hint(headers)
                time.sleep(policy.backoff(attempt, self._rng,
                                          retry_after=hint))
                continue
            time.sleep(policy.backoff(attempt, self._rng))
        raise AssertionError("unreachable: retry loop always returns")

    def request(self, method: str, path: str, payload=None, *,
                retry_statuses=()) -> "tuple[int, object]":
        """``(status, parsed JSON)``; malformed response JSON raises."""
        status, body = self.request_bytes(method, path, payload,
                                          retry_statuses=retry_statuses)
        return status, json.loads(body)

    def _call(self, method: str, path: str, payload=None):
        status, parsed = self.request(
            method, path, payload,
            retry_statuses=self.retry.retry_statuses)
        if status != 200:
            message = parsed.get("error", str(parsed)) \
                if isinstance(parsed, dict) else str(parsed)
            raise ServiceError(status, f"{path} -> {status}: {message}")
        return parsed

    # -- endpoints -------------------------------------------------------
    def health(self) -> dict:
        return self._call("GET", "/healthz")

    def platforms(self) -> dict:
        return self._call("GET", "/v1/platforms")

    def stats(self) -> dict:
        return self._call("GET", "/v1/stats")

    def metrics(self) -> dict:
        """Latency histograms + counters; fleet-wide behind a fleet."""
        return self._call("GET", "/metrics")

    def map_block(self, block: str, library=DEFAULT_LIBRARY,
                  platform: str = DEFAULT_PLATFORM, *,
                  tolerance: float = 1e-6,
                  accuracy_budget: float = float("inf")) -> dict:
        """Scalar mapping of ``block``: the ``/v1/map`` round trip."""
        request = MapRequest(block=block, library=tuple(library),
                             platform=platform, tolerance=tolerance,
                             accuracy_budget=accuracy_budget)
        return self._call("POST", "/v1/map", request.to_payload())

    def pareto(self, block: str, library=DEFAULT_LIBRARY,
               platform: str = DEFAULT_PLATFORM, *,
               tolerance: float = 1e-6,
               accuracy_budget: float = float("inf")) -> dict:
        """The (cycles, energy, accuracy) front: ``/v1/pareto``."""
        request = MapRequest(block=block, library=tuple(library),
                             platform=platform, tolerance=tolerance,
                             accuracy_budget=accuracy_budget)
        return self._call("POST", "/v1/pareto", request.to_payload())

    def sweep(self, platforms=None, libraries=None, blocks=None, *,
              tolerance: float = 1e-6,
              accuracy_budget: float = float("inf")) -> dict:
        """The multi-platform sweep: ``/v1/sweep`` (canonical JSON)."""
        request = SweepRequest(
            platforms=tuple(platforms) if platforms is not None else None,
            libraries=tuple(libraries) if libraries is not None else None,
            blocks=tuple(blocks) if blocks is not None else None,
            tolerance=tolerance, accuracy_budget=accuracy_budget)
        return self._call("POST", "/v1/sweep", request.to_payload())

    # -- readiness -------------------------------------------------------
    def wait_healthy(self, deadline: float = 30.0,
                     interval: float = 0.1) -> dict:
        """Poll ``/healthz`` until it answers, for up to ``deadline``
        seconds (the CI smoke step's startup gate)."""
        end = time.monotonic() + deadline
        while True:
            try:
                return self.health()
            except (ServiceError, urllib.error.URLError,
                    ConnectionError, OSError):
                if time.monotonic() >= end:
                    raise
                time.sleep(interval)
