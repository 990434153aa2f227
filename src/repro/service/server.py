"""Mapping-as-a-service: the asyncio HTTP/JSON front-end.

``MappingService`` turns the in-process mapping flow into a
long-running engine (GiNaC-style: a symbolic system embedded behind a
stable interface rather than an interactive script).  One process
serves:

====================  ======  =========================================
``/healthz``          GET     liveness probe
``/metrics``          GET     per-endpoint latency histograms + counters
``/v1/platforms``     GET     the processor registry, as JSON
``/v1/workloads``     GET     the workload registry, as JSON
``/v1/stats``         GET     cache tiers + single-flight counters
``/v1/map``           POST    scalar block mapping (cycles winner)
``/v1/pareto``        POST    the (cycles, energy, accuracy) front
``/v1/verify``        POST    measured accuracy of the winner's kernel
``/v1/sweep``         POST    the multi-platform sweep, canonical JSON
====================  ======  =========================================

The multi-process front (``python -m repro.service --workers N``) puts
N of these services behind one port and one shared disk tier; see
:mod:`repro.service.fleet` for the supervisor and the fleet-wide
``/metrics`` aggregation.

``/v1/map``, ``/v1/pareto`` and ``/v1/sweep`` accept a ``workload``
field selecting the workload-registry entry block names resolve in
(default ``"mp3"``).

Request lifecycle, stated once (and documented in
``docs/architecture.md``):

1. **admit** — the request passes the
   :class:`~repro.resilience.AdmissionController`: past
   ``max_inflight`` it is shed immediately with ``429`` +
   ``Retry-After`` (a draining service answers ``503``), so overload
   costs the cheapest possible work;
2. **parse** — strict JSON validation into the request dataclasses of
   :mod:`repro.api.types`; malformed input answers 400, unknown
   resources 404, nothing heavy has run yet;
3. **fingerprint** — the request resolves to the *same* cache key a
   direct ``MappingSession.map`` call builds, digested with
   :func:`~repro.mapping.cache.stable_digest`;
4. **single-flight** — concurrent identical requests coalesce onto one
   in-flight computation (:mod:`repro.service.singleflight`);
5. **batch engine** — the flight leader dispatches the work off the
   event loop onto a worker-thread executor, where it runs through
   the session's :func:`~repro.mapping.batch.run_batch` (the only
   code that reads or writes the cache tiers);
6. **cache write-through** — the engine merges results into the LRU
   and disk tiers, so the next identical request — this process or the
   next — is a cache hit, not a computation;
7. **canonical JSON** — responses are rendered per request from
   label-free cached values, byte-stably, so cold, warm and coalesced
   answers are byte-identical and always carry the labels of the
   request they answer.

Failure is part of the contract: a timed-out dispatch answers ``503``
with a ``Retry-After`` hint (not a hung or severed connection), a
draining service answers ``503`` and closes, a shed request answers
``429`` — a client sees exactly ``200 | 4xx | 503``, never silence.
The ``service.accept`` / ``service.dispatch`` fault sites
(:func:`repro.resilience.inject`) let the chaos suite prove that.

The server is stdlib-only by design (asyncio streams + a minimal
HTTP/1.1 reader): the repo's no-new-dependencies rule applies to the
service tier too.
"""

from __future__ import annotations

import asyncio
import inspect
import json
import logging
import math
import threading
from concurrent.futures import ThreadPoolExecutor

from repro.api import (MappingSession, MapRequest, MapResult, ParetoResult,
                       SessionConfig, SweepRequest, VerifyResult,
                       canonical_json)
from repro.errors import ServiceError
from repro.mapping.batch import BatchItem
from repro.mapping.cache import (SCHEMA_VERSION, fingerprint_block,
                                 fingerprint_library, stable_digest)
from repro.mapping.decompose import _map_block_key
from repro.mapping.pareto import BlockParetoResult
from repro.resilience import AdmissionController, inject
from repro.service.metrics import BUCKET_BOUNDS_WIRE, MetricsRegistry
from repro.service.protocol import parse_json_body
from repro.service.singleflight import SingleFlight

__all__ = ["MappingService", "ServiceThread", "DEFAULT_PORT"]

logger = logging.getLogger("repro.service")

#: The service's conventional port (CI smoke and examples use it).
DEFAULT_PORT = 8357

_REASONS = {200: "OK", 400: "Bad Request", 404: "Not Found",
            405: "Method Not Allowed", 413: "Payload Too Large",
            429: "Too Many Requests", 500: "Internal Server Error",
            503: "Service Unavailable"}


class MappingService:
    """The long-running mapping engine behind an HTTP/JSON interface.

    Parameters
    ----------
    host, port:
        Bind address.  ``port=0`` picks an ephemeral port; the bound
        one is readable as :attr:`port` after :meth:`start`.
    executor:
        Injectable request executor (any
        :class:`concurrent.futures.Executor`) that heavy work is
        dispatched onto, keeping the event loop free.  Defaults to a
        service-owned :class:`~concurrent.futures.ThreadPoolExecutor`
        of ``request_threads`` workers.  Injection is the test/bench
        seam: a gated executor makes coalescing deterministic.
    cache_dir:
        Pins the persistent disk tier for all service work.  Without
        an explicit ``session`` the service builds its own
        :class:`~repro.api.MappingSession` from
        :meth:`~repro.api.SessionConfig.from_env`, so ``None`` lets
        ``REPRO_CACHE_DIR``/``REPRO_NO_CACHE`` decide — and two
        services in one process never share statistics.
    session:
        An explicit :class:`~repro.api.MappingSession` to serve with,
        overriding ``cache_dir``.  The one object that owns the
        service's cross-cutting state: cache tiers, catalog and
        defaults.  Passing one session to several services shares its
        catalog, so blocks are extracted once.
    request_timeout:
        Per-request wall-clock bound, seconds.  Expiry answers ``503``
        with a ``Retry-After`` hint — slow work is shed like overload,
        because to the client it is the same condition.
    max_inflight:
        Admission bound: at most this many requests are in dispatch at
        once; excess requests are shed immediately with ``429`` +
        ``Retry-After`` instead of queueing behind the executor.
        ``None`` (the default) admits everything, unchanged from
        before admission control existed.
    retry_after_hint:
        Seconds advertised in ``Retry-After`` on 429/503 sheds.
    drain_grace:
        Default grace window :meth:`drain` waits for in-flight work.
    listen_socket:
        A pre-bound (not yet listening) socket to serve on instead of
        binding ``host``/``port``.  The fleet seam: the supervisor
        binds the shared/SO_REUSEPORT sockets before forking, and each
        worker passes its inherited socket here.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = DEFAULT_PORT,
                 *, executor=None,
                 cache_dir: "str | None" = None,
                 session: "MappingSession | None" = None,
                 request_threads: int = 4,
                 request_timeout: float = 300.0,
                 max_request_bytes: int = 1 << 20,
                 max_inflight: "int | None" = None,
                 retry_after_hint: float = 1.0,
                 drain_grace: float = 30.0,
                 listen_socket=None):
        self.host = host
        self.port = port
        self.request_timeout = request_timeout
        self.max_request_bytes = max_request_bytes
        self.retry_after_hint = retry_after_hint
        self.drain_grace = drain_grace
        self.admission = AdmissionController(max_inflight)
        self.draining = False
        self.requests = 0
        self.errors = 0
        self._request_threads = request_threads
        self._request_executor = executor
        self._owns_request_executor = executor is None
        self._server: "asyncio.base_events.Server | None" = None
        self._listen_socket = listen_socket
        self._handlers: "set[asyncio.Task]" = set()
        self.metrics = MetricsRegistry()
        if session is None:
            # Only a given directory is passed: from_env(cache_dir=None)
            # would override REPRO_CACHE_DIR with None.
            overrides = {} if cache_dir is None else {"cache_dir": cache_dir}
            session = MappingSession(SessionConfig.from_env(**overrides))
        self.session = session
        self.catalog = self.session.catalog
        self.flight = SingleFlight()
        self._routes = {"/healthz": ("GET", self._get_health),
                        "/metrics": ("GET", self._get_metrics),
                        "/v1/platforms": ("GET", self._get_platforms),
                        "/v1/workloads": ("GET", self._get_workloads),
                        "/v1/stats": ("GET", self._get_stats),
                        "/v1/map": ("POST", self._post_map),
                        "/v1/pareto": ("POST", self._post_pareto),
                        "/v1/verify": ("POST", self._post_verify),
                        "/v1/sweep": ("POST", self._post_sweep)}
        # Measurements (None for an unmapped block) keyed by content:
        # measurement is deterministic (fixed stimulus, fixed formats),
        # so a verified block is answered from memory for the process
        # lifetime instead of re-running its kernels.
        self._verify_cache: dict = {}

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Stand the executor up, warm the catalog, bind the socket.

        Frontend block extraction (the expensive part of a cold start,
        ~1.5s) runs on the request executor *before* the socket binds:
        an open port means ready, and the event loop never stalls on
        extraction under the first live request.
        """
        if self._server is not None:
            raise RuntimeError("service already started")
        if self._request_executor is None:
            self._request_executor = ThreadPoolExecutor(
                max_workers=self._request_threads,
                thread_name_prefix="repro-map")
        # Deliberately not via _offload: the injectable request
        # executor is a test seam (it may gate request work), and
        # warming must not depend on it.
        await asyncio.get_running_loop().run_in_executor(
            None, self.catalog.blocks)
        if self._listen_socket is not None:
            self._server = await asyncio.start_server(
                self._handle, sock=self._listen_socket)
        else:
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        logger.info("serving on http://%s:%s", self.host, self.port)

    async def shutdown(self) -> None:
        """Graceful stop: refuse new connections, drain, tear down.

        In-flight requests finish (bounded by ``request_timeout``);
        a service-owned executor is shut down afterwards.  Idempotent.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._handlers:
            await asyncio.gather(*list(self._handlers),
                                 return_exceptions=True)
        if self._owns_request_executor and self._request_executor is not None:
            self._request_executor.shutdown(wait=True)
            self._request_executor = None
        logger.info("service stopped")

    async def drain(self, grace: "float | None" = None) -> None:
        """The SIGTERM path: stop admitting, finish in-flight, stop.

        From the first moment of the drain every new request is
        answered ``503`` + ``Retry-After`` (with the usual
        ``Connection: close``); admitted work gets up to ``grace``
        seconds (default :attr:`drain_grace`) to finish before
        :meth:`shutdown` tears the listener down.  Idempotent, like
        :meth:`shutdown`.
        """
        if grace is None:
            grace = self.drain_grace
        self.draining = True
        logger.info("draining: refusing new work, %d in flight",
                    self.admission.inflight)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace
        while self.admission.inflight and loop.time() < deadline:
            await asyncio.sleep(0.05)
        await self.shutdown()

    # -- connection handling ---------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
        try:
            await self._handle_one(reader, writer)
        except Exception:
            logger.exception("connection handler failed")
        finally:
            if task is not None:
                self._handlers.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_one(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        # The timeout wraps reading and dispatch separately and never
        # the response write: a timed-out stage turns into exactly one
        # clean error response, instead of a second response racing a
        # partially-written one onto the wire.
        try:
            inject("service.accept")
            parsed = await asyncio.wait_for(self._read_request(reader),
                                            self.request_timeout)
        except asyncio.TimeoutError:
            self.errors += 1
            await self._respond(writer, 400,
                                {"error": "timed out reading request"})
            return
        except ServiceError as err:
            self.errors += 1
            await self._respond(writer, err.status, {"error": err.message},
                                retry_after=err.retry_after)
            return
        if parsed is None:       # peer connected and went away: no reply
            return
        method, path, body = parsed
        endpoint = path if path in self._routes else "other"
        self.requests += 1
        started = asyncio.get_running_loop().time()
        if self.draining:
            # Refusing with 503 + Retry-After (and the usual
            # Connection: close) lets well-behaved clients fail over
            # instead of piling onto a stopping process.
            self.errors += 1
            self.admission.shed(endpoint)
            self._observe(endpoint, started, 503)
            await self._respond(writer, 503, {"error": "service is draining"},
                                retry_after=self.retry_after_hint)
            return
        if not self.admission.try_acquire(endpoint):
            self.errors += 1
            self._observe(endpoint, started, 429)
            await self._respond(writer, 429,
                                {"error": "service is over capacity"},
                                retry_after=self.retry_after_hint)
            return
        retry_after = None
        try:
            status, payload = await asyncio.wait_for(
                self._dispatch(method, path, body), self.request_timeout)
        except asyncio.TimeoutError:
            # Work still grinding past the bound is overload by
            # another name: shed it retryably rather than answering
            # 500 (a fault) or leaving the connection hanging.
            status, payload = 503, {"error": "request timed out"}
            retry_after = self.retry_after_hint
        except ServiceError as err:
            status, payload = err.status, {"error": err.message}
            retry_after = err.retry_after
        except Exception as exc:
            logger.exception("request %s %s failed", method, path)
            status = 500
            payload = {"error": f"internal error: {type(exc).__name__}"}
        finally:
            self.admission.release(endpoint)
        if status >= 400:
            self.errors += 1
        self._observe(endpoint, started, status)
        await self._respond(writer, status, payload, retry_after=retry_after)

    def _observe(self, endpoint: str, started: float, status: int) -> None:
        """Record one answered request in the latency metrics."""
        elapsed = asyncio.get_running_loop().time() - started
        self.metrics.observe(endpoint, elapsed, status)

    async def _read_request(self, reader: asyncio.StreamReader):
        """``(method, path, body)`` of one request, or ``None`` on a
        silently-closed connection; malformed input raises 400."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as err:
            if not err.partial:
                return None
            raise ServiceError(400, "malformed HTTP request") from None
        except asyncio.LimitOverrunError:
            raise ServiceError(400, "request head too large") from None
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        parts = request_line.split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise ServiceError(400, f"malformed request line "
                                    f"{request_line!r}")
        method, target, _version = parts
        path = target.split("?", 1)[0]
        headers = {}
        for line in header_lines:
            if ":" in line:
                name, _sep, value = line.partition(":")
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise ServiceError(400, "malformed Content-Length") from None
        if length < 0 or length > self.max_request_bytes:
            raise ServiceError(413, "request body too large")
        body = b""
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                raise ServiceError(400, "truncated request body") from None
        return method.upper(), path, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload, *, retry_after: "float | None" = None) -> None:
        try:
            body = canonical_json(payload)
        except ValueError:
            status, body = 500, canonical_json(
                {"error": "non-finite value in response"})
        reason = _REASONS.get(status, "Error")
        # Retry-After is integral seconds per RFC 9110; rounding up
        # keeps a sub-second hint from becoming "retry immediately".
        hint = (f"Retry-After: {max(1, math.ceil(retry_after))}\r\n"
                if retry_after is not None else "")
        head = (f"HTTP/1.1 {status} {reason}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                f"{hint}"
                f"Connection: close\r\n\r\n").encode("ascii")
        try:
            writer.write(head + body)
            await writer.drain()
        except (ConnectionError, RuntimeError):
            pass                 # peer vanished mid-reply: nothing to do

    # -- routing ---------------------------------------------------------
    async def _dispatch(self, method: str, path: str, body: bytes):
        route = self._routes.get(path)
        if route is None:
            raise ServiceError(404, f"no such endpoint {path!r}")
        expected, handler = route
        if method != expected:
            raise ServiceError(405, f"{path} expects {expected}")
        if expected == "GET":
            result = handler()
            if inspect.isawaitable(result):
                # The fleet's aggregating /metrics handler is async
                # (it consults peers); plain GET handlers stay sync.
                result = await result
            return 200, result
        return 200, await handler(parse_json_body(body))

    # -- GET endpoints ----------------------------------------------------
    def _get_health(self) -> dict:
        return {"ok": True, "service": "repro.service",
                "schema_version": SCHEMA_VERSION}

    def _get_platforms(self) -> dict:
        # The session's payload verbatim — the same dict the CLI's
        # `repro platforms --json` renders — so a service built around
        # a custom registry advertises exactly the keys /v1/map resolves.
        return self.session.platforms_payload()

    def _get_workloads(self) -> dict:
        # The session's payload verbatim — the same dict the CLI's
        # `repro workloads --json` renders, which is what makes the
        # two surfaces byte-comparable.
        return self.session.workloads_payload()

    def _get_metrics(self):
        """The ``/metrics`` payload: per-endpoint latency histograms
        plus the admitted/shed/coalesced counters, in the mergeable
        shape documented in ``docs/architecture.md`` ("Fleet front").
        A single-process service reports ``workers: 1``; the fleet
        overrides this with the cross-worker aggregate.
        """
        return {"service": {"workers": 1,
                            "schema_version": SCHEMA_VERSION},
                "bucket_bounds_seconds": list(BUCKET_BOUNDS_WIRE),
                "endpoints": self.metrics.snapshot(),
                "requests": self.requests,
                "errors": self.errors,
                "admission": self.admission.stats(),
                "singleflight": self.flight.stats(),
                "caches": self.session.cache_counters()}

    def _get_stats(self) -> dict:
        return {"service": {"host": self.host, "port": self.port,
                            "requests": self.requests,
                            "errors": self.errors,
                            "schema_version": SCHEMA_VERSION,
                            "singleflight": self.flight.stats(),
                            "admission": self.admission.stats(),
                            "draining": self.draining},
                "caches": self.session.stats()}

    # -- POST endpoints ---------------------------------------------------
    async def _post_map(self, payload) -> dict:
        request = MapRequest.from_payload(payload)
        winner, matches, platform = await self._resolve_map(request)
        return MapResult(request=request, platform=platform, winner=winner,
                         matches=tuple(matches)).to_payload()

    async def _post_pareto(self, payload) -> dict:
        request = MapRequest.from_payload(payload)
        _winner, matches, platform = await self._resolve_map(request)
        # Fronts are derived in-process from the shared match list —
        # the same derived-front contract the sweep obeys — so energy
        # models are never baked into coalesced/cached values.
        result = BlockParetoResult.from_matches(request.block, platform,
                                                matches)
        return ParetoResult(request=request, result=result).to_payload()

    def _map_key(self, request: MapRequest):
        """``(cache key, block, library, platform)`` for one map or
        pareto request — the same key a direct ``MappingSession.map``
        call builds, which the single-flight layer digests with
        ``stable_digest``."""
        block = self.catalog.block(request.block, request.workload)
        library = self.catalog.library(request.library)
        platform = self.catalog.platform(request.platform)
        key = _map_block_key(block, library, platform,
                             request.tolerance, request.accuracy_budget)
        return key, block, library, platform

    async def _resolve_map(self, request: MapRequest):
        """Steps 2–5 of the request lifecycle for one block mapping."""
        key, block, library, platform = self._map_key(request)
        winner, matches = await self.flight.run(
            stable_digest(key),
            lambda: self._offload(self._map_work, request, block,
                                  library, platform))
        return winner, matches, platform

    def _map_work(self, request: MapRequest, block, library, platform):
        # The dispatch fault site fires on the executor thread: an
        # injected delay stalls the *work* (surfacing as a clean 503
        # timeout), never the event loop.
        inject("service.dispatch")
        report = self.session.batch(
            [BatchItem.for_block(block, library, platform,
                                 tolerance=request.tolerance,
                                 accuracy_budget=request.accuracy_budget)])
        return report.results[0]

    async def _post_verify(self, payload) -> dict:
        request = MapRequest.from_payload(payload)
        key, _block, _library, platform = self._map_key(request)
        # Cached and coalesced by content, rendered per request: the
        # library key ignores tag order, so a cached *response* would
        # answer ["IH", "LM"] with the "LM+IH" label of whoever came
        # first.  The workload picks the stimulus, so it is content.
        digest = stable_digest(("verify", request.workload) + key)
        if digest in self._verify_cache:
            measurement = self._verify_cache[digest]
        else:
            measurement = await self.flight.run(
                digest,
                lambda: self._offload(self._verify_work, request))
            if len(self._verify_cache) >= 1024:
                self._verify_cache.pop(next(iter(self._verify_cache)))
            self._verify_cache[digest] = measurement
        return VerifyResult(request=request, platform=platform,
                            measurement=measurement).to_payload()

    def _verify_work(self, request: MapRequest):
        inject("service.dispatch")
        # Name arguments from the validated request, so the session
        # resolves exactly like a CLI `repro verify` call and the two
        # surfaces stay byte-comparable.
        return self.session.verify(
            request.block, request.library, request.platform,
            tolerance=request.tolerance,
            accuracy_budget=request.accuracy_budget,
            workload=request.workload).measurement

    async def _post_sweep(self, payload) -> dict:
        request = SweepRequest.from_payload(payload)
        platform_keys = self.catalog.platform_keys(request.platforms)
        libraries = None
        if request.libraries is not None:
            libraries = [self.catalog.library_combo(combo)
                         for combo in request.libraries]
        blocks = self.catalog.block_subset(request.blocks, request.workload)
        # The workload key and the library combo strings are part of the
        # coalescing key even though the fingerprints cover the work:
        # the report *labels* itself with both (and library content
        # ignores tag order), so same-work/different-label requests
        # must not share a flight.
        key = ("service_sweep", request.workload, platform_keys,
               tuple(fingerprint_library(lib) for lib in libraries or ()),
               request.libraries,
               tuple(fingerprint_block(b) for b in blocks.values()),
               request.tolerance, request.accuracy_budget)
        report = await self.flight.run(
            stable_digest(key),
            lambda: self._offload(self._sweep_work, request,
                                  platform_keys, libraries, blocks))
        # Round-tripping through to_json() keeps the sweep's own
        # byte-parity guarantee.
        return json.loads(report.to_json())

    def _sweep_work(self, request: SweepRequest, platform_keys,
                    libraries, blocks):
        inject("service.dispatch")
        # The session's memoized flow: bound to its tiers and catalog.
        return self.session.flow().sweep(
            platforms=list(platform_keys), libraries=libraries,
            blocks=blocks, tolerance=request.tolerance,
            accuracy_budget=request.accuracy_budget,
            workload=request.workload)

    def _offload(self, fn, *args):
        """Run ``fn`` on the request executor; awaitable result."""
        loop = asyncio.get_running_loop()
        return loop.run_in_executor(self._request_executor, fn, *args)


class ServiceThread:
    """A :class:`MappingService` on a background event loop.

    The in-process harness tests, benchmarks and examples share: enter
    the context manager and the service is listening (``base_url``);
    exit and it has shut down gracefully.  The hosting thread owns a
    private event loop, so the caller's thread stays free for blocking
    clients.
    """

    def __init__(self, service: "MappingService | None" = None):
        self.service = service or MappingService(port=0)
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run,
                                        name="repro-service", daemon=True)
        self._started = threading.Event()
        self._startup_error: "BaseException | None" = None

    @property
    def base_url(self) -> str:
        return f"http://{self.service.host}:{self.service.port}"

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self.service.start())
        except BaseException as exc:       # startup failed: report it
            self._startup_error = exc
            self._started.set()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    def __enter__(self) -> "ServiceThread":
        self._thread.start()
        if not self._started.wait(timeout=60):
            raise TimeoutError("service failed to start in time")
        if self._startup_error is not None:
            raise self._startup_error
        return self

    def __exit__(self, *_exc_info) -> None:
        future = asyncio.run_coroutine_threadsafe(self.service.shutdown(),
                                                  self._loop)
        try:
            future.result(timeout=60)
        finally:
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=60)
