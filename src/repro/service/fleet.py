"""The multi-process fleet front: N workers, one port, one shared cache.

``python -m repro.service --workers N`` puts N pre-forked
:class:`~repro.service.server.MappingService` processes behind one
listening port.  Three pieces:

**Socket strategy.**  The supervisor binds *before* forking.  Where
the platform has ``SO_REUSEPORT`` (Linux, modern BSDs) each worker
gets its own socket bound to the same address and the kernel balances
new connections across the listening set; where it does not, one
parent-bound socket is inherited by every worker and they share an
accept queue.  Either way the parent never listens — only workers
accept — and the chosen strategy is reported in ``/v1/stats`` and the
startup line.

**Any worker serves any request.**  The worker that accepts a
connection answers it through the ordinary service path.  Every worker writes through into one sqlite disk tier, so a key
one worker computed is a disk hit (then an LRU hit) on every other.
That shared tier is what bounds duplicate work: sequential identical
cold requests compute once fleet-wide, and concurrent ones at most
once per worker (single-flight coalesces within a worker, not across
workers).

**Supervision.**  The parent process is a supervisor, not a proxy: it
forks workers, respawns crashed ones with exponential backoff, and
answers ``SIGHUP`` with a graceful rolling restart — one slot at a
time, SIGTERM (the worker drains via the PR-7 machinery and exits),
join, fork a replacement, wait for its internal ``/healthz``, then
the next slot — so a config rollout never drops below N-1 serving
workers.

Each worker also listens on a private loopback port that carries only
peer ``/metrics`` scrapes and the supervisor's ``/healthz`` probes.
Admission control is per worker
(:class:`~repro.resilience.AdmissionController`).  ``GET /metrics`` on
any worker aggregates every worker's histograms and counters
(:mod:`repro.service.metrics`) into one fleet-wide view.

The ``fleet.worker`` fault site (:func:`repro.resilience.inject`)
fires as a worker accepts a public connection; a chaos rule arming it
kills the worker process (``os._exit``), which is how the chaos suite
proves crashed-worker respawn keeps the {200, 429, 503} response
contract.
"""

from __future__ import annotations

import asyncio
import contextvars
import http.client
import json
import logging
import multiprocessing
import os
import signal
import socket
import tempfile
import threading
import time
import warnings

from repro.api import MappingSession, SessionConfig
from repro.mapping.cache import SCHEMA_VERSION
from repro.resilience import inject
from repro.service.metrics import (BUCKET_BOUNDS_WIRE, merge_counters,
                                   merge_metrics)
from repro.service.server import MappingService

__all__ = ["FleetWorker", "FleetSupervisor"]

logger = logging.getLogger("repro.service.fleet")

#: True on connections arriving at a worker's *internal* loopback
#: listener (peer metrics scrapes, supervisor health probes).  Such a
#: connection skips the ``fleet.worker`` chaos site and answers
#: ``/metrics`` with the local snapshot, so aggregation never recurses.
_INTERNAL: "contextvars.ContextVar[bool]" = contextvars.ContextVar(
    "repro_fleet_internal", default=False)


class FleetWorker(MappingService):
    """One fleet member: a :class:`MappingService` plus fleet plumbing.

    Extends the base service with (a) an internal loopback listener
    that peers scrape local metrics from and the supervisor probes for
    health, (b) the ``fleet.worker`` chaos site on public connections,
    and (c) a fleet-aggregating ``GET /metrics``.

    Parameters beyond the base service's:

    worker_index:
        This worker's slot.
    internal_ports:
        Every worker's internal listener port, indexed by slot — the
        fleet's static membership map, fixed by the supervisor before
        forking.
    internal_socket:
        This worker's pre-bound internal listener socket.
    strategy:
        The supervisor's socket strategy string (``"so_reuseport"`` or
        ``"shared_socket"``), reported in stats.
    """

    #: Seconds a peer metrics scrape may take before that peer is
    #: reported in ``missing_workers``.
    SCRAPE_TIMEOUT = 5.0

    def __init__(self, *, worker_index: int = 0,
                 internal_ports=(0,), internal_socket=None,
                 strategy: str = "single", **kwargs):
        super().__init__(**kwargs)
        self.worker_index = worker_index
        self.internal_ports = tuple(internal_ports)
        self.strategy = strategy
        self._internal_socket = internal_socket
        self._internal_server: "asyncio.base_events.Server | None" = None

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        await super().start()
        if self._internal_socket is not None:
            self._internal_server = await asyncio.start_server(
                self._handle_internal, sock=self._internal_socket)

    async def shutdown(self) -> None:
        if self._internal_server is not None:
            self._internal_server.close()
            await self._internal_server.wait_closed()
            self._internal_server = None
        await super().shutdown()

    async def _handle_internal(self, reader, writer) -> None:
        # Each connection handler runs in its own task (own context
        # copy), so the flag scopes exactly to this request.
        _INTERNAL.set(True)
        await self._handle(reader, writer)

    async def _handle(self, reader, writer) -> None:
        if not _INTERNAL.get():
            try:
                inject("fleet.worker")
            except Exception:
                # The chaos contract for this site is a *crash*, not
                # an error response: the worker dies mid-service, the
                # client sees a severed connection and retries, and
                # the supervisor respawns the slot.
                os._exit(70)
        await super()._handle(reader, writer)

    # -- observability ---------------------------------------------------
    async def _get_metrics(self):
        """Fleet-wide ``/metrics``: every worker's local snapshot,
        merged.  Internal scrapes answer the local snapshot only —
        the aggregation never recurses.
        """
        local = super()._get_metrics()
        if _INTERNAL.get():
            return local
        loop = asyncio.get_running_loop()
        snapshots = [local]
        missing = []
        peers = [index for index in range(len(self.internal_ports))
                 if index != self.worker_index]
        results = await asyncio.gather(
            *[loop.run_in_executor(None, self._scrape, index)
              for index in peers], return_exceptions=True)
        for index, result in zip(peers, results):
            if isinstance(result, dict):
                snapshots.append(result)
            else:
                missing.append(index)
        return {"service": {"workers": len(self.internal_ports),
                            "reporting": len(snapshots),
                            "missing_workers": missing,
                            "strategy": self.strategy,
                            "schema_version": SCHEMA_VERSION},
                "bucket_bounds_seconds": list(BUCKET_BOUNDS_WIRE),
                "endpoints": merge_metrics(
                    [s.get("endpoints", {}) for s in snapshots]),
                "requests": sum(s.get("requests", 0) for s in snapshots),
                "errors": sum(s.get("errors", 0) for s in snapshots),
                "admission": merge_counters(
                    [s.get("admission", {}) for s in snapshots]),
                "singleflight": merge_counters(
                    [s.get("singleflight", {}) for s in snapshots]),
                "caches": merge_counters(
                    [s.get("caches", {}) for s in snapshots])}

    def _scrape(self, index: int) -> dict:
        conn = http.client.HTTPConnection(
            "127.0.0.1", self.internal_ports[index],
            timeout=self.SCRAPE_TIMEOUT)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            data = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"worker {index} metrics -> "
                               f"{response.status}")
        return json.loads(data)

    def _get_stats(self) -> dict:
        stats = super()._get_stats()
        stats["fleet"] = {"worker_index": self.worker_index,
                          "workers": len(self.internal_ports),
                          "strategy": self.strategy}
        return stats


# ----------------------------------------------------------------------
# The supervisor (parent process)
# ----------------------------------------------------------------------
def _worker_main(index, config, public_socket, internal_socket,
                 internal_ports, session, strategy):
    """Forked-child entry point: serve one fleet slot until signalled.

    Runs with everything inherited through fork — the pre-bound
    sockets, the supervisor-warmed session (catalog extraction already
    done), and any active chaos plan (which is how the chaos suite
    arms ``fleet.worker`` in children it never touches directly).
    """
    try:
        asyncio.run(_worker_serve(index, config, public_socket,
                                  internal_socket, internal_ports,
                                  session, strategy))
    except KeyboardInterrupt:
        pass


async def _worker_serve(index, config, public_socket, internal_socket,
                        internal_ports, session, strategy):
    worker = FleetWorker(worker_index=index,
                         internal_ports=internal_ports,
                         internal_socket=internal_socket,
                         listen_socket=public_socket,
                         session=session, strategy=strategy, **config)
    await worker.start()
    logger.info("fleet worker %d serving (pid %d)", index, os.getpid())

    stop = asyncio.Event()
    mode = {"drain": True}
    loop = asyncio.get_running_loop()

    def _stop(drain: bool) -> None:
        mode["drain"] = drain
        stop.set()

    try:
        loop.add_signal_handler(signal.SIGTERM, _stop, True)
        loop.add_signal_handler(signal.SIGINT, _stop, False)
    except NotImplementedError:              # platforms without signal fds
        pass
    try:
        await stop.wait()
    finally:
        if mode["drain"]:
            await worker.drain()
        else:
            await worker.shutdown()


class FleetSupervisor:
    """Bind, fork, watch: the fleet's parent process.

    ``start()`` binds the public socket(s) and one internal loopback
    socket per worker, warms the shared session's catalog once (the
    expensive frontend extraction is paid pre-fork and inherited), and
    forks ``workers`` children.  A monitor thread respawns crashed
    workers with exponential backoff; :meth:`rolling_restart` replaces
    workers one at a time without dropping the port.  The parent never
    listens and never serves.

    When ``cache_dir`` is ``None`` the supervisor creates a private
    cache directory (removed on :meth:`stop`), because a fleet without
    one shared sqlite disk tier would compute each cold key once per
    worker and never serve one worker's answer from another.
    """

    def __init__(self, workers: int = 2, host: str = "127.0.0.1",
                 port: int = 0, *, cache_dir: "str | None" = None,
                 request_timeout: float = 300.0,
                 max_inflight: "int | None" = None,
                 retry_after_hint: float = 1.0,
                 drain_grace: float = 30.0,
                 respawn: bool = True,
                 respawn_backoff: float = 0.25,
                 respawn_backoff_cap: float = 5.0):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        # Checked here, not first in each forked worker, where a bad
        # bound would crash-loop every slot through respawn.
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}")
        self.workers = workers
        self.host = host
        self.port = port
        self.strategy = "unbound"
        self.restarts = 0
        self.cache_dir = cache_dir
        self.drain_grace = drain_grace
        self._config = {"request_timeout": request_timeout,
                        "max_inflight": max_inflight,
                        "retry_after_hint": retry_after_hint,
                        "drain_grace": drain_grace}
        self._respawn = respawn
        self._respawn_backoff = respawn_backoff
        self._respawn_backoff_cap = respawn_backoff_cap
        self._owns_cache_dir = False
        self._session: "MappingSession | None" = None
        self._public_sockets: "list[socket.socket]" = []
        self._worker_sockets: "list[socket.socket]" = []
        self._internal_sockets: "list[socket.socket]" = []
        self.internal_ports: "tuple[int, ...]" = ()
        self._procs: "list" = [None] * workers
        self._crashes = [0] * workers
        self._lock = threading.Lock()
        self._replacing: "set[int]" = set()
        self._stopping = threading.Event()
        self._monitor_thread: "threading.Thread | None" = None

    # -- socket strategy -------------------------------------------------
    @staticmethod
    def _new_socket(reuseport: bool) -> socket.socket:
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        if reuseport:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return sock

    def _bind_public(self) -> None:
        """One socket per worker via SO_REUSEPORT, else one shared.

        The parent binds but never listens: with SO_REUSEPORT the
        kernel balances only across *listening* sockets, so a bound
        non-listening parent copy never swallows connections.
        """
        if hasattr(socket, "SO_REUSEPORT"):
            sockets: "list[socket.socket]" = []
            try:
                first = self._new_socket(reuseport=True)
                first.bind((self.host, self.port))
                sockets.append(first)
                bound = first.getsockname()[1]
                for _ in range(self.workers - 1):
                    sock = self._new_socket(reuseport=True)
                    sock.bind((self.host, bound))
                    sockets.append(sock)
            except OSError:
                for sock in sockets:
                    sock.close()
            else:
                self.port = bound
                self.strategy = "so_reuseport"
                self._public_sockets = sockets
                self._worker_sockets = sockets
                return
        shared = self._new_socket(reuseport=False)
        shared.bind((self.host, self.port))
        self.port = shared.getsockname()[1]
        self.strategy = "shared_socket"
        self._public_sockets = [shared]
        self._worker_sockets = [shared] * self.workers

    def _bind_internal(self) -> None:
        ports = []
        for _ in range(self.workers):
            sock = self._new_socket(reuseport=False)
            sock.bind(("127.0.0.1", 0))
            self._internal_sockets.append(sock)
            ports.append(sock.getsockname()[1])
        self.internal_ports = tuple(ports)

    # -- lifecycle -------------------------------------------------------
    def start(self) -> None:
        """Bind, warm, fork all workers, start the crash monitor."""
        if self._monitor_thread is not None or any(self._procs):
            raise RuntimeError("fleet already started")
        if self.cache_dir is None:
            self.cache_dir = tempfile.mkdtemp(prefix="repro-fleet-")
            self._owns_cache_dir = True
        self._session = MappingSession(
            SessionConfig.from_env(cache_dir=self.cache_dir))
        self._session.catalog.blocks()       # pay extraction once, pre-fork
        self._bind_public()
        self._bind_internal()
        for index in range(self.workers):
            self._procs[index] = self._spawn(index)
        if self._respawn:
            self._monitor_thread = threading.Thread(
                target=self._monitor, name="repro-fleet-monitor",
                daemon=True)
            self._monitor_thread.start()
        logger.info("fleet up: %d workers on %s:%d (%s)", self.workers,
                    self.host, self.port, self.strategy)

    def _spawn(self, index: int):
        context = multiprocessing.get_context("fork")
        process = context.Process(
            target=_worker_main,
            args=(index, dict(self._config), self._worker_sockets[index],
                  self._internal_sockets[index], self.internal_ports,
                  self._session, self.strategy),
            name=f"repro-fleet-{index}", daemon=False)
        with warnings.catch_warnings():
            # 3.12 warns on fork-from-thread; the monitor thread's
            # respawn path is deliberate and the children exec nothing.
            warnings.simplefilter("ignore", DeprecationWarning)
            process.start()
        return process

    def _monitor(self) -> None:
        while not self._stopping.is_set():
            for index in range(self.workers):
                if self._stopping.is_set():
                    return
                with self._lock:
                    process = self._procs[index]
                    replacing = index in self._replacing
                if replacing or process is None or process.is_alive():
                    continue
                self._crashes[index] += 1
                delay = min(self._respawn_backoff_cap,
                            self._respawn_backoff
                            * (2 ** (self._crashes[index] - 1)))
                logger.warning(
                    "fleet worker %d died (exit %s); respawn #%d in %.2fs",
                    index, process.exitcode, self._crashes[index], delay)
                if self._stopping.wait(delay):
                    return
                with self._lock:
                    if self._stopping.is_set() or index in self._replacing:
                        continue
                    self._procs[index] = self._spawn(index)
                    self.restarts += 1
            self._stopping.wait(0.05)

    def _wait_ready(self, index: int, deadline: float = 60.0) -> None:
        """Block until worker ``index`` answers its internal /healthz."""
        end = time.monotonic() + deadline
        while True:
            try:
                conn = http.client.HTTPConnection(
                    "127.0.0.1", self.internal_ports[index], timeout=5)
                try:
                    conn.request("GET", "/healthz")
                    if conn.getresponse().status == 200:
                        return
                finally:
                    conn.close()
            except OSError:
                pass
            if time.monotonic() >= end:
                raise TimeoutError(f"fleet worker {index} not ready "
                                   f"after {deadline}s")
            time.sleep(0.05)

    def wait_ready(self, deadline: float = 60.0) -> None:
        """Block until every worker answers its internal /healthz."""
        for index in range(self.workers):
            self._wait_ready(index, deadline)

    # -- rolling restart -------------------------------------------------
    def rolling_restart(self) -> None:
        """The SIGHUP path: drain-and-replace one worker at a time.

        Per slot: SIGTERM (the worker stops accepting, drains
        in-flight work through the PR-7 machinery, exits), join, fork
        a replacement on the *same* inherited sockets, wait for its
        internal ``/healthz``.  The remaining N-1 workers keep serving
        the port throughout, so the fleet never goes dark.
        """
        logger.info("rolling restart: %d workers", self.workers)
        for index in range(self.workers):
            self._replace(index)
        logger.info("rolling restart complete")

    def _replace(self, index: int) -> None:
        with self._lock:
            self._replacing.add(index)
            process = self._procs[index]
        try:
            if process is not None and process.is_alive():
                os.kill(process.pid, signal.SIGTERM)
                process.join(timeout=self.drain_grace + 30.0)
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)
            with self._lock:
                self._crashes[index] = 0
                self._procs[index] = self._spawn(index)
                self.restarts += 1
            self._wait_ready(index)
        finally:
            with self._lock:
                self._replacing.discard(index)

    # -- stop ------------------------------------------------------------
    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop every worker (gracefully when ``drain``), close sockets.

        Idempotent.  Escalates SIGTERM -> terminate -> kill so a
        wedged worker cannot hang the supervisor's exit.
        """
        self._stopping.set()
        if self._monitor_thread is not None:
            self._monitor_thread.join(timeout=10.0)
            self._monitor_thread = None
        signum = signal.SIGTERM if drain else signal.SIGINT
        with self._lock:
            procs = list(self._procs)
        for process in procs:
            if process is not None and process.is_alive():
                try:
                    os.kill(process.pid, signum)
                except (ProcessLookupError, OSError):
                    pass
        deadline = time.monotonic() + timeout
        for process in procs:
            if process is None:
                continue
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            if process.is_alive():
                process.kill()
                process.join(timeout=5.0)
        self._procs = [None] * self.workers
        for sock in self._public_sockets + self._internal_sockets:
            try:
                sock.close()
            except OSError:
                pass
        self._public_sockets = []
        self._worker_sockets = []
        self._internal_sockets = []
        if self._owns_cache_dir and self.cache_dir is not None:
            import shutil
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None
            self._owns_cache_dir = False
        logger.info("fleet stopped")

    def status(self) -> dict:
        """A supervisor's-eye snapshot (pids, liveness, restarts)."""
        with self._lock:
            procs = list(self._procs)
        return {"workers": self.workers,
                "host": self.host, "port": self.port,
                "strategy": self.strategy,
                "internal_ports": list(self.internal_ports),
                "pids": [p.pid if p is not None else None for p in procs],
                "alive": [bool(p is not None and p.is_alive())
                          for p in procs],
                "restarts": self.restarts}

    def __enter__(self) -> "FleetSupervisor":
        self.start()
        self.wait_ready()
        return self

    def __exit__(self, *_exc_info) -> None:
        self.stop()
