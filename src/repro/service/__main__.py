"""``python -m repro.service`` — run the mapping service.

Binds the asyncio HTTP front-end and serves until a signal arrives.
SIGTERM (the orchestrator's stop) *drains*: new requests are refused
with 503 + ``Retry-After`` while in-flight work gets up to
``--drain-grace`` seconds to finish.  SIGINT (an operator's ^C) skips
the grace window and shuts down immediately.

``--workers N`` (N >= 2) runs the multi-process fleet front instead:
a :class:`~repro.service.fleet.FleetSupervisor` forks N worker
processes behind one port (SO_REUSEPORT where available, a shared
inherited socket otherwise).  SIGTERM/SIGINT stop the fleet as above;
SIGHUP additionally triggers a graceful rolling restart — workers are
drained and replaced one at a time, so the port never goes dark.
"""

from __future__ import annotations

import argparse
import asyncio
import logging
import math
import signal
import threading

from repro.service.fleet import FleetSupervisor
from repro.service.server import DEFAULT_PORT, MappingService


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _positive_seconds(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, got {text}")
    return value


def _nonnegative_seconds(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text}")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve the symbolic library-mapping flow over "
                    "HTTP/JSON (see docs/architecture.md, 'Service "
                    "layer').")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: %(default)s)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help="bind port; 0 picks an ephemeral one "
                             "(default: %(default)s)")
    parser.add_argument("--workers", type=_positive_int, default=1,
                        help="fork N worker processes behind the port "
                             "(the fleet front; SIGHUP rolls them "
                             "over one at a time; default: one "
                             "in-process service)")
    parser.add_argument("--cache-dir", default=None,
                        help="pin the persistent mapping cache tier "
                             "to this directory")
    parser.add_argument("--request-timeout", type=_positive_seconds,
                        default=300.0,
                        help="per-request wall-clock bound, seconds; "
                             "expiry answers 503 + Retry-After "
                             "(default: %(default)s)")
    parser.add_argument("--max-inflight", type=_positive_int,
                        default=None,
                        help="admission bound: shed requests past N "
                             "in flight with 429 + Retry-After "
                             "(default: unbounded)")
    parser.add_argument("--retry-after", type=_nonnegative_seconds,
                        default=1.0,
                        help="seconds advertised in Retry-After on "
                             "429/503 sheds (default: %(default)s)")
    parser.add_argument("--drain-grace", type=_nonnegative_seconds,
                        default=30.0,
                        help="seconds SIGTERM waits for in-flight "
                             "work before stopping "
                             "(default: %(default)s)")
    parser.add_argument("--verbose", action="store_true",
                        help="debug-level logging")
    return parser


async def _serve(args: argparse.Namespace) -> None:
    service = MappingService(
        host=args.host, port=args.port,
        cache_dir=args.cache_dir, request_timeout=args.request_timeout,
        max_inflight=args.max_inflight, retry_after_hint=args.retry_after,
        drain_grace=args.drain_grace)
    await service.start()
    print(f"repro.service listening on "
          f"http://{service.host}:{service.port}", flush=True)

    stop = asyncio.Event()
    mode = {"drain": False}
    loop = asyncio.get_running_loop()

    def _stop(drain: bool) -> None:
        mode["drain"] = drain
        stop.set()

    try:
        loop.add_signal_handler(signal.SIGINT, _stop, False)
        loop.add_signal_handler(signal.SIGTERM, _stop, True)
    except NotImplementedError:          # platforms without signal fds
        pass
    try:
        await stop.wait()
    finally:
        if mode["drain"]:
            await service.drain()
        else:
            await service.shutdown()


def _serve_fleet(args: argparse.Namespace) -> None:
    """The --workers N path: supervise, answer signals, never serve."""
    supervisor = FleetSupervisor(
        workers=args.workers, host=args.host, port=args.port,
        cache_dir=args.cache_dir,
        request_timeout=args.request_timeout,
        max_inflight=args.max_inflight,
        retry_after_hint=args.retry_after,
        drain_grace=args.drain_grace)
    supervisor.start()
    supervisor.wait_ready()
    # Same prefix as the single-process line: CI smoke steps parse the
    # bound port out of "listening on http://HOST:PORT".
    print(f"repro.service listening on "
          f"http://{supervisor.host}:{supervisor.port} "
          f"({supervisor.workers} workers, {supervisor.strategy})",
          flush=True)

    wake = threading.Event()
    state = {"stop": False, "drain": True, "hup": False}

    def _on_signal(signum, _frame) -> None:
        if signum == signal.SIGHUP:
            state["hup"] = True
        else:
            state["stop"] = True
            state["drain"] = signum == signal.SIGTERM
        wake.set()

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, _on_signal)
    try:
        while True:
            wake.wait()
            wake.clear()
            if state["stop"]:
                break
            if state["hup"]:
                state["hup"] = False
                supervisor.rolling_restart()
                print("repro.service fleet rolled", flush=True)
    finally:
        supervisor.stop(drain=state["drain"])


def main(argv=None) -> None:
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    if args.workers > 1:
        try:
            _serve_fleet(args)
        except KeyboardInterrupt:
            pass
        return
    try:
        asyncio.run(_serve(args))
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
