"""The HTTP workloads: ``warm_http`` and ``miss_http``.

Both run one ``python -m repro.service --port 0 --cache-dir <fresh dir>``
and drive it from closed-loop clients (each sends its next request when
the previous answer is in) through a raw socket client that never
retries, so every failure is counted.  The keys cover the registry's 9
blocks x 4 library rungs x 4 platforms, on ``/v1/map`` and
``/v1/pareto``; a round sends every (endpoint, key) pair once, in an
order shuffled by the seed.

* ``warm_http`` primes every pair during set-up, so each timed request
  is an LRU hit, and every timed body must equal its priming body byte
  for byte.  Two clients (one per vCPU of the reference host).
* ``miss_http`` sends one request per registry workload during set-up
  (extraction happens there) and repeats that set-up on three fresh
  servers, timing the last one; it gives every timed request a unique
  ``accuracy_budget`` >= 1.0: each misses the LRU and sqlite, runs the
  block match and writes through.  Every element's accuracy is at most
  0.02, so the answers equal the budget-free table.  One client: it
  already keeps the server busy (a second one on the 2-vCPU reference
  host left requests per second unchanged and more than doubled the
  median latency), so a second client would add only queueing.
"""

from __future__ import annotations

import json
import random
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import common

ENDPOINTS = ("/v1/map", "/v1/pareto")
CLIENTS = {"warm_http": 2, "miss_http": 1}
#: Seconds one round (288 requests) takes on the reference host (2 vCPU).
ROUND_SECONDS = {"warm_http": 3.3, "miss_http": 8.2}
#: Requests a run sends at least: five rounds, which put fourteen samples
#: beyond the p99 (ten is the least that makes it a percentile to report).
MIN_REQUESTS = 1440
#: Server starts per untraced run; ``setup_s`` is their median.  A
#: ``warm_http`` set-up primes 288 requests (about 8 s); a ``miss_http``
#: one sends four (about 2 s), so it is repeated.
SETUP_STARTS = {"warm_http": 1, "miss_http": 3}
TINY_BLOCKS = ("gsm_mac/vq_energy8", "dsp/rfft8")
TINY_PLATFORMS = ("SA-1110", "DSP")


def keys(expected: common.Expected, tiny: bool) -> list:
    """``(workload, block, rung tags, platform)`` for every timed key."""
    blocks = expected.blocks()
    platforms = expected.platforms
    if tiny:
        blocks = [tuple(name.split("/", 1)) for name in TINY_BLOCKS]
        platforms = TINY_PLATFORMS
    return [(workload, block, rung, platform)
            for workload, block in blocks for rung in common.RUNGS for platform in platforms]


def rounds_for(workload: str, seconds: float, n_keys: int) -> int:
    per_round = len(ENDPOINTS) * n_keys
    by_time = round(seconds / ROUND_SECONDS[workload])
    return max(1, by_time, -(-MIN_REQUESTS // per_round))


def plan(workload: str, seed: int, rounds: int, key_list: list) -> list:
    """The seeded operation list: ``(endpoint, key, accuracy budget)``."""
    rng = random.Random(seed)
    pairs = [(endpoint, key) for endpoint in ENDPOINTS for key in key_list]
    ops = []
    for _ in range(rounds):
        rng.shuffle(pairs)
        ops.extend(pairs)
    if workload == "warm_http":
        return [(endpoint, key, None) for endpoint, key in ops]
    budgets = set()
    while len(budgets) < len(ops):
        budgets.add(1.0 + rng.random())
    return [(endpoint, key, budget) for (endpoint, key), budget in zip(ops, sorted(budgets))]


def request_body(key, budget) -> bytes:
    workload, block, rung, platform = key
    payload = {"block": block, "library": list(rung), "platform": platform,
               "workload": workload}
    if budget is not None:
        payload["accuracy_budget"] = budget
    return json.dumps(payload).encode("ascii")


def http(port: int, method: str, path: str, body: bytes = b"") -> tuple[int, bytes]:
    """One request on a fresh connection; ``(status, body)``."""
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n").encode("ascii")
    with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
        sock.sendall(head + body)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed before the response head")
            data += chunk
        head_bytes, _, payload = data.partition(b"\r\n\r\n")
        lines = head_bytes.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = next(int(line.split(":", 1)[1]) for line in lines[1:]
                      if line.lower().startswith("content-length:"))
        while len(payload) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("connection closed inside the response body")
            payload += chunk
    return status, payload


def check(expected: common.Expected, key, status: int, body: bytes) -> bool:
    """True iff a response answers ``key`` as the expected table says."""
    if status != 200:
        return False
    workload, block, rung, platform = key
    try:
        answer = json.loads(body)
    except ValueError:
        return False
    return (answer.get("winner") == expected.winner(workload, block, common.rung_label(rung),
                                                     platform)
            and answer.get("block") == block and answer.get("platform") == platform
            and answer.get("library") == common.rung_label(rung)
            and answer.get("workload") == workload)


class Server:
    """One service process (plain, or through the tracing launcher)."""

    def __init__(self, run_dir: Path, trace_out: "Path | None" = None):
        run_dir.mkdir(parents=True)
        service_args = ["--port", "0", "--cache-dir", str(run_dir / "cache")]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro.service", *service_args]
        else:
            cmd = [sys.executable, str(common.BENCH_DIR / "traced_server.py"),
                   str(trace_out), *service_args]
        self.log_path = run_dir / "server.log"
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=log,
                                         env=common.child_env(), cwd=str(common.ROOT))
        try:
            self.port = self._await_listening(deadline=time.monotonic() + 120)
        except BaseException:
            self.stop()
            raise

    def _await_listening(self, deadline: float) -> int:
        buffered = b""
        fd = self.proc.stdout.fileno()
        while b"\n" not in buffered:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise RuntimeError("service did not start listening in time")
            chunk = self.proc.stdout.read1(4096)
            if not chunk:
                raise RuntimeError(f"service exited: {self.log_tail()}")
            buffered += chunk
        line = buffered.split(b"\n", 1)[0].decode()
        return int(line.rsplit(":", 1)[1].split()[0])

    def log_tail(self) -> str:
        return self.log_path.read_text(errors="replace")[-2000:]

    def stats(self) -> dict:
        status, body = http(self.port, "GET", "/v1/stats")
        if status != 200:
            raise RuntimeError(f"/v1/stats answered {status}")
        return json.loads(body)["service"]

    def peak_rss_mb(self) -> float:
        return common.vm_hwm_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _prime(server: Server, workload: str, expected, key_list) -> tuple[dict, int]:
    """Set-up requests; ``(priming bodies, wrong answers)``."""
    bodies, wrong = {}, 0
    if workload == "warm_http":
        pairs = [(endpoint, key) for endpoint in ENDPOINTS for key in key_list]
    else:
        # One request per registry workload (its blocks are extracted on
        # first use), each on another rung so every library is built too.
        first = {}
        for workload_key, block, _rung, platform in key_list:
            first.setdefault(workload_key, (block, platform))
        pairs = [("/v1/map", (w, block, common.RUNGS[i % len(common.RUNGS)], platform))
                 for i, (w, (block, platform)) in enumerate(first.items())]
    for endpoint, key in pairs:
        status, body = http(server.port, "POST", endpoint, request_body(key, None))
        if not check(expected, key, status, body):
            wrong += 1
            print(f"set-up request {endpoint} {key} answered {status}: {body[:200]!r}",
                  file=sys.stderr)
        bodies[(endpoint, key)] = body
    return bodies, wrong


def _drive(port: int, ops: list, clients: int, expected, primed: dict) -> dict:
    """Send ``ops`` from ``clients`` closed-loop clients."""
    cursor = iter(range(len(ops)))
    lock = threading.Lock()
    latencies = [None] * len(ops)
    outcome = {"failed": 0, "incorrect": 0}

    def client() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            endpoint, key, budget = ops[index]
            body = request_body(key, budget)
            start = time.perf_counter()
            try:
                status, answer = http(port, "POST", endpoint, body)
            except Exception as exc:  # refused, reset, garbled: a failed op
                status, answer = 0, repr(exc).encode()
            latencies[index] = time.perf_counter() - start
            good = check(expected, key, status, answer)
            if good and primed and answer != primed[(endpoint, key)]:
                good = False
            if not good:
                with lock:
                    outcome["failed"] += 1
                    outcome["incorrect"] += int(status == 200)
                print(f"{endpoint} {key} answered {status}: {answer[:200]!r}", file=sys.stderr)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    end = time.monotonic()
    return {"latencies": latencies, "window": [start, end], **outcome}


def _start(run_dir: Path, workload: str, expected, key_list, trace_out=None):
    """``(server, priming bodies, wrong answers, set-up seconds)``."""
    started = time.perf_counter()
    server = Server(run_dir, trace_out)
    try:
        primed, wrong = _prime(server, workload, expected, key_list)
    except Exception:
        print(server.log_tail(), file=sys.stderr)
        server.stop()
        raise
    return server, primed, wrong, time.perf_counter() - started


def run_pass(args, trace_out: "Path | None" = None) -> dict:
    """Set-up (repeated ``SETUP_STARTS`` times), then the timed ops on
    the last server, for ``run.py``'s ``args``; the measurements."""
    workload = args.workload
    expected = common.Expected.load()
    key_list = keys(expected, args.tiny)
    rounds = 1 if args.tiny else rounds_for(workload, args.seconds, len(key_list))
    ops = plan(workload, args.seed, rounds, key_list)
    base = common.WORK_DIR / f"{workload}-{args.seed}-{time.time_ns()}"
    starts = 1 if trace_out else SETUP_STARTS[workload]
    setups, wrong = [], 0
    try:
        for n in range(starts):
            server, primed, bad, setup_s = _start(base / str(n), workload, expected, key_list,
                                                  trace_out)
            setups.append(setup_s)
            wrong += bad
            if n < starts - 1:
                server.stop()
        try:
            before = server.stats()
            result = _drive(server.port, ops, CLIENTS[workload], expected,
                            primed if workload == "warm_http" else {})
            after = server.stats()
            result["rss_mb"] = server.peak_rss_mb()
        except Exception:
            print(server.log_tail(), file=sys.stderr)
            raise
        finally:
            server.stop()
    finally:
        shutil.rmtree(base, ignore_errors=True)
    result.update(setup_s=statistics.median(setups), setup_wrong=wrong, attempted=len(ops),
                  stats=(before, after))
    return result


def end_to_end(result) -> dict:
    """``{metric: (value, unit)}`` of one untraced pass."""
    latencies = result["latencies"]
    start, end = result["window"]
    return {
        "setup_s": (result["setup_s"], "s"),
        "ops_per_s": (len(latencies) / (end - start), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (common.tail(latencies) * 1e3, "ms"),
        "peak_rss_mb": (result["rss_mb"], "MB"),
    }
