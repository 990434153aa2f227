"""The ``cold_pipeline`` workload: every item cold, in-process, one caller.

The orchestrator (:func:`run_pass`) starts worker processes of this file.
Each worker imports the program, builds the library ladder and prints
``ready``; the time from spawn to that line is one set-up sample.
``--setup-only`` workers stop there; the last worker goes on to the
timed items and prints one JSON line of results.

An item is either a registry block -- ``BlockSpec.build()``, then
``map``, ``pareto`` and ``verify`` on the full library, all three
rendered to JSON -- or one of the paper's scalar targets through
``session.decompose``.  Every item runs on a fresh ``MappingSession``
with no disk tier and every cache the session can clear cleared, so
frontend extraction, the Groebner search and codegen lowering do their
whole work on each item.  Each round runs every item once, in an order
shuffled by the seed, so every run does the same work.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

PLATFORM = "SA-1110"
#: Decompose targets: the paper's side-relation example, a cancelling
#: cube, and four degree-4 Taylor models priced at accuracy budget 5e-2.
TARGET_BUDGETS = {
    "paper_side_relation": float("inf"),
    "cube_difference": float("inf"),
    "taylor_exp": 5e-2,
    "taylor_sin": 5e-2,
    "taylor_cos": 5e-2,
    "taylor_log1p": 5e-2,
}
TINY_ITEMS = (("block", "gsm_mac/vq_energy8"), ("block", "dsp/rfft8"),
              ("target", "taylor_exp"), ("target", "taylor_cos"))
#: Seconds one round of all 15 items takes on the reference host
#: (2 vCPU); ``--seconds`` is turned into whole rounds with it.
ROUND_SECONDS = 8.5
#: Three samples of each item put the tail quantile (ten samples beyond
#: it) among repeats of one item instead of between two items' costs.
MIN_ROUNDS = 3
#: Fresh worker starts per untraced run; ``setup_s`` is their median,
#: since one sub-second start is too short to outlast the host's jitter.
SETUP_SAMPLES = 11


def _targets():
    from repro.symalg import Polynomial, symbols, taylor

    x, y = symbols("x y")
    polys = {
        "paper_side_relation": x + x ** 3 * y ** 2 - 2 * x * y ** 3,
        "cube_difference": (x + y) ** 3 - x ** 3 - y ** 3,
    }
    arg = {"_arg": Polynomial.variable("x")}
    for fn in ("exp", "sin", "cos", "log1p"):
        polys[f"taylor_{fn}"] = taylor(fn, 4).substitute(arg)
    return polys


class Worker:
    """One worker process's program state: the ladder and the items."""

    def __init__(self):
        from repro.api import MappingSession, SessionConfig
        from repro.api.catalog import ResourceCatalog
        from repro.symalg.gcdtools import clear_gcd_caches
        from repro.symalg.ideal import clear_ideal_caches
        from repro.workload import DEFAULT_WORKLOAD_REGISTRY

        self._session_type = MappingSession
        self._config = SessionConfig()
        self._clears = (clear_ideal_caches, clear_gcd_caches)
        catalog = ResourceCatalog()
        ladder = [catalog.library(tags) for tags in common.RUNGS]
        self.library = ladder[-1]
        self.specs = {f"{entry.key}/{spec.name}": (entry.key, spec)
                      for entry in DEFAULT_WORKLOAD_REGISTRY
                      for spec in entry.workload.block_specs()}
        self.targets = _targets()

    def fresh_session(self):
        session = self._session_type(self._config)
        session.clear_caches()
        for clear in self._clears:
            clear()
        return session

    def run_item(self, session, kind: str, name: str):
        """Run one item; returns the answers to check."""
        if kind == "target":
            result = session.decompose(self.targets[name], self.library, PLATFORM,
                                       accuracy_budget=TARGET_BUDGETS[name])
            return result.best.element_names()
        workload, spec = self.specs[name]
        block = spec.build()
        mapped = session.map(block, self.library, PLATFORM, workload=workload)
        front = session.pareto(block, self.library, PLATFORM, workload=workload)
        verified = session.verify(block, self.library, PLATFORM, workload=workload)
        bodies = [json.loads(r.to_json()) for r in (mapped, front, verified)]
        return [bodies[0]["winner"], bodies[1]["winner"], bodies[2]["element"]]


def _expected_answer(expected: common.Expected, kind: str, name: str):
    if kind == "target":
        return expected.decompose(name)
    workload, block = name.split("/", 1)
    winner = expected.winner(workload, block, common.rung_label(common.FULL_LIBRARY),
                             PLATFORM)
    return [winner, winner, winner]


def worker_main(argv) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)
    tracer = None
    if args.trace_out:
        import tracing as tracer
        tracer.install()
    worker = Worker()
    print("ready", flush=True)
    if args.setup_only:
        return

    expected = common.Expected.load()
    if args.tiny:
        items = list(TINY_ITEMS)
    else:
        items = [("block", name) for name in worker.specs]
        items += [("target", name) for name in worker.targets]
    rng = random.Random(args.seed)
    plan = []
    for _ in range(args.rounds):
        rng.shuffle(items)
        plan.extend(items)

    def run_op(op_id, kind, name):
        session = worker.fresh_session()
        gc.collect()
        token = tracer.set_op(op_id) if tracer else None
        start = time.perf_counter()
        try:
            return worker.run_item(session, kind, name), time.perf_counter() - start
        finally:
            if token is not None:
                tracer.reset_op(token)

    # Warm-up: one cheap item of each kind finishes lazy imports and
    # first-call set-up before timing; its spans belong to no phase.
    for kind, name in (("block", "gsm_mac/vq_energy8"), ("target", "taylor_exp")):
        run_op("warmup", kind, name)

    latencies, failed, incorrect = [], 0, 0
    for op_id, (kind, name) in enumerate(plan, start=1):
        try:
            answer, elapsed = run_op(op_id, kind, name)
        except Exception as exc:  # a failing op is counted, not fatal
            print(f"{kind} {name} failed: {exc!r}", file=sys.stderr)
            failed += 1
            continue
        latencies.append(elapsed)
        if answer != _expected_answer(expected, kind, name):
            failed += 1
            incorrect += 1
            print(f"wrong answer for {kind} {name}: {answer}", file=sys.stderr)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer:
        tracer.RECORDER.dump(args.trace_out, timed_ops=list(range(1, len(plan) + 1)))
    print(json.dumps({"attempted": len(plan), "latencies": latencies,
                      "failed": failed, "incorrect": incorrect,
                      "rss_mb": rss_mb}))


def _spawn(extra, trace_out=None):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", *extra]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=common.child_env(),
                            cwd=str(common.ROOT))
    line = proc.stdout.readline()
    ready = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"cold worker failed to start: {line!r}")
    return proc, ready


def _finish(proc, timeout: float) -> str:
    """Wait for a worker; its standard output after ``ready``."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"cold worker exited with {proc.returncode}")
    return out


def run_pass(args, trace_out=None) -> dict:
    """Set-up samples plus one timed worker for ``run.py``'s ``args``;
    returns the worker's measurements with the set-up samples."""
    rounds = 1 if args.tiny else max(MIN_ROUNDS, round(args.seconds / ROUND_SECONDS))
    samples = 1 if trace_out else 2 if args.tiny else SETUP_SAMPLES
    setups = []
    for _ in range(samples - 1):
        proc, ready = _spawn(["--setup-only"])
        _finish(proc, timeout=120)
        setups.append(ready)
    extra = ["--seed", str(args.seed), "--rounds", str(rounds)]
    if args.tiny:
        extra.append("--tiny")
    proc, ready = _spawn(extra, trace_out)
    setups.append(ready)
    result = json.loads(_finish(proc, timeout=170).strip().splitlines()[-1])
    result["setups"] = setups
    return result


def end_to_end(result) -> dict:
    """``{metric: (value, unit)}`` of one untraced pass."""
    latencies = result["latencies"]
    return {
        "setup_s": (statistics.median(result["setups"]), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "latency_tail_ms": (common.tail(latencies) * 1e3, "ms"),
        "peak_rss_mb": (result["rss_mb"], "MB"),
    }


if __name__ == "__main__" and sys.argv[1:2] == ["--worker"]:
    worker_main(sys.argv[2:])
