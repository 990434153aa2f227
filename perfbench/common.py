"""Shared pieces of the repository benchmark.

Paths, the library ladder, the build step, percentiles, the
host-speed probe and the expected-answer table live here, so the
HTTP workloads (:mod:`http_workloads`) and the in-process one
(:mod:`cold_pipeline`) check answers and report figures the same way.
"""

from __future__ import annotations

import compileall
import json
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Scratch space for cache directories, traces and server logs.  Lives
#: inside the checkout (the benchmark writes nowhere else) and is
#: removed piece by piece as each run finishes.
WORK_DIR = ROOT / ".perfbench"

EXPECTED_PATH = BENCH_DIR / "expected.json"

#: The paper's library ladder, cheapest rung first, as request tags.
RUNGS = (("REF",), ("REF", "LM"), ("REF", "LM", "IH"), ("REF", "LM", "IH", "IPP"))
FULL_LIBRARY = RUNGS[-1]


def rung_label(tags) -> str:
    return "+".join(tags)


def child_env() -> dict:
    """Environment for child Python processes: the checkout's ``src``
    first on the path, and no inherited cache-tier knobs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_NO_CACHE", None)
    return env


def build() -> None:
    """Byte-compile the program (the build step of a Python checkout), so
    no run pays for compilation inside its set-up; exits non-zero, with
    no result line, when the program's source is not here."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        sys.exit(2)
    if not compileall.compile_dir(str(SRC), quiet=1):
        sys.exit(2)


def host_probe_ms(iterations: int = 2_000_000) -> float:
    """Wall time of a fixed pure-Python loop: a host-speed reading taken
    before and after each run, so host drift can be told apart from a
    regression.  Recorded, never gated."""
    start = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i
    return (time.perf_counter() - start) * 1e3


def tail_quantile(n: int) -> float:
    """The highest quantile with at least ten of ``n`` samples beyond it,
    capped at p99 (reached from 1000 samples on); the median for runs too
    small to have one."""
    return max(0.5, min(0.99, 1.0 - 10.0 / n))


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (``statistics.quantiles``' inclusive
    method, for any ``q``)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(values) -> float:
    return quantile(values, tail_quantile(len(values)))


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Expected:
    """The hand-written expected-answer table (``expected.json``).

    ``winner(workload, block, rung, platform)`` is the element name the
    scalar mapping must select (``None``: the block stays unmapped);
    ``decompose(target)`` the element names of the best cover.
    """

    def __init__(self, table: dict):
        self.platforms = tuple(table["platforms"])
        self.winners = table["winners"]
        self.decompositions = table["decompose"]

    @classmethod
    def load(cls) -> "Expected":
        with open(EXPECTED_PATH) as handle:
            return cls(json.load(handle))

    def blocks(self) -> list[tuple[str, str]]:
        """``(workload, block)`` pairs in table order."""
        return [tuple(name.split("/", 1)) for name in self.winners]

    def winner(self, workload: str, block: str, rung: str, platform: str):
        row = self.winners[f"{workload}/{block}"][rung]
        return row[self.platforms.index(platform)]

    def decompose(self, target: str) -> list:
        return self.decompositions[target]
