"""The benchmark's own tests (run: ``python3 -m pytest perfbench/tests -q``).

Each runs ``perfbench/run.py --tiny`` -- a few keys or items, one round
-- in a subprocess, exactly as the benchmark is run, and reads its
result line.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC = ("symalg.flatten_calls", "mapping.decompose.nodes_explored",
                 "codegen.ir_instructions", "frontend.output_terms",
                 "mapping.cache.digest_calls")


def run(workload, seed=1, trace=0, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, cwd=bench.parent, timeout=170)


def result(workload, seed=1, trace=0, bench=BENCH):
    proc = run(workload, seed, trace, bench)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_bench(tmp_path) -> Path:
    """A copy of the benchmark under ``tmp_path``, without the program."""
    copy = tmp_path / BENCH.name
    shutil.copytree(BENCH, copy, ignore=shutil.ignore_patterns("__pycache__", "tests"))
    return copy


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric_without_errors(workload):
    out = result(workload)
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", ["cold_pipeline", "warm_http"])
def test_corrupted_expected_answer_is_a_failed_op(workload, tmp_path):
    copy = copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    table_path = copy / "expected.json"
    table = json.loads(table_path.read_text())
    row = table["winners"]["gsm_mac/vq_energy8"]["REF+LM+IH+IPP"]
    row[table["platforms"].index("SA-1110")] = "not_the_winner"
    table_path.write_text(json.dumps(table))
    out = result(workload, bench=copy)
    assert out["correct"] is False
    assert out["failed"] >= 1


def test_traced_runs_repeat_deterministic_counts():
    first, second = result("cold_pipeline", 1, 1), result("cold_pipeline", 2, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: m["unit"] for name, m in first["metrics"].items()} == expected
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["symalg.flatten_calls"]["value"] > 0
    assert first["metrics"]["mapping.cache.digest_calls"]["value"] == 0


def test_traced_http_run_bypasses_the_frontend():
    first, second = result("warm_http", 1, 1), result("warm_http", 2, 1)
    for name in DETERMINISTIC:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["mapping.cache.digest_calls"]["value"] == first["attempted"] // 2
    assert first["metrics"]["frontend.extract_ms"]["value"] == 0
    assert first["metrics"]["mapping.cache.lru_hit_ratio"]["value"] == 1


def test_fails_without_printing_when_the_program_is_absent(tmp_path):
    copy = copy_bench(tmp_path)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("cold_pipeline", bench=copy)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_the_union_of_children():
    spans = [(1, None, 1, "outer", 0.0, 10.0, None),
             (2, 1, 1, "inner", 1.0, 4.0, None),
             (3, 1, 1, "inner", 3.0, 6.0, None),
             (4, 2, 1, "leaf", 2.0, 3.0, None)]
    assert layers.self_times(spans) == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}
