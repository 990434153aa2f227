"""Smoke tests: every example script runs and prints its headline."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
SRC = Path(__file__).resolve().parents[2] / "src"


def run_example(name: str, *args: str) -> str:
    # The subprocess needs src/ on PYTHONPATH explicitly: pytest's
    # `pythonpath` ini option only patches sys.path in-process.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=300, env=env)
    assert result.returncode == 0, result.stderr
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "fx_log_poly" in out
        assert "accuracy <= 1e-12  ->  log_double" in out

    def test_imdct_mapping(self):
        out = run_example("imdct_mapping.py")
        assert "fixed_IMDCT" in out.split("Table 5 world")[0]
        assert "IppsMDCTInv_MP3_32s" in out
        assert out.count("<== selected") == 2

    def test_mp3_optimization(self):
        out = run_example("mp3_optimization.py", "2")
        assert "Profile after Original" in out
        assert "Profile after LM + IH mapping" in out
        assert "Profile after LM + IH + IPP mapping" in out
        assert "compliance: full" in out
        assert "faster than real time" in out

    def test_dvfs_energy(self):
        out = run_example("dvfs_energy.py")
        assert "DVFS sweep" in out
        assert "energy saving" in out

    def test_service_client(self):
        out = run_example("service_client.py")
        assert "winner: IppsMDCTInv_MP3_32s" in out
        assert "identical answer" in out
        assert "service shut down cleanly" in out

    def test_mac_decomposition(self):
        out = run_example("mac_decomposition.py")
        assert "fx_exp(in0=x)" in out
        assert "['fx_exp']" in out
        # The complex element must beat the generic-code cost by >10x.
        import re
        costs = [int(c.replace(",", "")) for c in
                 re.findall(r"total cost: ([\d,]+) cycles", out)]
        assert costs[-1] * 10 < 3920
