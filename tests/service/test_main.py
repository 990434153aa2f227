"""``python -m repro.service`` and ``repro serve`` reject bad flags
before anything binds or forks.

Past argparse, each bad value fails later and worse: ``--max-inflight
0`` crash-loops every fleet worker through respawn, a NaN
``--retry-after`` makes every 429/503 shed close the connection with
no response, ``--request-timeout 0`` answers every request 400, and
``--workers 0`` silently runs one in-process service.
"""

import pytest

import repro.service.__main__ as service_main
from repro.cli import main as cli_main
from repro.service import FleetSupervisor

BAD_FLAGS = [
    ["--workers", "0"],
    ["--workers", "-1"],
    ["--max-inflight", "0"],
    ["--workers", "2", "--max-inflight", "0"],
    ["--request-timeout", "0"],
    ["--request-timeout", "-1"],
    ["--request-timeout", "inf"],
    ["--retry-after", "nan"],
    ["--retry-after", "inf"],
    ["--retry-after", "-1"],
    ["--drain-grace", "nan"],
    ["--drain-grace", "-0.5"],
]


@pytest.fixture
def served(monkeypatch):
    """Stand-ins for both serve paths: a flag set that gets past
    parsing is recorded here instead of binding a port."""
    calls = []

    async def serve(args):
        calls.append(args)

    monkeypatch.setattr(service_main, "_serve_fleet", calls.append)
    monkeypatch.setattr(service_main, "_serve", serve)
    return calls


@pytest.mark.parametrize("flags", BAD_FLAGS, ids=" ".join)
def test_service_main_rejects_bad_flags(flags, served, capsys):
    with pytest.raises(SystemExit) as exc:
        service_main.main(flags + ["--port", "0"])
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err
    assert served == []


@pytest.mark.parametrize("flags", BAD_FLAGS, ids=" ".join)
def test_repro_serve_rejects_bad_flags(flags, served, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main(["serve", *flags, "--port", "0"])
    assert exc.value.code == 2
    assert "error: argument" in capsys.readouterr().err
    assert served == []


def test_boundary_values_are_accepted(served):
    service_main.main(["--port", "0", "--workers", "1",
                       "--max-inflight", "1", "--request-timeout", "0.5",
                       "--retry-after", "0", "--drain-grace", "0"])
    (args,) = served
    assert (args.workers, args.max_inflight, args.request_timeout,
            args.retry_after, args.drain_grace) == (1, 1, 0.5, 0.0, 0.0)


def test_supervisor_rejects_zero_max_inflight_before_binding():
    with pytest.raises(ValueError, match="max_inflight"):
        FleetSupervisor(workers=2, max_inflight=0)
