"""The acceptance criterion, end to end: session vs CLI vs service
answers for the same request are byte-identical.

The service and the session each own their tiers (over one shared
block extraction) and the CLI builds its own session per invocation,
so every surface computes its answer independently.
"""

import pytest

from repro.api import MappingSession, SessionConfig
from repro.cli import main
from repro.service import MappingService, ServiceClient, ServiceThread

#: The request every surface answers: the paper's IMDCT block against
#: the LM+IH ladder on the default platform.
_BLOCK = "inv_mdctL"
_TAGS = ("LM", "IH")
_PAYLOAD = {"block": _BLOCK, "library": list(_TAGS)}


@pytest.fixture(scope="module")
def live_service(mp3_blocks):
    """One service on its own memory-only session."""
    session = MappingSession(SessionConfig(), blocks=mp3_blocks)
    with ServiceThread(MappingService(port=0, session=session)) as thread:
        client = ServiceClient(thread.base_url)
        client.wait_healthy()
        yield thread.service, client


@pytest.fixture(scope="module")
def session(mp3_blocks):
    """The library-code surface: a session separate from the service's."""
    return MappingSession(SessionConfig(), blocks=mp3_blocks)


@pytest.fixture(autouse=True)
def _cli_sessions(cli_reuses_extraction):
    yield


def _cli_json(capsys, *argv: str) -> bytes:
    assert main(list(argv)) == 0
    return capsys.readouterr().out.strip().encode("ascii")


class TestMapParity:
    def test_session_cli_and_service_agree(self, live_service, session, capsys):
        _service, client = live_service
        status, service_bytes = client.request_bytes("POST", "/v1/map", _PAYLOAD)
        assert status == 200

        session_bytes = session.map(_BLOCK, _TAGS).to_json()
        assert session_bytes == service_bytes

        cli_bytes = _cli_json(capsys, "map", _BLOCK, "--library", "lm_ih", "--json")
        assert cli_bytes == service_bytes


class TestParetoParity:
    def test_session_cli_and_service_agree(self, live_service, session, capsys):
        _service, client = live_service
        status, service_bytes = client.request_bytes("POST", "/v1/pareto", _PAYLOAD)
        assert status == 200

        session_bytes = session.pareto(_BLOCK, _TAGS).to_json()
        assert session_bytes == service_bytes

        cli_bytes = _cli_json(capsys, "pareto", _BLOCK, "--library", "lm+ih", "--json")
        assert cli_bytes == service_bytes


class TestSweepParity:
    def test_session_cli_and_service_agree(self, live_service, session, capsys):
        _service, client = live_service
        payload = {"platforms": ["SA-1110"], "blocks": [_BLOCK]}
        status, service_bytes = client.request_bytes("POST", "/v1/sweep", payload)
        assert status == 200

        report = session.sweep(platforms=["SA-1110"], blocks=[_BLOCK])
        assert report.to_json().encode("ascii") == service_bytes

        cli_bytes = _cli_json(
            capsys,
            "sweep",
            "--platforms",
            "SA-1110",
            "--blocks",
            _BLOCK,
            "--json",
        )
        assert cli_bytes == service_bytes


class TestWorkloadsParity:
    def test_cli_and_service_agree(self, live_service, capsys):
        """`repro workloads --json` is byte-for-byte `/v1/workloads`."""
        _service, client = live_service
        status, service_bytes = client.request_bytes("GET", "/v1/workloads")
        assert status == 200
        assert _cli_json(capsys, "workloads", "--json") == service_bytes


class TestNonMp3SweepParity:
    def test_gsm_sweep_session_cli_and_service_agree(self, live_service,
                                                     session, capsys):
        """The workload acceptance criterion: a non-MP3 sweep's bytes
        agree across session, CLI and service."""
        _service, client = live_service
        payload = {"platforms": ["SA-1110"], "workload": "gsm_mac"}
        status, service_bytes = client.request_bytes("POST", "/v1/sweep",
                                                     payload)
        assert status == 200

        report = session.sweep(platforms=["SA-1110"], workload="gsm_mac")
        assert report.workload == "gsm_mac"
        assert report.to_json().encode("ascii") == service_bytes

        cli_bytes = _cli_json(capsys, "sweep", "--platforms", "SA-1110",
                              "--workload", "gsm_mac", "--json")
        assert cli_bytes == service_bytes
