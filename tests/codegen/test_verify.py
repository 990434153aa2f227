"""Measured accuracy: stimulus routing, measurement values, the
``VerifyResult`` wire shape and the acceptance bar itself — the MP3
IMDCT under LM+IH verifies into an ISO 11172-4 band."""

import json

import pytest

from repro.codegen.verify import (
    SNR_CAP_DB,
    measure_match,
    match_measurer,
    stimulus_for_block,
)
from repro.errors import CodegenError, WorkloadError
from repro.frontend.extract import TargetBlock
from repro.mp3.compliance import ComplianceLevel
from repro.symalg import Polynomial
from repro.workload import workload_named
from repro.workload.registry import default_stimulus


def _mapped(block_name="inv_mdctL", tags=("LM", "IH")):
    from repro.api import MappingSession, SessionConfig

    block = workload_named("mp3").methodology_blocks()[block_name]
    result = MappingSession(SessionConfig()).map(block, tags)
    return block, result.winner, list(result.matches)


def _unregistered_block():
    x = Polynomial.variable("x_0")
    return TargetBlock(name="not_in_any_workload",
                       outputs={"o0": x * x},
                       input_variables=("x_0",))


class TestStimulus:
    def test_default_stimulus_is_deterministic(self):
        assert default_stimulus(3, name="a") == default_stimulus(3, name="a")
        assert default_stimulus(3, name="a") != default_stimulus(3, name="b")

    def test_default_stimulus_shape_and_range(self):
        vectors = default_stimulus(4, n_vectors=8, amplitude=0.5)
        assert len(vectors) == 8
        assert all(len(v) == 4 for v in vectors)
        assert all(abs(x) <= 0.5 for v in vectors for x in v)

    def test_mp3_blocks_replay_compliance_vectors(self):
        block = workload_named("mp3").methodology_blocks()["inv_mdctL"]
        vectors = stimulus_for_block(block, workload="mp3")
        assert vectors == workload_named("mp3").stimulus("inv_mdctL")
        assert all(len(v) == 18 for v in vectors)
        # real stream data, not silence
        assert any(any(x != 0.0 for x in v) for v in vectors)

    def test_registry_scan_finds_the_declaring_workload(self):
        block = workload_named("mp3").methodology_blocks()["inv_mdctL"]
        assert stimulus_for_block(block) == \
            stimulus_for_block(block, workload="mp3")

    def test_unregistered_block_falls_back_to_seeded_default(self):
        block = _unregistered_block()
        assert stimulus_for_block(block) == \
            default_stimulus(1, name=block.name)

    def test_workload_miss_falls_back_to_seeded_default(self):
        block = _unregistered_block()
        assert stimulus_for_block(block, workload="mp3") == \
            default_stimulus(1, name=block.name)

    def test_workload_stimulus_unknown_block_raises(self):
        with pytest.raises(WorkloadError):
            workload_named("mp3").stimulus("no_such_block")


class TestMeasureMatch:
    def test_acceptance_imdct_under_lm_ih_reaches_a_band(self):
        """The ISSUE's bar: `repro verify inv_mdctL --library lm_ih`
        lands in at least the 'limited accuracy' ISO band."""
        block, winner, _ = _mapped()
        m = measure_match(block, winner)
        assert ComplianceLevel.at_least(m.compliance, "limited")
        assert m.compliance == "full"  # empirically: q5.26 is clean
        assert m.snr_db > 100.0

    def test_double_element_is_error_free(self):
        block, _winner, matches = _mapped(tags=("REF", "LM", "IH", "IPP"))
        double = next(m for m in matches
                      if m.element.input_format == "double")
        m = measure_match(block, double)
        assert m.rms_error == 0.0
        assert m.max_error == 0.0
        assert m.snr_db == SNR_CAP_DB
        assert m.compliance == "full"

    def test_measurement_identifies_the_element(self):
        block, winner, _ = _mapped()
        m = measure_match(block, winner)
        assert m.block == "inv_mdctL"
        assert m.element == winner.element.name
        assert m.element_library == winner.element.library
        assert m.input_format == winner.element.input_format
        assert m.declared_accuracy == winner.element.accuracy
        assert m.n_vectors == len(stimulus_for_block(block))

    def test_payload_keys(self):
        block, winner, _ = _mapped()
        payload = measure_match(block, winner).to_payload()
        assert set(payload) == {
            "element", "element_library", "input_format", "output_format",
            "declared_accuracy", "rms_error", "max_error", "snr_db",
            "compliance", "vectors",
        }

    def test_empty_stimulus_raises(self):
        block, winner, _ = _mapped()
        with pytest.raises(CodegenError, match="empty stimulus"):
            measure_match(block, winner, stimulus=())

    def test_match_measurer_shares_stimulus(self):
        block, winner, _ = _mapped()
        measure = match_measurer(block)
        max_error, snr_db = measure(winner)
        reference = measure_match(block, winner)
        assert (max_error, snr_db) == \
            (reference.max_error, reference.snr_db)

    def test_match_measurer_builds_one_reference_kernel(self, monkeypatch):
        """A measured front lowers and plans the block's reference once,
        plus one generated kernel per match, and grades each point
        exactly as ``measure_match`` does."""
        import repro.codegen.verify as verify
        from repro.api import MappingSession, SessionConfig

        calls = {"lower_block": 0, "compile_kernel": 0}

        def counted(name):
            real = getattr(verify, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(verify, name, counted(name))
        session = MappingSession(SessionConfig())
        result = session.pareto("fir16", workload="dsp", measure=True)
        assert len(result.result.matches) >= 2
        assert calls == {"lower_block": 1,
                         "compile_kernel": len(result.result.matches) + 1}
        block = session.blocks("dsp")["fir16"]
        stimulus = stimulus_for_block(block, "dsp")
        for point in result.front:
            m = measure_match(block, point.match, stimulus=stimulus)
            assert (point.objectives.measured_accuracy,
                    point.objectives.snr_db) == (m.max_error, m.snr_db)

    def test_measure_match_compiles_and_execs_nothing(self, monkeypatch):
        """Generated kernels run as NumPy plans: measuring one calls
        neither the builtins ``compile`` nor ``exec``."""
        import builtins

        block, winner, _ = _mapped("SubBandSynthesis")
        stimulus = stimulus_for_block(block)
        expected = measure_match(block, winner, stimulus=stimulus)

        def refuse(*_args, **_kwargs):
            raise AssertionError("source compiled while measuring")

        # The context restores both before any failure reaches pytest,
        # whose reporting compiles source itself.
        with monkeypatch.context() as patched:
            patched.setattr(builtins, "compile", refuse)
            patched.setattr(builtins, "exec", refuse)
            got = measure_match(block, winner, stimulus=stimulus)
        assert got == expected

    def test_explicit_stimulus_changes_the_measurement(self):
        block, winner, _ = _mapped()
        tiny = tuple(tuple(0.0 for _ in range(18)) for _ in range(4))
        m = measure_match(block, winner, stimulus=tiny)
        assert m.n_vectors == 4
        assert m.max_error == 0.0  # all-zero input: exact everywhere


class TestVerifyResult:
    @pytest.fixture(autouse=True)
    def _isolated(self, isolated_cache_env):
        yield

    def test_session_verify_round_trip(self):
        from repro.api import MappingSession

        result = MappingSession().verify("inv_mdctL", ("LM", "IH"))
        assert result.mapped is True
        payload = json.loads(result.to_json())
        assert payload["block"] == "inv_mdctL"
        assert payload["library"] == "LM+IH"
        assert payload["mapped"] is True
        assert ComplianceLevel.at_least(payload["compliance"], "limited")
        assert payload["element"] == result.measurement.element

    def test_unmapped_block_has_no_measurement(self):
        from repro.api import MappingSession

        result = MappingSession().verify(
            "inv_mdctL", ("LM", "IH"), accuracy_budget=0.0)
        assert result.mapped is False
        assert result.measurement is None
        payload = json.loads(result.to_json())
        assert payload["element"] is None

    def test_session_workload_registry_chooses_the_stimulus(self):
        """A workload a session registers under its own key measures
        exactly what the same workload measures under its default key,
        for ``verify`` and for a measured front."""
        from repro.api import MappingSession, SessionConfig
        from repro.workload import DspKernelsWorkload, WorkloadRegistry

        registry = WorkloadRegistry()
        registry.register(DspKernelsWorkload(), key="mydsp")
        mine = MappingSession(SessionConfig(workloads=registry,
                                            workload="mydsp"))
        default = MappingSession(SessionConfig())
        verified = mine.verify("fir16", workload="mydsp")
        assert verified.measurement.element == "ippsFIR_16tap_32s"
        assert verified.measurement == \
            default.verify("fir16", workload="dsp").measurement
        fronts = [
            session.pareto("fir16", workload=key, measure=True).front
            for session, key in ((mine, "mydsp"), (default, "dsp"))]
        assert [point.objectives for point in fronts[0]] == \
            [point.objectives for point in fronts[1]]

    def test_verify_bytes_are_canonical_ascii(self):
        from repro.api import MappingSession

        raw = MappingSession().verify("inv_mdctL", ("LM", "IH")).to_json()
        assert isinstance(raw, bytes)
        assert raw == json.dumps(
            json.loads(raw), sort_keys=True, separators=(",", ":"),
        ).encode("ascii")
