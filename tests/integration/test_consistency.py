"""Cross-subsystem consistency: one cost model, many views.

The reproduction's credibility rests on the library characterization
(Table 1), the decoder profiles (Tables 3-5) and the mapping search all
pricing work through the *same* tallies.  These tests pin that
coherence.
"""

import numpy as np
import pytest

from repro.library import characterize, full_library
from repro.library.builtin import BLOCKS_PER_FRAME, STEPS_PER_FRAME
from repro.mapping import MethodologyFlow
from repro.mp3 import (IH_IPP_FULL, IH_LIBRARY, ORIGINAL, Mp3Decoder,
                       check_compliance, make_stream)
from repro.platform import Badge4


@pytest.fixture(scope="module")
def platform():
    return Badge4()


@pytest.fixture(scope="module")
def stream():
    return make_stream(n_frames=2, seed=99)


class TestLibraryDecoderCoherence:
    """Table 1 element costs equal the decoder's per-frame stage costs."""

    @pytest.mark.parametrize("element_name,stage_row,config", [
        ("float_SubBandSyn", "SubBandSynthesis", ORIGINAL),
        ("float_IMDCT", "inv_mdctL", ORIGINAL),
        ("fixed_SubBandSyn", "SubBandSynthesis", IH_LIBRARY),
        ("fixed_IMDCT", "inv_mdctL", IH_LIBRARY),
        ("ippsSynthPQMF_MP3_32s16s", "ippsSynthPQMF_MP3_32s16s", IH_IPP_FULL),
        ("IppsMDCTInv_MP3_32s", "IppsMDCTInv_MP3_32s", IH_IPP_FULL),
    ])
    def test_element_cost_matches_decoder_stage(self, element_name, stage_row,
                                                config, platform, stream):
        element = full_library().get(element_name)
        per_frame = characterize(element, platform).seconds_per_call

        decoder = Mp3Decoder(config, platform.profiler())
        decoder.decode(stream)
        row = decoder.profiler.report().row(stage_row)
        measured_per_frame = row.seconds / stream.n_frames

        assert measured_per_frame == pytest.approx(per_frame, rel=1e-6)

    def test_frame_constants(self):
        # 2 granules x 2 channels x 18 steps / x 32 subbands.
        assert STEPS_PER_FRAME == 2 * 2 * 18
        assert BLOCKS_PER_FRAME == 2 * 2 * 32


class TestDeterminism:
    def test_decode_deterministic_across_instances(self, stream):
        a = Mp3Decoder(IH_IPP_FULL).decode(stream)
        b = Mp3Decoder(IH_IPP_FULL).decode(stream)
        np.testing.assert_array_equal(a, b)

    def test_flow_deterministic(self, stream):
        r1 = MethodologyFlow().run_passes(stream)
        r2 = MethodologyFlow().run_passes(stream)
        for p1, p2 in zip(r1.passes, r2.passes):
            assert p1.seconds == p2.seconds
            assert p1.energy_j == p2.energy_j
            assert p1.compliance.rms_error == p2.compliance.rms_error


class TestAccuracyChain:
    def test_mapping_never_degrades_below_limited(self, platform, stream):
        reference = Mp3Decoder(ORIGINAL).decode(stream)
        report = MethodologyFlow().run_passes(stream)
        final_config = report.passes[-1].config
        pcm = Mp3Decoder(final_config).decode(stream)
        assert check_compliance(reference, pcm).level in ("full", "limited")

    def test_flow_profile_totals_add_up(self, stream):
        report = MethodologyFlow().run_passes(stream)
        for mapping_pass in report.passes:
            total = sum(r.seconds for r in mapping_pass.profile.rows)
            assert mapping_pass.seconds == pytest.approx(total)


class TestDecomposeVsBlockMatchAgreement:
    def test_scalar_and_block_paths_price_identically(self, platform):
        """The same element priced via decompose and via the block match."""
        from repro.api import MappingSession, SessionConfig
        from repro.mapping.flow import _imdct_block
        library = full_library()
        result = MappingSession(SessionConfig()).map(_imdct_block(), library,
                                                    platform)
        cycles = {m.element.name: platform.cost_model.cycles(m.element.cost)
                  for m in result.matches}
        assert cycles[result.winner.element.name] == min(cycles.values())
