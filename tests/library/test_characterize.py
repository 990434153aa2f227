"""Tests for the characterization harness (Table 1 machinery)."""

import pytest

from repro.library import characterize_library, full_library
from repro.platform import Badge4


@pytest.fixture(scope="module")
def characterized():
    return characterize_library(full_library(), Badge4())


class TestCharacterize:
    def test_every_element_priced(self, characterized):
        assert len(characterized) == len(full_library())
        for entry in characterized.values():
            assert entry.seconds_per_call > 0
            assert entry.energy_per_call_j > 0
            assert entry.cycles_per_call > 0

    def test_seconds_consistent_with_cycles(self, characterized):
        entry = characterized["float_IMDCT"]
        assert entry.seconds_per_call == pytest.approx(
            entry.cycles_per_call / 206.4e6)


class TestTable1Shape:
    """The qualitative content of the paper's Table 1."""

    def test_subband_ladder(self, characterized):
        f = characterized["float_SubBandSyn"].seconds_per_call
        q = characterized["fixed_SubBandSyn"].seconds_per_call
        i = characterized["ippsSynthPQMF_MP3_32s16s"].seconds_per_call
        assert f > q > i
        # paper: fixed 92x, IPP 479x
        assert 40 < f / q < 250
        assert 250 < f / i < 1500

    def test_imdct_ladder(self, characterized):
        f = characterized["float_IMDCT"].seconds_per_call
        q = characterized["fixed_IMDCT"].seconds_per_call
        i = characterized["IppsMDCTInv_MP3_32s"].seconds_per_call
        assert f > q > i
        # paper: fixed 27x, IPP 1898x
        assert 10 < f / q < 80
        assert 500 < f / i < 4000

    def test_fixed_subband_gains_more_than_fixed_imdct(self, characterized):
        """The asymmetry the paper measured: 92x vs 27x.

        Root cause in our model (and plausibly theirs): the in-house
        subband synthesis is algorithmically fast (Lee DCT-32) while the
        in-house IMDCT is a straight fixed-point port.
        """
        sub_gain = (characterized["float_SubBandSyn"].seconds_per_call
                    / characterized["fixed_SubBandSyn"].seconds_per_call)
        imdct_gain = (characterized["float_IMDCT"].seconds_per_call
                      / characterized["fixed_IMDCT"].seconds_per_call)
        assert sub_gain > 2 * imdct_gain

    def test_log_ladder(self, characterized):
        """The intro's four-way log trade-off."""
        d = characterized["log_double"].seconds_per_call
        f = characterized["logf_float"].seconds_per_call
        b = characterized["fx_log_bitwise"].seconds_per_call
        p = characterized["fx_log_poly"].seconds_per_call
        assert d > f > b > p
