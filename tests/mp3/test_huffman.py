"""Tests for the Huffman codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import Mp3Error
from repro.mp3.bitstream import BitReader, BitWriter
from repro.mp3.huffman import (LINBITS, MAX_SMALL, PAIR_TABLE, HuffmanTable,
                               decode_spectrum, encode_spectrum)
from repro.platform.tally import OperationTally


class TestTableConstruction:
    def test_pair_table_is_complete_prefix_code(self):
        assert PAIR_TABLE.is_prefix_free_and_complete()

    def test_pair_table_covers_all_pairs(self):
        assert len(PAIR_TABLE.symbols) == (MAX_SMALL + 1) ** 2

    def test_common_symbols_get_short_codes(self):
        """(0,0) must be shorter than (15,15) — that's the point."""
        w = BitWriter()
        PAIR_TABLE.encode(0, w)
        len_00 = w.bit_length
        w2 = BitWriter()
        PAIR_TABLE.encode(255, w2)
        assert len_00 < w2.bit_length

    def test_empty_weights_raise(self):
        with pytest.raises(Mp3Error):
            HuffmanTable({})

    def test_single_symbol_table(self):
        table = HuffmanTable({7: 1.0})
        w = BitWriter()
        table.encode(7, w)
        symbol, bits = table.decode(BitReader(w.getvalue()))
        assert symbol == 7
        assert bits == 1

    def test_unknown_symbol_raises(self):
        with pytest.raises(Mp3Error):
            PAIR_TABLE.encode(10_000, BitWriter())

    def test_mean_code_length_bounded_by_entropy_plus_one(self):
        """Huffman optimality: mean length < H + 1."""
        import math
        weights = {i: 2.0 ** -i for i in range(1, 9)}
        table = HuffmanTable(weights)
        total = sum(weights.values())
        entropy = -sum((w / total) * math.log2(w / total)
                       for w in weights.values())
        assert table.mean_code_length < entropy + 1


class TestCodecRoundTrip:
    def roundtrip(self, values):
        w = BitWriter()
        encode_spectrum(values, w)
        r = BitReader(w.getvalue())
        n = len(values) + (len(values) % 2)
        decoded = decode_spectrum(r, n)
        return decoded[:len(values)]

    def test_simple(self):
        values = [0, 1, -1, 3, -7, 15, 0, 2]
        assert self.roundtrip(values) == values

    def test_escape_values(self):
        values = [100, -2000, 15, -15]
        assert self.roundtrip(values) == values

    def test_max_escape(self):
        big = MAX_SMALL + (1 << LINBITS) - 1
        assert self.roundtrip([big, -big]) == [big, -big]

    def test_too_large_raises(self):
        too_big = MAX_SMALL + (1 << LINBITS)
        with pytest.raises(Mp3Error):
            self.roundtrip([too_big, 0])

    def test_odd_length_padded(self):
        assert self.roundtrip([5]) == [5]

    def test_all_zeros(self):
        assert self.roundtrip([0] * 10) == [0] * 10

    def test_odd_count_decode_raises(self):
        with pytest.raises(Mp3Error):
            decode_spectrum(BitReader(b"\x00"), 3)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=-500, max_value=500),
                    min_size=0, max_size=64))
    def test_roundtrip_property(self, values):
        assert self.roundtrip(values) == values


class TestDecodeTally:
    def test_tally_scales_with_symbols(self):
        values = [3, -2] * 50
        w = BitWriter()
        encode_spectrum(values, w)
        tally = OperationTally()
        decode_spectrum(BitReader(w.getvalue()), len(values), tally=tally)
        assert tally.branch > len(values)   # at least one branch per bit
        assert tally.store == len(values)
