"""Canonical Huffman coding of quantized spectral values.

Layer III Huffman-codes quantized subband coefficients in pairs with
escape coding for large values.  We reproduce that structure: a
canonical Huffman table over (x, y) value pairs with ``|x|,|y| <= 15``,
escape values (15) extended by ``LINBITS`` raw bits, and sign bits per
nonzero value — the same decode work profile as the standard's tables
(the exact ISO table contents are data, not algorithm; ours are built
from a fixed Laplacian-like frequency model so encoder and decoder
agree deterministically).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.errors import Mp3Error
from repro.mp3.bitstream import BitReader, BitWriter
from repro.platform.tally import OperationTally

__all__ = ["HuffmanTable", "PAIR_TABLE", "LINBITS", "MAX_SMALL",
           "encode_spectrum", "decode_spectrum"]

#: Largest magnitude coded directly; 15 is the escape marker (as in ISO tables 16-31).
MAX_SMALL = 15
#: Extra raw bits carried by an escaped value.
LINBITS = 13


def _build_code_lengths(weights: dict[int, float]) -> dict[int, int]:
    """Huffman code lengths from symbol weights (package-merge-free).

    Standard heap construction; ties broken by symbol for determinism.
    """
    if len(weights) == 1:
        return {next(iter(weights)): 1}
    heap: list[tuple[float, int, tuple[int, ...]]] = []
    for i, (symbol, w) in enumerate(sorted(weights.items())):
        heapq.heappush(heap, (w, symbol, (symbol,)))
    lengths = {s: 0 for s in weights}
    while len(heap) > 1:
        w1, t1, s1 = heapq.heappop(heap)
        w2, t2, s2 = heapq.heappop(heap)
        for s in s1 + s2:
            lengths[s] += 1
        heapq.heappush(heap, (w1 + w2, min(t1, t2), s1 + s2))
    return lengths


@dataclass(frozen=True)
class _Entry:
    code: int
    bits: int


class HuffmanTable:
    """A canonical Huffman code over an integer symbol alphabet."""

    def __init__(self, weights: dict[int, float]):
        if not weights:
            raise Mp3Error("cannot build a Huffman table from no symbols")
        lengths = _build_code_lengths(weights)
        # Canonicalize: sort by (length, symbol), assign increasing codes.
        ordered = sorted(lengths.items(), key=lambda kv: (kv[1], kv[0]))
        self._encode: dict[int, _Entry] = {}
        code = 0
        prev_len = ordered[0][1]
        for symbol, length in ordered:
            code <<= (length - prev_len)
            self._encode[symbol] = _Entry(code, length)
            code += 1
            prev_len = length
        # Decode tree as nested dict-free structure: (left, right) tuples
        # with leaves as ints; also record max depth for cost modelling.
        self._root = self._build_tree()
        self.max_code_length = max(e.bits for e in self._encode.values())

    def _build_tree(self):
        root: list = [None, None]
        for symbol, entry in self._encode.items():
            node = root
            for shift in range(entry.bits - 1, -1, -1):
                bit = (entry.code >> shift) & 1
                if shift == 0:
                    node[bit] = symbol
                else:
                    if node[bit] is None:
                        node[bit] = [None, None]
                    node = node[bit]
        return root

    @property
    def symbols(self) -> list[int]:
        return sorted(self._encode)

    def encode(self, symbol: int, writer: BitWriter) -> None:
        """Append ``symbol``'s code to ``writer``."""
        entry = self._encode.get(symbol)
        if entry is None:
            raise Mp3Error(f"symbol {symbol} not in Huffman table")
        writer.write(entry.code, entry.bits)

    def decode(self, reader: BitReader) -> tuple[int, int]:
        """Read one symbol; returns ``(symbol, bits_consumed)``."""
        node = self._root
        consumed = 0
        while True:
            bit = reader.read(1)
            consumed += 1
            node = node[bit]
            if node is None:
                raise Mp3Error("invalid Huffman code in bitstream")
            if isinstance(node, int):
                return node, consumed

    def is_prefix_free_and_complete(self) -> bool:
        """Kraft equality: sum(2^-len) == 1 for a full canonical tree."""
        total = sum(2 ** -e.bits for e in self._encode.values())
        return abs(total - 1.0) < 1e-12


def _pair_weights() -> dict[int, float]:
    """Laplacian-like joint weights for (x, y) pairs, 0..15 each.

    Symbol id is ``x * 16 + y``.  Small magnitudes dominate, exactly the
    statistics the ISO tables were designed for.
    """
    weights: dict[int, float] = {}
    for x in range(MAX_SMALL + 1):
        for y in range(MAX_SMALL + 1):
            weights[x * 16 + y] = 2.0 ** (-(0.9 * x + 0.9 * y))
    return weights


#: The shared pair table (deterministic; encoder and decoder both use it).
PAIR_TABLE = HuffmanTable(_pair_weights())


def _clamp_escape(value: int) -> tuple[int, int | None]:
    """Split |value| into (small symbol part, linbits extension or None)."""
    mag = abs(value)
    if mag < MAX_SMALL:
        return mag, None
    extension = mag - MAX_SMALL
    if extension >= (1 << LINBITS):
        raise Mp3Error(f"|{value}| too large for {LINBITS} linbits")
    return MAX_SMALL, extension


def encode_spectrum(values, writer: BitWriter,
                    table: HuffmanTable = PAIR_TABLE) -> None:
    """Huffman-encode a sequence of quantized values in (x, y) pairs."""
    values = list(values)
    if len(values) % 2:
        values.append(0)
    for i in range(0, len(values), 2):
        x, y = values[i], values[i + 1]
        sx, ext_x = _clamp_escape(x)
        sy, ext_y = _clamp_escape(y)
        table.encode(sx * 16 + sy, writer)
        if ext_x is not None:
            writer.write(ext_x, LINBITS)
        if sx:
            writer.write(1 if x < 0 else 0, 1)
        if ext_y is not None:
            writer.write(ext_y, LINBITS)
        if sy:
            writer.write(1 if y < 0 else 0, 1)


def decode_spectrum(reader: BitReader, count: int,
                    table: HuffmanTable = PAIR_TABLE,
                    tally: OperationTally | None = None) -> list[int]:
    """Decode ``count`` quantized values; optionally tally the work.

    The tally models a C tree-walk decoder: ~4 ops per bit visited
    (load, mask, branch, pointer chase) plus per-value sign/escape
    handling.
    """
    if count % 2:
        raise Mp3Error("spectrum length must be even (pair coding)")
    out: list[int] = []
    bits_walked = 0
    linbits_read = 0
    signs_read = 0
    for _ in range(count // 2):
        symbol, consumed = table.decode(reader)
        bits_walked += consumed
        sx, sy = symbol >> 4, symbol & 15
        for small in (sx, sy):
            value = small
            if small == MAX_SMALL:
                value += reader.read(LINBITS)
                linbits_read += 1
            if small:
                if reader.read(1):
                    value = -value
                signs_read += 1
            out.append(value)
    if tally is not None:
        tally.load += bits_walked + linbits_read + signs_read
        tally.shift += bits_walked + linbits_read
        tally.int_alu += 2 * bits_walked + 4 * (count // 2)
        tally.branch += bits_walked + signs_read + count
        tally.store += count
        tally.call += 1
    return out
