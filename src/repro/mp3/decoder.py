"""The decoder: stage pipeline with pluggable library elements.

This is the artifact the whole paper is about.  Every stage of the
Layer-III pipeline (Section 2: sync -> Huffman -> requantize -> stereo
-> reorder -> antialias -> IMDCT -> hybrid overlap -> polyphase
synthesis) exists in several library grades, and a
:class:`DecoderConfig` picks one per stage — exactly the knob the
mapping flow turns when it swaps reference code for Linux-math,
in-house, or IPP elements.

The seven preset configurations are the seven rows of the paper's
Table 6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import Mp3Error
from repro.mp3 import antialias as aa
from repro.mp3 import dequantize as dq
from repro.mp3 import hybrid as hy
from repro.mp3 import imdct as im
from repro.mp3 import reorder as ro
from repro.mp3 import stereo as stx
from repro.mp3 import synthesis as sy
from repro.mp3.bitstream import BitReader
from repro.mp3.costs import domain_conversion
from repro.mp3.frame import Frame
from repro.mp3.fxutil import XR_FRAC, from_q, to_q
from repro.mp3.synth_stream import EncodedStream
from repro.mp3.tables import SUBBANDS
from repro.platform.profiler import Profiler
from repro.platform.tally import OperationTally

__all__ = ["DecoderConfig", "Mp3Decoder", "CONFIGURATIONS",
           "ORIGINAL", "IPP_SUBBAND", "IPP_SUBBAND_IMDCT", "IH_LIBRARY",
           "IH_IPP_SUBBAND", "IH_IPP_FULL", "IPP_MP3"]

_SB_SIZE = 18


@dataclass(frozen=True)
class DecoderConfig:
    """Which library element implements each stage."""

    name: str
    dequantize: str = "float"     # float | fixed | asm
    stereo: str = "float"         # float | fixed | asm
    antialias: str = "float"      # float | fixed | asm
    imdct: str = "float"          # float | fixed | ipp
    synthesis: str = "float"      # float | fixed_fast | ipp
    huffman_grade: str = "c"      # c | asm
    description: str = ""

    def __post_init__(self) -> None:
        checks = [
            (self.dequantize, dq.VARIANTS), (self.stereo, stx.VARIANTS),
            (self.antialias, aa.VARIANTS), (self.imdct, im.VARIANTS),
            (self.synthesis, sy.VARIANTS),
        ]
        for variant, table in checks:
            if variant not in table:
                raise Mp3Error(f"unknown stage variant {variant!r}")

    @property
    def imdct_domain(self) -> str:
        return im.VARIANTS[self.imdct][1]

    @property
    def synthesis_domain(self) -> str:
        return sy.VARIANTS[self.synthesis][1]


#: Table 6 row 1: the standards-body code, double precision throughout.
ORIGINAL = DecoderConfig(
    "Original", description="ISO reference: all double-precision float")
#: Table 6 row 2: only IPP subband synthesis dropped in.
IPP_SUBBAND = DecoderConfig(
    "IPP SubBand", synthesis="ipp",
    description="reference float code + ippsSynthPQMF")
#: Table 6 row 3: IPP subband synthesis and IPP IMDCT.
IPP_SUBBAND_IMDCT = DecoderConfig(
    "IPP SubBand & IMDCT", synthesis="ipp", imdct="ipp",
    description="reference float code + ippsSynthPQMF + ippsMDCTInv")
#: Table 6 row 4: Linux-math + in-house fixed point everywhere.
IH_LIBRARY = DecoderConfig(
    "IH Library", dequantize="fixed", stereo="fixed", antialias="fixed",
    imdct="fixed", synthesis="fixed_fast",
    description="LM+IH mapping: fixed point throughout")
#: Table 6 row 5.
IH_IPP_SUBBAND = DecoderConfig(
    "IH + IPP SubBand", dequantize="fixed", stereo="fixed", antialias="fixed",
    imdct="fixed", synthesis="ipp",
    description="IH everywhere + ippsSynthPQMF")
#: Table 6 row 6: the paper's best automatic result.
IH_IPP_FULL = DecoderConfig(
    "IH + IPP SubBand & IMDCT", dequantize="fixed", stereo="fixed",
    antialias="fixed", imdct="ipp", synthesis="ipp",
    description="IH everywhere + both IPP elements (best mapped version)")
#: Table 6 row 7: Intel's fully hand-optimized decoder (comparison bound).
IPP_MP3 = DecoderConfig(
    "IPP MP3", dequantize="asm", stereo="asm", antialias="asm",
    imdct="ipp", synthesis="ipp", huffman_grade="asm",
    description="fully hand-optimized decoder (everything assembly-grade)")

#: All Table 6 rows in paper order.
CONFIGURATIONS = (ORIGINAL, IPP_SUBBAND, IPP_SUBBAND_IMDCT, IH_LIBRARY,
                  IH_IPP_SUBBAND, IH_IPP_FULL, IPP_MP3)


def _profile_names(config: DecoderConfig) -> dict[str, str]:
    """Profiler row names per stage, following the paper's tables."""
    return {
        "side": "III_get_scale_factors",
        "huffman": ("ippsHuffmanDecode_MP3" if config.huffman_grade == "asm"
                    else "III_hufman_decode"),
        "dequantize": ("ippsReQuantize_MP3_32s" if config.dequantize == "asm"
                       else "III_dequantize_sample"),
        "stereo": ("ippsJointStereo_MP3_32s" if config.stereo == "asm"
                   else "III_stereo"),
        "reorder": "III_reorder",
        "antialias": ("ippsAntialias_MP3_32s" if config.antialias == "asm"
                      else "III_antialias"),
        "imdct": ("IppsMDCTInv_MP3_32s" if config.imdct == "ipp"
                  else "inv_mdctL"),
        "hybrid": "III_hybrid",
        "synthesis": ("ippsSynthPQMF_MP3_32s16s" if config.synthesis == "ipp"
                      else "SubBandSynthesis"),
        "convert": "xr_format_convert",
    }


class Mp3Decoder:
    """Decodes synthetic streams with a given stage configuration.

    >>> from repro.mp3.synth_stream import make_stream
    >>> stream = make_stream(n_frames=2)
    >>> decoder = Mp3Decoder(ORIGINAL)
    >>> pcm = decoder.decode(stream)
    >>> pcm.shape
    (2304, 2)
    """

    def __init__(self, config: DecoderConfig = ORIGINAL,
                 profiler: Profiler | None = None):
        self.config = config
        self.profiler = profiler if profiler is not None else Profiler()
        self._names = _profile_names(config)

    # ------------------------------------------------------------------
    def decode(self, stream: EncodedStream) -> np.ndarray:
        """Decode the whole stream to PCM, shape (samples, channels)."""
        reader = BitReader(stream.data)
        channels = stream.channels
        hybrid_states = [hy.HybridState(
            np.int64 if self.config.imdct_domain == "fixed" else np.float64)
            for _ in range(channels)]
        synth_states = [sy.SynthesisState(
            fixed=self.config.synthesis_domain == "fixed")
            for _ in range(channels)]
        pcm_frames: list[np.ndarray] = []
        for _ in range(stream.n_frames):
            if not reader.seek_sync():
                raise Mp3Error("ran out of sync words before frame count")
            frame = self._read_frame(reader)
            pcm_frames.append(self._decode_frame(frame, hybrid_states,
                                                 synth_states))
        return np.concatenate(pcm_frames, axis=0)

    # ------------------------------------------------------------------
    def _record(self, stage: str, tally: OperationTally) -> None:
        self.profiler.record(self._names[stage], tally)

    def _read_frame(self, reader: BitReader) -> Frame:
        side_tally = OperationTally()
        huffman_tally = OperationTally()
        frame = Frame.read(reader, side_tally=side_tally,
                           huffman_tally=huffman_tally)
        if self.config.huffman_grade == "asm":
            huffman_tally = _asm_discount(huffman_tally)
        self._record("side", side_tally)
        self._record("huffman", huffman_tally)
        return frame

    def _convert(self, xr: np.ndarray, current: str, wanted: str) -> np.ndarray:
        """Move data between the float and fixed domains, with cost."""
        if current == wanted:
            return xr
        tally = OperationTally()
        domain_conversion(tally, len(xr), to_fixed=(wanted == "fixed"))
        self._record("convert", tally)
        if wanted == "fixed":
            return to_q(xr, XR_FRAC)
        return from_q(xr, XR_FRAC)

    def _decode_frame(self, frame: Frame,
                      hybrid_states: list[hy.HybridState],
                      synth_states: list[sy.SynthesisState]) -> np.ndarray:
        config = self.config
        channels = frame.header.channels
        granule_pcm: list[np.ndarray] = []
        for granule in frame.granules:
            # --- front end: dequantize + stereo + reorder + antialias ---
            dequantize_fn, front_domain = dq.VARIANTS[config.dequantize]
            xrs = []
            for gc in granule:
                tally = OperationTally()
                xrs.append(dequantize_fn(gc, tally))
                self._record("dequantize", tally)

            if channels == 2:
                stereo_fn, _ = stx.VARIANTS[config.stereo]
                tally = OperationTally()
                xrs = list(stereo_fn(xrs[0], xrs[1],
                                     frame.header.ms_stereo, tally))
                self._record("stereo", tally)

            processed = []
            for xr in xrs:
                tally = OperationTally()
                xr = ro.reorder(xr, short_blocks=False, tally=tally)
                self._record("reorder", tally)
                antialias_fn, _ = aa.VARIANTS[config.antialias]
                tally = OperationTally()
                xr = antialias_fn(xr, tally)
                self._record("antialias", tally)
                processed.append(xr)

            # --- IMDCT + hybrid + synthesis, per channel ---
            step_pcm = np.zeros((_SB_SIZE, SUBBANDS, channels))
            for ch, xr in enumerate(processed):
                xr = self._convert(xr, front_domain, config.imdct_domain)
                imdct_fn, imdct_domain = im.VARIANTS[config.imdct]
                blocks = np.empty((SUBBANDS, 2 * _SB_SIZE),
                                  dtype=np.int64 if imdct_domain == "fixed"
                                  else np.float64)
                tally = OperationTally()
                for sb in range(SUBBANDS):
                    lines = xr[sb * _SB_SIZE:(sb + 1) * _SB_SIZE]
                    blocks[sb] = imdct_fn(lines, tally)
                self._record("imdct", tally)

                hybrid_fn, _ = hy.VARIANTS[
                    "fixed" if imdct_domain == "fixed" else "float"]
                tally = OperationTally()
                rows = hybrid_fn(blocks, hybrid_states[ch], tally)
                self._record("hybrid", tally)

                # rows: (32 subbands, 18 steps) -> per-step vectors
                steps = rows.T
                synthesis_fn, synth_domain = sy.VARIANTS[config.synthesis]
                tally = OperationTally()
                for t in range(_SB_SIZE):
                    step = steps[t]
                    if imdct_domain != synth_domain:
                        conv_tally = OperationTally()
                        domain_conversion(conv_tally, SUBBANDS,
                                          to_fixed=(synth_domain == "fixed"))
                        self._record("convert", conv_tally)
                        if synth_domain == "fixed":
                            step = to_q(step, XR_FRAC)
                        else:
                            step = from_q(step, XR_FRAC)
                    pcm = synthesis_fn(step, synth_states[ch], tally)
                    if synth_domain == "fixed":
                        pcm = from_q(pcm, XR_FRAC)
                    step_pcm[:, :, ch][t] = pcm
                self._record("synthesis", tally)

            granule_pcm.append(
                step_pcm.reshape(_SB_SIZE * SUBBANDS, channels))
        return np.clip(np.concatenate(granule_pcm, axis=0), -1.0, 1.0)


def _asm_discount(tally: OperationTally) -> OperationTally:
    """Hand-optimized Huffman decode: table-driven multi-bit steps.

    An assembly decoder consumes several bits per lookup instead of one
    branch per bit; model as a 4x reduction of the tree-walk work.
    """
    out = OperationTally()
    out.load = tally.load // 4
    out.shift = tally.shift // 4
    out.int_alu = tally.int_alu // 4
    out.branch = tally.branch // 4
    out.store = tally.store
    out.call = tally.call
    return out
