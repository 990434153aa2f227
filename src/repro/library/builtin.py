"""The built-in libraries: LM (Linux math), IH (in-house), IPP, REF.

These are the concrete libraries of the paper's evaluation:

* **REF** — the open-source floating-point elements from the standards
  body's decoder (the baselines of Table 1);
* **LM** — the Linux math library: double- and single-precision
  transcendentals (including the intro's four ``log`` variants, two of
  which live here);
* **IH** — the in-house fixed-point library: bit-manipulation and
  polynomial ``log``, fixed ``exp``/``sin``/``cos``/``sqrt``, the fixed
  IMDCT and fast-DCT subband synthesis, and a ``mac`` helper;
* **IPP** — the Intel-style hand-optimized complex elements
  (``ippsSynthPQMF_MP3_32s16s``, ``IppsMDCTInv_MP3_32s``).

Beyond the MP3 set, REF/IH/IPP also carry implementations of the other
built-in workloads' blocks (:mod:`repro.workload`): block FIR, biquad
IIR, real FFT, 1-D/2-D inverse DCT, correlation and energy MAC loops.
Their polynomial rows come from the same coefficient tables
(:mod:`repro.workload.kernels`) the workload kernels feed the
frontend, so blocks and elements match coefficient-for-coefficient.

Complex elements carry *per-frame* cost tallies built from the very
stage implementations the decoder runs, so Table 1's numbers and the
decoder profiles are one consistent cost model.  Polynomial
representations use exact rational images of the numeric constants
(Equation 1's cosines), as extracted "from the source code ... or from
documentation".
"""

from __future__ import annotations

import math

import numpy as np

from repro.fixedpoint import (Q16_15, cost_fx_cos, cost_fx_exp,
                              cost_fx_log2_bitwise, cost_fx_log_poly,
                              cost_fx_sin, cost_fx_sqrt)
from repro.library.catalog import Library
from repro.library.element import LibraryElement, formal_inputs
from repro.mp3 import imdct as im
from repro.mp3 import synthesis as sy
from repro.mp3.tables import IMDCT_COS_36, POLYPHASE_N, SUBBANDS
from repro.platform.tally import OperationTally
from repro.symalg.polynomial import Polynomial
from repro.symalg.series import taylor
from repro.workload import kernels as wk

__all__ = ["linux_math_library", "inhouse_library", "ipp_library",
           "reference_library", "full_library", "STEPS_PER_FRAME",
           "BLOCKS_PER_FRAME"]

#: Polyphase synthesis steps per frame: 2 granules x 2 channels x 18.
STEPS_PER_FRAME = 72
#: IMDCT blocks per frame: 2 granules x 2 channels x 32 subbands.
BLOCKS_PER_FRAME = 128


# ----------------------------------------------------------------------
# Polynomial representations
# ----------------------------------------------------------------------
def _log_polynomial(degree: int = 8) -> Polynomial:
    """log(x) around 1 over formal in0 (the documented representation)."""
    x = Polynomial.variable("in0")
    return taylor("log1p", degree).substitute({"_arg": x - 1})


def _exp_polynomial(degree: int = 8) -> Polynomial:
    x = Polynomial.variable("in0")
    return taylor("exp", degree).substitute({"_arg": x})


def _sin_polynomial(degree: int = 9) -> Polynomial:
    x = Polynomial.variable("in0")
    return taylor("sin", degree).substitute({"_arg": x})


def _cos_polynomial(degree: int = 8) -> Polynomial:
    x = Polynomial.variable("in0")
    return taylor("cos", degree).substitute({"_arg": x})


def _sqrt_polynomial(degree: int = 6) -> Polynomial:
    x = Polynomial.variable("in0")
    return taylor("sqrt1p", degree).substitute({"_arg": x - 1})


def _linear_rows(matrix: np.ndarray) -> tuple[Polynomial, ...]:
    """Rows of a numeric matrix as linear polynomials over formals."""
    formals = formal_inputs(matrix.shape[1])
    return tuple(Polynomial.linear(dict(zip(formals, row)))
                 for row in matrix.tolist())


#: Equation 1 rows for n=36 (the IMDCT polynomial representation).
_IMDCT_ROWS = _linear_rows(IMDCT_COS_36)
#: Polyphase matrixing rows (the synthesis core's representation).
_SYNTH_ROWS = _linear_rows(POLYPHASE_N)

# Polynomial representations of the non-MP3 workload elements, built
# from the same coefficient tables the workload block builders feed
# the frontend (repro.workload.kernels) — shared constants are what
# make block and element polynomials coincide, exactly as the MP3
# blocks match through repro.mp3.tables.
_FIR_ROWS = _linear_rows(wk.fir_matrix(wk.fir_taps()))
_IIR_ROWS = _linear_rows(wk.iir_impulse_matrix())
_RFFT_ROWS = _linear_rows(wk.rfft_matrix())
_IDCT_ROW_ROWS = _linear_rows(wk.idct_basis())
_IDCT2_ROWS = _linear_rows(wk.idct2_matrix())
_XCORR_ROWS = _linear_rows(wk.xcorr_taps().reshape(1, -1))


def _energy_polynomial(n: int = wk.ENERGY_POINTS) -> Polynomial:
    """Sum of squares over ``n`` formals (the VQ energy element)."""
    formals = formal_inputs(n)
    poly = Polynomial.zero()
    for f in formals:
        poly = poly + Polynomial.variable(f) ** 2
    return poly


_ENERGY_POLY = _energy_polynomial()


# ----------------------------------------------------------------------
# Per-frame cost tallies, built from the decoder's own stage kernels
# ----------------------------------------------------------------------
def _frame_cost(stage_fn, arg_builder, calls: int) -> OperationTally:
    """Run one stage call on dummy data, scale its tally to a frame."""
    tally = OperationTally()
    stage_fn(*arg_builder(), tally)
    return tally.scaled(calls)


def _synthesis_cost(variant: str) -> OperationTally:
    fn, domain = sy.VARIANTS[variant]
    fixed = domain == "fixed"

    def args():
        step = np.zeros(SUBBANDS, dtype=np.int64 if fixed else np.float64)
        return step, sy.SynthesisState(fixed=fixed)

    return _frame_cost(fn, args, STEPS_PER_FRAME)


def _imdct_cost(variant: str) -> OperationTally:
    fn, domain = im.VARIANTS[variant]
    fixed = domain == "fixed"

    def args():
        return (np.zeros(18, dtype=np.int64 if fixed else np.float64),)

    return _frame_cost(fn, args, BLOCKS_PER_FRAME)


def _libm_cost(name: str, extra_fp: int = 0) -> OperationTally:
    tally = OperationTally()
    tally.libm(name)
    tally.fp_mul += extra_fp
    tally.call += 1
    return tally


def _float32_libm_cost(name: str) -> OperationTally:
    """Single-precision libm: roughly half the double soft-float work."""
    tally = OperationTally()
    tally.libm(name)          # priced per double call below...
    # ...then discounted: represent as fewer equivalent fp ops instead.
    tally.libm_calls[name] = 0
    tally.fp_add += 8
    tally.fp_mul += 10
    tally.int_alu += 40
    tally.shift += 20
    tally.load += 12
    tally.call += 2
    return tally


# ----------------------------------------------------------------------
# Library constructors
# ----------------------------------------------------------------------
def linux_math_library() -> Library:
    """LM: the Linux/libm elements (double plus float variants)."""
    lib = Library("LM")
    log_poly = _log_polynomial()
    lib.add(LibraryElement(
        name="log_double", library="LM", polynomials=(log_poly,),
        input_format="double", output_format="double", accuracy=1e-15,
        cost=_libm_cost("log"), kernel=math.log,
        description="IEEE double natural log (libm)"))
    lib.add(LibraryElement(
        name="logf_float", library="LM", polynomials=(log_poly,),
        input_format="float", output_format="float", accuracy=6e-8,
        cost=_float32_libm_cost("log"), kernel=math.log,
        description="single-precision logf (libm)"))
    lib.add(LibraryElement(
        name="exp_double", library="LM", polynomials=(_exp_polynomial(),),
        input_format="double", output_format="double", accuracy=1e-15,
        cost=_libm_cost("exp"), kernel=math.exp,
        description="IEEE double exp (libm)"))
    lib.add(LibraryElement(
        name="sin_double", library="LM", polynomials=(_sin_polynomial(),),
        input_format="double", output_format="double", accuracy=1e-15,
        cost=_libm_cost("sin"), kernel=math.sin,
        description="IEEE double sin (libm)"))
    lib.add(LibraryElement(
        name="cos_double", library="LM", polynomials=(_cos_polynomial(),),
        input_format="double", output_format="double", accuracy=1e-15,
        cost=_libm_cost("cos"), kernel=math.cos,
        description="IEEE double cos (libm)"))
    lib.add(LibraryElement(
        name="sqrt_double", library="LM", polynomials=(_sqrt_polynomial(),),
        input_format="double", output_format="double", accuracy=1e-15,
        cost=_libm_cost("sqrt"), kernel=math.sqrt,
        description="IEEE double sqrt (libm)"))
    lib.add(LibraryElement(
        name="pow_double", library="LM",
        polynomials=(Polynomial.variable("in0") * Polynomial.variable("in1"),),
        input_format="double", output_format="double", accuracy=1e-15,
        cost=_libm_cost("pow"), kernel=math.pow,
        description="IEEE double pow (libm); polynomial rep is symbolic"))
    return lib


def inhouse_library() -> Library:
    """IH: the in-house fixed-point elements."""
    from repro.fixedpoint import fx_exp, fx_log2_bitwise, fx_log_poly

    lib = Library("IH")
    log_poly = _log_polynomial()
    lib.add(LibraryElement(
        name="fx_log_bitwise", library="IH", polynomials=(log_poly,),
        input_format="q16.15", output_format="q16.15", accuracy=4e-3,
        cost=cost_fx_log2_bitwise(Q16_15),
        kernel=fx_log2_bitwise,
        description="fixed-point log2 via bit manipulation (Crenshaw [14])"))
    lib.add(LibraryElement(
        name="fx_log_poly", library="IH", polynomials=(log_poly,),
        input_format="q16.15", output_format="q16.15", accuracy=8e-3,
        cost=cost_fx_log_poly(Q16_15),
        kernel=fx_log_poly,
        description="fixed-point log via polynomial expansion"))
    lib.add(LibraryElement(
        name="fx_exp", library="IH", polynomials=(_exp_polynomial(),),
        input_format="q16.15", output_format="q16.15", accuracy=2e-2,
        cost=cost_fx_exp(Q16_15), kernel=fx_exp,
        description="fixed-point exp (range reduction + polynomial)"))
    lib.add(LibraryElement(
        name="fx_sin", library="IH", polynomials=(_sin_polynomial(),),
        input_format="q16.15", output_format="q16.15", accuracy=3e-3,
        cost=cost_fx_sin(Q16_15), description="fixed-point sine"))
    lib.add(LibraryElement(
        name="fx_cos", library="IH", polynomials=(_cos_polynomial(),),
        input_format="q16.15", output_format="q16.15", accuracy=3e-3,
        cost=cost_fx_cos(Q16_15), description="fixed-point cosine"))
    lib.add(LibraryElement(
        name="fx_sqrt", library="IH", polynomials=(_sqrt_polynomial(),),
        input_format="q16.15", output_format="q16.15", accuracy=2e-3,
        cost=cost_fx_sqrt(Q16_15), description="fixed-point Newton sqrt"))

    a, b, c = (Polynomial.variable(n) for n in ("in0", "in1", "in2"))
    mac_tally = OperationTally(int_mac=1, load=2, store=1)
    lib.add(LibraryElement(
        name="mac", library="IH", polynomials=(a * b + c,),
        input_format="q16.15", output_format="q16.15", accuracy=3e-5,
        cost=mac_tally,
        description="multiply-accumulate helper (the DATE'02 target)"))

    lib.add(LibraryElement(
        name="fixed_IMDCT", library="IH", polynomials=_IMDCT_ROWS,
        input_format="q5.26", output_format="q5.26", accuracy=2e-6,
        cost=_imdct_cost("fixed"),
        description="in-house fixed 36-point IMDCT (direct form, Eq. 1)"))
    lib.add(LibraryElement(
        name="fixed_SubBandSyn", library="IH", polynomials=_SYNTH_ROWS,
        input_format="q5.26", output_format="q5.26", accuracy=2e-6,
        cost=_synthesis_cost("fixed_fast"),
        description="in-house fixed subband synthesis (fast DCT-32)"))

    # Non-MP3 workload elements (per-call tallies, from documentation).
    lib.add(LibraryElement(
        name="fx_fir16", library="IH", polynomials=_FIR_ROWS,
        input_format="q16.15", output_format="q16.15", accuracy=5e-5,
        cost=OperationTally(int_mac=128, shift=8, load=256, store=8, call=1),
        description="in-house fixed 16-tap block FIR (8 samples/call)"))
    lib.add(LibraryElement(
        name="fx_biquad_iir8", library="IH", polynomials=_IIR_ROWS,
        input_format="q16.15", output_format="q16.15", accuracy=8e-5,
        cost=OperationTally(int_mac=40, shift=16, load=88, store=16, call=1),
        description="in-house fixed biquad IIR (8-sample unrolled)"))
    lib.add(LibraryElement(
        name="fx_idct_row8", library="IH", polynomials=_IDCT_ROW_ROWS,
        input_format="q16.15", output_format="q16.15", accuracy=2e-5,
        cost=OperationTally(int_mac=64, shift=8, load=128, store=8, call=1),
        description="in-house fixed 8-point IDCT row pass (direct form)"))
    lib.add(LibraryElement(
        name="fx_idct8x8", library="IH", polynomials=_IDCT2_ROWS,
        input_format="q16.15", output_format="q16.15", accuracy=3e-5,
        cost=OperationTally(int_mac=1024, shift=128, load=2176, store=128,
                            call=1),
        description="in-house fixed separable 8x8 2-D IDCT (two passes)"))
    lib.add(LibraryElement(
        name="fx_L_mac40", library="IH", polynomials=_XCORR_ROWS,
        input_format="q16.15", output_format="q16.15", accuracy=6e-5,
        cost=OperationTally(int_mac=40, load=80, store=1, call=1),
        description="in-house L_mac loop: weighted 40-lag correlation"))
    lib.add(LibraryElement(
        name="fx_energy8", library="IH", polynomials=(_ENERGY_POLY,),
        input_format="q16.15", output_format="q16.15", accuracy=4e-5,
        cost=OperationTally(int_mac=8, load=8, store=1, call=1),
        description="in-house fixed sum-of-squares energy (8 samples)"))
    return lib


def ipp_library() -> Library:
    """IPP: Intel-style hand-optimized complex elements."""
    lib = Library("IPP")
    lib.add(LibraryElement(
        name="IppsMDCTInv_MP3_32s", library="IPP", polynomials=_IMDCT_ROWS,
        input_format="q5.26", output_format="q5.26", accuracy=2e-6,
        cost=_imdct_cost("ipp"),
        description="IPP fast inverse MDCT (from documentation)"))
    lib.add(LibraryElement(
        name="ippsSynthPQMF_MP3_32s16s", library="IPP",
        polynomials=_SYNTH_ROWS,
        input_format="q5.26", output_format="s16", accuracy=2e-6,
        cost=_synthesis_cost("ipp"),
        description="IPP polyphase synthesis filterbank (from documentation)"))
    lib.add(LibraryElement(
        name="ippsFIR_16tap_32s", library="IPP", polynomials=_FIR_ROWS,
        input_format="q16.15", output_format="q16.15", accuracy=4e-6,
        cost=OperationTally(int_mac=128, shift=8, load=96, store=8, call=1),
        description="IPP block FIR, 16 taps (circular delay line)"))
    lib.add(LibraryElement(
        name="ippsFFT_RToPack_8_32s", library="IPP", polynomials=_RFFT_ROWS,
        input_format="q16.15", output_format="q16.15", accuracy=3e-6,
        cost=OperationTally(int_mac=20, int_alu=24, shift=16, load=32,
                            store=8, call=1),
        description="IPP 8-point real FFT, packed output (radix-2 fast)"))
    lib.add(LibraryElement(
        name="ippiDCT8x8Inv_16s", library="IPP", polynomials=_IDCT2_ROWS,
        input_format="s16", output_format="s16", accuracy=2e-5,
        cost=OperationTally(int_mac=464, int_alu=288, shift=256, load=832,
                            store=128, call=1),
        description="IPP fast 8x8 inverse DCT (AAN-style factorization)"))
    return lib


def reference_library() -> Library:
    """REF: the open-source float elements from the standards body."""
    lib = Library("REF")
    lib.add(LibraryElement(
        name="float_IMDCT", library="REF", polynomials=_IMDCT_ROWS,
        input_format="double", output_format="double", accuracy=1e-12,
        cost=_imdct_cost("float"),
        description="reference double-precision IMDCT (inv_mdctL)"))
    lib.add(LibraryElement(
        name="float_SubBandSyn", library="REF", polynomials=_SYNTH_ROWS,
        input_format="double", output_format="double", accuracy=1e-12,
        cost=_synthesis_cost("float"),
        description="reference double-precision SubBandSynthesis"))

    # Reference implementations of the non-MP3 workload blocks: the
    # textbook double-precision loops, priced per call.  Every workload
    # block has a REF element, so each one maps on the REF-only rung.
    lib.add(LibraryElement(
        name="float_FIR16", library="REF", polynomials=_FIR_ROWS,
        input_format="double", output_format="double", accuracy=1e-12,
        cost=OperationTally(fp_mul=128, fp_add=120, load=256, store=8,
                            call=1),
        description="reference double 16-tap block FIR (8 samples/call)"))
    lib.add(LibraryElement(
        name="float_BiquadIIR8", library="REF", polynomials=_IIR_ROWS,
        input_format="double", output_format="double", accuracy=1e-12,
        cost=OperationTally(fp_mul=40, fp_add=32, load=88, store=16, call=1),
        description="reference double biquad IIR (8-sample direct form II)"))
    lib.add(LibraryElement(
        name="float_rFFT8", library="REF", polynomials=_RFFT_ROWS,
        input_format="double", output_format="double", accuracy=1e-12,
        cost=OperationTally(fp_mul=64, fp_add=56, load=128, store=8, call=1),
        description="reference double 8-point real DFT (direct form)"))
    lib.add(LibraryElement(
        name="float_IDCT1D8", library="REF", polynomials=_IDCT_ROW_ROWS,
        input_format="double", output_format="double", accuracy=1e-12,
        cost=OperationTally(fp_mul=64, fp_add=56, load=128, store=8, call=1),
        description="reference double 8-point IDCT row pass"))
    lib.add(LibraryElement(
        name="float_IDCT8x8", library="REF", polynomials=_IDCT2_ROWS,
        input_format="double", output_format="double", accuracy=1e-12,
        cost=OperationTally(fp_mul=1024, fp_add=896, load=2176, store=128,
                            call=1),
        description="reference double separable 8x8 2-D IDCT"))
    lib.add(LibraryElement(
        name="float_xcorr40", library="REF", polynomials=_XCORR_ROWS,
        input_format="double", output_format="double", accuracy=1e-12,
        cost=OperationTally(fp_mul=40, fp_add=39, load=80, store=1, call=1),
        description="reference double weighted 40-lag correlation"))
    lib.add(LibraryElement(
        name="float_energy8", library="REF", polynomials=(_ENERGY_POLY,),
        input_format="double", output_format="double", accuracy=1e-12,
        cost=OperationTally(fp_mul=8, fp_add=7, load=8, store=1, call=1),
        description="reference double sum-of-squares energy (8 samples)"))
    return lib


def full_library() -> Library:
    """Everything: REF + LM + IH + IPP (the final mapping pass's view)."""
    return Library.union(reference_library(), linux_math_library(),
                         inhouse_library(), ipp_library())
