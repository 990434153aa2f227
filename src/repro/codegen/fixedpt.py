"""Binding lowered kernels to numeric formats, plus an interpreter.

A library element declares its numeric contract as ``input_format`` /
``output_format`` strings (``"q5.26"``, ``"s16"``, ``"float"``,
``"double"``).  This module parses those labels into
:class:`NumericFormat` and executes a :class:`~repro.codegen.lower.
LoweredKernel` under them:

* **fixed** formats run on :class:`repro.fixedpoint.Fixed` — every
  add/mul saturates and rounds exactly as the library's hand-written
  fxmath kernels do, so the interpreter *is* the numeric reference for
  generated code;
* **float64** runs in native Python floats (exact IEEE double);
* **float32** quantizes every intermediate through a 4-byte struct
  round-trip, modelling single-precision hardware.

The interpreter is the numeric oracle: it computes with one
:class:`~repro.fixedpoint.Fixed` (or float) per value, one vector per
call.  The NumPy plan in :mod:`repro.codegen.pysource` reimplements
the same arithmetic on arrays rather than calling it, and the parity
suite pins the two bit-identical.

>>> parse_format("q5.26").qformat
QFormat(int_bits=5, frac_bits=26, overflow='saturate')
>>> parse_format("s16").qformat
QFormat(int_bits=0, frac_bits=15, overflow='saturate')
>>> parse_format("double").kind
'float64'
"""

from __future__ import annotations

import math
import re
import struct
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.codegen.lower import LoweredKernel
from repro.errors import CodegenError
from repro.fixedpoint import Fixed, Q15, QFormat
from repro.library.element import LibraryElement

__all__ = [
    "NumericFormat",
    "parse_format",
    "element_formats",
    "quantize_raw",
    "to_float32",
    "interpret_raw",
    "interpret",
]

_Q_RE = re.compile(r"^[qQ](\d+)\.(\d+)$")


@dataclass(frozen=True)
class NumericFormat:
    """A numeric representation generated code can execute under.

    ``kind`` is ``"fixed"`` (with ``qformat`` set), ``"float64"`` or
    ``"float32"``.
    """

    name: str
    kind: str
    qformat: "QFormat | None" = None

    @property
    def is_fixed(self) -> bool:
        return self.kind == "fixed"


def parse_format(label: str) -> NumericFormat:
    """Parse a library format label into a :class:`NumericFormat`.

    Recognized labels: ``"double"`` (IEEE float64), ``"float"`` (IEEE
    float32), ``"s16"`` (signed 16-bit = Q0.15) and ``"qI.F"``.
    """
    if label == "double":
        return NumericFormat(label, "float64")
    if label == "float":
        return NumericFormat(label, "float32")
    if label == "s16":
        return NumericFormat(label, "fixed", Q15)
    got = _Q_RE.match(label)
    if got:
        return NumericFormat(
            label, "fixed", QFormat(int(got.group(1)), int(got.group(2)))
        )
    raise CodegenError(f"unsupported numeric format label: {label!r}")


def element_formats(element: LibraryElement) -> tuple[NumericFormat, NumericFormat]:
    """The (input, output) formats a library element declares."""
    return parse_format(element.input_format), parse_format(element.output_format)


def quantize_raw(value: float, fmt: QFormat) -> int:
    """Quantize a real value to ``fmt`` raw integer form.

    Matches :meth:`repro.fixedpoint.Fixed.from_float`: scale, round
    half toward +inf, then clamp under the format's overflow mode.
    """
    return fmt.clamp_raw(math.floor(float(value) * fmt.scale + 0.5))


def to_float32(value: float) -> float:
    """Round a double to the nearest IEEE single, as a Python float.

    Values beyond float32 range overflow to signed infinity (what the
    hardware's round-to-nearest would produce for such magnitudes).
    """
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def interpret_raw(
    kernel: LoweredKernel,
    fmt: QFormat,
    out_fmt: QFormat,
    raw_inputs: Sequence[int],
) -> tuple[int, ...]:
    """Execute a kernel on raw fixed-point integers.

    Inputs and all intermediates live in ``fmt``; outputs are converted
    to ``out_fmt`` (rounding the excess fraction bits) on the way out.
    Returns raw integers in kernel output order.
    """
    if len(raw_inputs) != len(kernel.inputs):
        raise CodegenError(
            f"kernel {kernel.name!r} takes {len(kernel.inputs)} inputs, "
            f"got {len(raw_inputs)}")
    env: dict[str, Fixed] = {
        name: Fixed(raw, fmt) for name, raw in zip(kernel.inputs, raw_inputs)
    }
    for instr in kernel.instructions:
        if instr.op == "const":
            env[instr.dest] = Fixed.from_fraction(instr.args[0], fmt)
        elif instr.op == "add":
            env[instr.dest] = env[instr.args[0]] + env[instr.args[1]]
        else:
            env[instr.dest] = env[instr.args[0]] * env[instr.args[1]]
    return tuple(env[value].convert(out_fmt).raw for _name, value in kernel.outputs)


def interpret(
    kernel: LoweredKernel,
    in_fmt: NumericFormat,
    out_fmt: NumericFormat,
    inputs: "Mapping[str, float] | Sequence[float]",
) -> dict[str, float]:
    """Execute a kernel on real-valued inputs under declared formats.

    Accepts inputs as a mapping (by name) or a sequence (in kernel
    input order) and returns ``{output_name: float value}``.  Fixed
    formats quantize inputs, run :func:`interpret_raw` and rescale;
    float formats evaluate op by op, quantizing every intermediate for
    float32.  Mixing a fixed input format with a float output format
    (or vice versa) has no hardware analog in the library and raises
    :class:`~repro.errors.CodegenError`.
    """
    if isinstance(inputs, Mapping):
        try:
            values = [float(inputs[name]) for name in kernel.inputs]
        except KeyError as missing:
            raise CodegenError(
                f"kernel {kernel.name!r} input {missing.args[0]!r} "
                f"missing from environment") from None
    else:
        values = [float(v) for v in inputs]
        if len(values) != len(kernel.inputs):
            raise CodegenError(
                f"kernel {kernel.name!r} takes {len(kernel.inputs)} "
                f"inputs, got {len(values)}")

    if in_fmt.is_fixed != out_fmt.is_fixed:
        raise CodegenError(
            f"mixed fixed/float binding ({in_fmt.name!r} -> "
            f"{out_fmt.name!r}) is not supported")

    names = kernel.output_names
    if in_fmt.is_fixed:
        raw_inputs = [quantize_raw(v, in_fmt.qformat) for v in values]
        raws = interpret_raw(kernel, in_fmt.qformat, out_fmt.qformat, raw_inputs)
        scale = out_fmt.qformat.scale
        return {name: raw / scale for name, raw in zip(names, raws)}

    op_q = to_float32 if in_fmt.kind == "float32" else float
    out_q = to_float32 if out_fmt.kind == "float32" else float
    env: dict[str, float] = {
        name: op_q(v) for name, v in zip(kernel.inputs, values)
    }
    for instr in kernel.instructions:
        if instr.op == "const":
            env[instr.dest] = op_q(float(instr.args[0]))
        elif instr.op == "add":
            env[instr.dest] = op_q(env[instr.args[0]] + env[instr.args[1]])
        else:
            env[instr.dest] = op_q(env[instr.args[0]] * env[instr.args[1]])
    return {
        name: out_q(env[value]) for (name, value) in kernel.outputs
    }
