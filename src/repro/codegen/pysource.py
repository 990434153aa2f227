"""Running lowered kernels: a level-batched NumPy plan, and emitted
Python source for reading.

:func:`compile_kernel` plans a :class:`~repro.codegen.lower.LoweredKernel`
once for NumPy; nothing is emitted or compiled.  Every value the kernel
holds (its inputs, its constants and each instruction's result) is one
row of a values x vectors array.  An instruction's *level* is one more
than its deepest operand's (inputs and constants are level 0), so all
``add`` instructions of one level, and all ``mul`` instructions, are
independent: each group runs as one vectorised op over its rows, for
every vector at once.  :meth:`CompiledKernel.run_vectors` pushes a whole
stimulus through in chunks of ``_CHUNK`` vectors, so memory does not
grow with the stimulus.

The plan is **pinned bit-identical** to the interpreter in
:mod:`repro.codegen.fixedpt`, the independent oracle (the property
suite in ``tests/codegen/test_parity.py`` enforces this):

* fixed formats compute on raw integers with the format's rounding,
  saturation or wrap, and output conversion.  They use ``int64`` when
  both formats are at most 32 bits wide: operands then stay below
  2**31 in magnitude, so a product with its rounding bias, and an
  output left shift, stay below 2**63.  Wider formats run the same ops
  on ``dtype=object`` Python ints.  A non-finite input raises, as
  :func:`~repro.codegen.fixedpt.quantize_raw` does;
* float32 rounds every op through float32 (IEEE single ``+`` and ``*``
  are correctly rounded, so this equals rounding the exact double
  result, as the interpreter does);
* float64 is plain IEEE double.

:func:`emit_python` renders the same computation as a standalone,
dependency-free Python module for people to read and run (what
``repro codegen`` prints and :func:`repro.mapping.rewriter.rewrite`
returns): one line per IR instruction, all format parameters baked in.
Its own parity test ``exec``s that source; nothing in the package does.

>>> from repro.symalg.polynomial import Polynomial
>>> from repro.codegen.lower import lower_polynomials
>>> from repro.codegen.fixedpt import parse_format
>>> x = Polynomial.variable("x")
>>> kernel = lower_polynomials("sq", {"out": x**2 + 3}, ("x",))
>>> compiled = compile_kernel(kernel, parse_format("q5.26"), parse_format("q5.26"))
>>> compiled.run({"x": 1.5})
{'out': 5.25}
>>> compiled.run_raw(1 << 26)
(268435456,)
>>> compiled.run_vectors([(1.5,), (-2.0,)]).tolist()
[[5.25], [7.0]]
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping, Sequence

import numpy as np

from repro.codegen.fixedpt import NumericFormat, quantize_raw, to_float32
from repro.codegen.lower import Instr, LoweredKernel
from repro.errors import CodegenError
from repro.fixedpoint import Fixed, QFormat

__all__ = ["CompiledKernel", "emit_python", "compile_kernel"]

#: Vectors per pass through a plan: bounds the values x vectors array
#: (about 4 MB of int64 for the 7,465-instruction 2-D IDCT kernel).
_CHUNK = 64


def _fixed_formats(
    in_fmt: NumericFormat, out_fmt: NumericFormat
) -> "tuple[QFormat, QFormat] | None":
    """The Q-formats of a fixed binding, ``None`` for a float one.

    Mixed fixed/float bindings have no hardware analog in the library,
    and ``overflow='raise'`` formats are for debugging in the
    interpreter, so both are refused.
    """
    if in_fmt.is_fixed != out_fmt.is_fixed:
        raise CodegenError(
            f"mixed fixed/float binding ({in_fmt.name!r} -> "
            f"{out_fmt.name!r}) is not supported")
    if not in_fmt.is_fixed:
        return None
    for which, f in (("input", in_fmt), ("output", out_fmt)):
        if f.qformat.overflow == "raise":
            raise CodegenError(
                f"cannot generate code for {which} format {f.qformat} with "
                f"overflow='raise'; use the interpreter for debugging")
    return in_fmt.qformat, out_fmt.qformat


def _clamp(raws: np.ndarray, fmt: QFormat) -> np.ndarray:
    """:meth:`QFormat.clamp_raw` over an array (saturate or wrap)."""
    if fmt.overflow == "saturate":
        return np.minimum(np.maximum(raws, fmt.raw_min), fmt.raw_max)
    # Two's-complement truncation to total_bits.
    return ((raws - fmt.raw_min) & ((1 << fmt.total_bits) - 1)) + fmt.raw_min


class _FixedArithmetic:
    """:class:`~repro.fixedpoint.Fixed` arithmetic on arrays of raw
    integers in ``fmt``, converted to ``out_fmt`` on the way out."""

    def __init__(self, fmt: QFormat, out_fmt: QFormat):
        self.fmt = fmt
        self.out_fmt = out_fmt
        wide = max(fmt.total_bits, out_fmt.total_bits) > 32
        self.dtype = object if wide else np.int64

    def const(self, value: Fraction) -> int:
        # Fixed.from_fraction: round half up to the quantum, then clamp.
        num, den = value.numerator, value.denominator
        return self.fmt.clamp_raw((2 * num * self.fmt.scale + den) // (2 * den))

    def load(self, values: np.ndarray) -> np.ndarray:
        """Quantize real inputs (vectors x inputs) as :func:`quantize_raw`
        does; raw rows come back inputs x vectors."""
        fmt = self.fmt
        scaled = np.floor(values * fmt.scale + 0.5)
        finite = np.isfinite(scaled)
        if not finite.all():
            quantize_raw(values[~finite][0], fmt)  # raises, as interpret does
        if self.dtype is object:
            raws = np.frompyfunc(int, 1, 1)(scaled)
        elif fmt.overflow == "wrap":
            # Exact for floats, and wrapping ignores multiples of 2**total_bits.
            raws = np.fmod(scaled, float(1 << fmt.total_bits)).astype(np.int64)
        else:
            raws = np.clip(scaled, fmt.raw_min, fmt.raw_max).astype(np.int64)
        return _clamp(raws, fmt).T

    def load_raw(self, raws: Sequence[int]) -> np.ndarray:
        """One vector of raw inputs, clamped as ``Fixed(raw, fmt)`` does."""
        return np.array([[self.fmt.clamp_raw(int(raw))] for raw in raws],
                        dtype=self.dtype)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _clamp(a + b, self.fmt)

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        frac = self.fmt.frac_bits
        product = a * b
        if frac:
            product = (product + (1 << (frac - 1))) >> frac
        return _clamp(product, self.fmt)

    def store(self, raws: np.ndarray) -> np.ndarray:
        """Convert working raws to ``out_fmt`` raws (:meth:`Fixed.convert`)."""
        diff = self.fmt.frac_bits - self.out_fmt.frac_bits
        if diff > 0:
            raws = (raws + (1 << (diff - 1))) >> diff
        elif diff < 0:
            raws = raws << -diff
        return _clamp(raws, self.out_fmt)

    def to_float(self, raws: np.ndarray) -> np.ndarray:
        # Python-int true division on the object path: correctly rounded.
        return (raws / self.out_fmt.scale).astype(np.float64)


class _FloatArithmetic:
    """IEEE arithmetic in the working precision (float32 or float64)."""

    def __init__(self, in_fmt: NumericFormat, out_fmt: NumericFormat):
        self.dtype = np.float32 if in_fmt.kind == "float32" else np.float64
        self.out_dtype = np.float32 if out_fmt.kind == "float32" else np.float64

    def const(self, value: Fraction) -> float:
        return self.dtype(float(value))

    def load(self, values: np.ndarray) -> np.ndarray:
        return values.astype(self.dtype).T

    add = np.add
    mul = np.multiply

    def store(self, values: np.ndarray) -> np.ndarray:
        return values.astype(self.out_dtype)

    def to_float(self, values: np.ndarray) -> np.ndarray:
        return values.astype(np.float64)


@dataclass(frozen=True)
class _Level:
    """One vectorised op: rows ``dest`` get ``op(rows a, rows b)``."""

    op: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dest: slice
    a: np.ndarray
    b: np.ndarray


@dataclass(frozen=True, eq=False)
class CompiledKernel:
    """A kernel planned for NumPy under one pair of numeric formats.

    ``run_vectors(vectors)`` runs a whole stimulus; ``run(env)`` maps
    real-valued inputs (by name) to real-valued outputs, and
    ``run_raw(*raws)`` raw fixed-point integers to raw integers.  The
    last two are one-vector views of the same plan.
    """

    kernel: LoweredKernel
    in_fmt: NumericFormat
    out_fmt: NumericFormat
    _arithmetic: "_FixedArithmetic | _FloatArithmetic" = field(repr=False)
    _consts: np.ndarray = field(repr=False)
    _levels: tuple[_Level, ...] = field(repr=False)
    _outputs: np.ndarray = field(repr=False)
    _rows: int = field(repr=False)

    def _execute(self, loaded: np.ndarray) -> np.ndarray:
        """Output rows (outputs x vectors, in the output representation)
        from loaded input rows (inputs x vectors)."""
        arithmetic = self._arithmetic
        n_in, n_const = loaded.shape[0], len(self._consts)
        values = np.empty((self._rows, loaded.shape[1]), dtype=arithmetic.dtype)
        values[:n_in] = loaded
        values[n_in:n_in + n_const] = self._consts[:, None]
        for level in self._levels:
            values[level.dest] = level.op(values[level.a], values[level.b])
        return arithmetic.store(values[self._outputs])

    def run_vectors(self, vectors: "Sequence[Sequence[float]]") -> np.ndarray:
        """Outputs for every input vector: a float64 array with one row
        per vector and one column per kernel output, from vectors whose
        values follow the kernel's input order."""
        n_in = len(self.kernel.inputs)
        matrix = np.asarray(vectors, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != n_in:
            raise CodegenError(
                f"kernel {self.kernel.name!r} takes vectors of {n_in} inputs, "
                f"got an array of shape {matrix.shape}")
        arithmetic = self._arithmetic
        out = np.empty((len(matrix), len(self._outputs)))
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(matrix), _CHUNK):
                chunk = matrix[start:start + _CHUNK]
                got = self._execute(arithmetic.load(chunk))
                out[start:start + len(chunk)] = arithmetic.to_float(got).T
        return out

    def run(self, env: Mapping[str, float]) -> dict[str, float]:
        """One vector, by name: ``{output name: value}``."""
        (row,) = self.run_vectors([[env[name] for name in self.kernel.inputs]])
        return dict(zip(self.kernel.output_names, row.tolist()))

    def run_raw(self, *raws: int) -> tuple[int, ...]:
        """One vector of raw fixed-point inputs to raw outputs, as
        :func:`~repro.codegen.fixedpt.interpret_raw` computes them."""
        if not self.in_fmt.is_fixed:
            raise CodegenError(
                f"run_raw needs fixed-point formats, not {self.in_fmt.name!r}")
        if len(raws) != len(self.kernel.inputs):
            raise CodegenError(
                f"kernel {self.kernel.name!r} takes {len(self.kernel.inputs)} "
                f"inputs, got {len(raws)}")
        got = self._execute(self._arithmetic.load_raw(raws))
        return tuple(int(raw) for raw in got[:, 0])


def _plan(kernel: LoweredKernel, arithmetic) -> tuple:
    """``(consts, levels, outputs, rows)``: the constants' values (the
    rows after the inputs), the level-batched ops, the output rows and
    the number of rows."""
    depth = dict.fromkeys(kernel.inputs, 0)
    consts: list[Instr] = []
    groups: dict[tuple[int, str], list[Instr]] = {}
    for instr in kernel.instructions:
        if instr.op == "const":
            depth[instr.dest] = 0
            consts.append(instr)
        else:
            a, b = instr.args
            level = max(depth[a], depth[b]) + 1
            depth[instr.dest] = level
            groups.setdefault((level, instr.op), []).append(instr)

    # Rows: the inputs, the constants, then each group's results.
    names = [*kernel.inputs, *(instr.dest for instr in consts)]
    first = len(names)
    batches = sorted(groups.items())
    for _key, instrs in batches:
        names += [instr.dest for instr in instrs]
    row = {name: i for i, name in enumerate(names)}
    levels = []
    for (_level, op), instrs in batches:
        a = np.array([row[instr.args[0]] for instr in instrs], dtype=np.intp)
        b = np.array([row[instr.args[1]] for instr in instrs], dtype=np.intp)
        fn = arithmetic.add if op == "add" else arithmetic.mul
        levels.append(_Level(fn, slice(first, first + len(instrs)), a, b))
        first += len(instrs)

    with np.errstate(over="ignore"):
        values = [arithmetic.const(instr.args[0]) for instr in consts]
    outputs = np.array([row[value] for _name, value in kernel.outputs],
                       dtype=np.intp)
    return np.array(values, dtype=arithmetic.dtype), tuple(levels), outputs, len(names)


def _float_literal(value: float) -> str:
    if math.isfinite(value):
        return repr(value)
    if math.isnan(value):
        return "float('nan')"
    return "float('inf')" if value > 0 else "float('-inf')"


def _clamp_lines(name: str, fmt: QFormat) -> list[str]:
    """Source for a clamp function matching ``fmt.clamp_raw``."""
    lo, hi = fmt.raw_min, fmt.raw_max
    lines = [
        f"def {name}(r):",
        f"    if {lo} <= r <= {hi}:",
        "        return r",
    ]
    if fmt.overflow == "saturate":
        lines += [f"    return {hi} if r > {hi} else {lo}"]
    else:  # wrap: two's-complement truncation to total_bits
        span = 1 << fmt.total_bits
        lines += [
            f"    r &= {span - 1}",
            f"    return r - {span} if r > {hi} else r",
        ]
    return lines


def _emit_fixed(kernel: LoweredKernel, fmt: QFormat, out_fmt: QFormat) -> str:
    rename = {name: f"x{i}" for i, name in enumerate(kernel.inputs)}
    frac = fmt.frac_bits
    lines = [
        f'"""Generated fixed-point kernel {kernel.name!r}.',
        "",
        f"Working format Q{fmt.int_bits}.{frac}, output format "
        f"Q{out_fmt.int_bits}.{out_fmt.frac_bits}.  Generated by",
        "repro.codegen.pysource -- do not edit.",
        '"""',
        "",
        "from math import floor",
        "",
    ]
    lines += _clamp_lines("_clamp", fmt)
    lines.append("")
    if fmt == out_fmt:
        out_clamp = "_clamp"
    else:
        out_clamp = "_clamp_out"
        lines += _clamp_lines(out_clamp, out_fmt)
        lines.append("")

    if frac > 0:
        lines += [
            "def _mul(a, b):",
            f"    return _clamp((a * b + {1 << (frac - 1)}) >> {frac})",
        ]
    else:
        lines += [
            "def _mul(a, b):",
            "    return _clamp(a * b)",
        ]
    lines.append("")

    diff = frac - out_fmt.frac_bits
    lines.append("def _out(r):")
    if diff > 0:
        lines.append(
            f"    return {out_clamp}((r + {1 << (diff - 1)}) >> {diff})")
    elif diff < 0:
        lines.append(f"    return {out_clamp}(r << {-diff})")
    else:
        lines.append(f"    return {out_clamp}(r)")
    lines.append("")

    args = ", ".join(rename[name] for name in kernel.inputs)
    lines.append(f"def run_raw({args}):")
    for name in kernel.inputs:
        lines.append(f"    {rename[name]} = _clamp({rename[name]})")
    for instr in kernel.instructions:
        if instr.op == "const":
            raw = Fixed.from_fraction(instr.args[0], fmt).raw
            lines.append(f"    {instr.dest} = {raw}")
        else:
            a = rename.get(instr.args[0], instr.args[0])
            b = rename.get(instr.args[1], instr.args[1])
            if instr.op == "add":
                lines.append(f"    {instr.dest} = _clamp({a} + {b})")
            else:
                lines.append(f"    {instr.dest} = _mul({a}, {b})")
    results = ", ".join(
        f"_out({rename.get(value, value)})" for _name, value in kernel.outputs)
    lines.append(f"    return ({results},)")
    lines.append("")

    lines.append("def run(env):")
    for name in kernel.inputs:
        lines.append(
            f"    {rename[name]} = _clamp(floor(float(env[{name!r}]) "
            f"* {fmt.scale} + 0.5))")
    lines.append(f"    _raws = run_raw({args})")
    pairs = ", ".join(
        f"{name!r}: _raws[{i}] / {out_fmt.scale}"
        for i, (name, _value) in enumerate(kernel.outputs))
    lines.append(f"    return {{{pairs}}}")
    lines.append("")
    return "\n".join(lines)


def _emit_float(
    kernel: LoweredKernel, in_fmt: NumericFormat, out_fmt: NumericFormat
) -> str:
    single = in_fmt.kind == "float32"
    rename = {name: f"x{i}" for i, name in enumerate(kernel.inputs)}
    lines = [
        f'"""Generated {in_fmt.kind} kernel {kernel.name!r}.',
        "",
        "Generated by repro.codegen.pysource -- do not edit.",
        '"""',
        "",
    ]
    if single or out_fmt.kind == "float32":
        lines += [
            "import struct",
            "",
            "def _f32(v):",
            "    try:",
            "        return struct.unpack('<f', struct.pack('<f', v))[0]",
            "    except OverflowError:",
            "        return float('inf') if v > 0 else float('-inf')",
            "",
        ]
    op = (lambda s: f"_f32({s})") if single else (lambda s: s)
    out = (lambda s: f"_f32({s})") if out_fmt.kind == "float32" else (lambda s: s)

    lines.append("def run(env):")
    for name in kernel.inputs:
        lines.append(
            f"    {rename[name]} = {op(f'float(env[{name!r}])')}")
    for instr in kernel.instructions:
        if instr.op == "const":
            value = float(instr.args[0])
            if single:
                value = to_float32(value)
            lines.append(f"    {instr.dest} = {_float_literal(value)}")
        else:
            a = rename.get(instr.args[0], instr.args[0])
            b = rename.get(instr.args[1], instr.args[1])
            sign = "+" if instr.op == "add" else "*"
            lines.append(f"    {instr.dest} = {op(f'{a} {sign} {b}')}")
    pairs = ", ".join(
        f"{name!r}: {out(rename.get(value, value))}"
        for name, value in kernel.outputs)
    lines.append(f"    return {{{pairs}}}")
    lines.append("")
    return "\n".join(lines)


def emit_python(
    kernel: LoweredKernel, in_fmt: NumericFormat, out_fmt: NumericFormat
) -> str:
    """Emit a kernel as standalone Python module source.

    Fixed formats produce ``run_raw`` (raw-integer entry point) and
    ``run`` (float facade); float formats produce ``run`` only.  The
    emitted arithmetic is bit-identical to
    :func:`repro.codegen.fixedpt.interpret`.
    """
    qformats = _fixed_formats(in_fmt, out_fmt)
    if qformats is not None:
        return _emit_fixed(kernel, *qformats)
    return _emit_float(kernel, in_fmt, out_fmt)


def compile_kernel(
    kernel: LoweredKernel, in_fmt: NumericFormat, out_fmt: NumericFormat
) -> CompiledKernel:
    """Plan a kernel for NumPy under the given formats (no source is
    emitted or compiled)."""
    qformats = _fixed_formats(in_fmt, out_fmt)
    if qformats is not None:
        arithmetic = _FixedArithmetic(*qformats)
    else:
        arithmetic = _FloatArithmetic(in_fmt, out_fmt)
    return CompiledKernel(kernel, in_fmt, out_fmt, arithmetic,
                          *_plan(kernel, arithmetic))
