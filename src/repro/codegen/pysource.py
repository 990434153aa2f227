"""Emitting lowered kernels as standalone pure-Python source.

The interpreter in :mod:`repro.codegen.fixedpt` is the numeric
reference but pays Python object overhead per op.  This module emits
the same computation as flat Python source — raw-integer arithmetic
with the format's rounding, saturation and output conversion inlined
as literals — and compiles it with :func:`exec`.  The emitted code is
**pinned bit-identical** to the interpreter (the property suite in
``tests/codegen/test_parity.py`` enforces this over random kernels),
so the fast path is a pure speedup, never a semantic fork.

Emitted modules are dependency-free (``math.floor`` and ``struct``
only) and human-readable: one line per IR instruction, all format
parameters baked in.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.codegen.fixedpt import NumericFormat, to_float32
from repro.codegen.lower import LoweredKernel
from repro.errors import CodegenError
from repro.fixedpoint import Fixed, QFormat

__all__ = ["CompiledKernel", "emit_python", "compile_kernel"]


@dataclass(frozen=True)
class CompiledKernel:
    """A kernel compiled from emitted source.

    ``run(env)`` maps real-valued inputs (by name) to real-valued
    outputs.  ``run_raw(*raws)`` is the fixed-point fast path over raw
    integers (``None`` for float formats).
    """

    kernel: LoweredKernel
    source: str
    run: Callable[[Mapping[str, float]], dict[str, float]]
    run_raw: "Callable[..., tuple[int, ...]] | None" = field(default=None)


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
    for which, f in (("input", fmt), ("output", out_fmt)):
        if f.overflow == "raise":
            raise CodegenError(
                f"cannot emit Python for {which} format {f} with "
                f"overflow='raise'; use the interpreter for debugging")

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

    Fixed formats produce ``run_raw`` (raw-integer fast path) and
    ``run`` (float facade); float formats produce ``run`` only.  The
    emitted arithmetic is bit-identical to
    :func:`repro.codegen.fixedpt.interpret`.
    """
    if in_fmt.is_fixed != out_fmt.is_fixed:
        raise CodegenError(
            f"mixed fixed/float binding ({in_fmt.name!r} -> "
            f"{out_fmt.name!r}) is not supported")
    if in_fmt.is_fixed:
        return _emit_fixed(kernel, in_fmt.qformat, out_fmt.qformat)
    return _emit_float(kernel, in_fmt, out_fmt)


def compile_kernel(
    kernel: LoweredKernel, in_fmt: NumericFormat, out_fmt: NumericFormat
) -> CompiledKernel:
    """Emit, ``exec`` and wrap a kernel for direct calling."""
    source = emit_python(kernel, in_fmt, out_fmt)
    namespace: dict = {}
    exec(compile(source, f"<codegen:{kernel.name}>", "exec"), namespace)
    return CompiledKernel(
        kernel=kernel,
        source=source,
        run=namespace["run"],
        run_raw=namespace.get("run_raw"),
    )
