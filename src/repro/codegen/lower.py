"""Lowering mapped blocks and covers to a linear three-address IR.

The paper's output is *code*: each mapped block either becomes a call
into a complex library element or residual polynomial arithmetic.
This module turns both kinds of answer into the same executable
currency — a flat list of three-address instructions over SSA-style
value names — so the fixed-point binder (:mod:`repro.codegen.fixedpt`)
and the Python emitter (:mod:`repro.codegen.pysource`) share one input
shape.  A block match lowers through :func:`lower_match`, a Decompose
cover through :func:`lower_solution`.

Scheduling reuses :func:`repro.symalg.horner.horner`: every output
polynomial is nested into its Horner form over the block's natural
input order (the minimal-multiplication nesting the cost model already
prices), then walked bottom-up with structural common-subexpression
elimination, so repeated powers and shared subterms are computed once.

The IR is deliberately tiny — ``const``, ``add``, ``mul`` — because
that is the whole operation set of a Horner form (powers are repeated
multiplication).  :meth:`LoweredKernel.evaluate` gives it its exact
meaning in ``Fraction`` arithmetic.

>>> from repro.symalg.polynomial import Polynomial
>>> x = Polynomial.variable("x")
>>> kernel = lower_polynomials("sq", {"out": x**2 + 3}, ("x",))
>>> for instr in kernel.instructions:
...     print(instr)
t0 = mul x x
t1 = const 3
t2 = add t0 t1
>>> kernel.outputs
(('out', 't2'),)
>>> kernel.evaluate({"x": 2})
{'out': Fraction(7, 1)}
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from repro.errors import CodegenError
from repro.frontend.extract import TargetBlock
from repro.mapping.decompose import MappingSolution
from repro.mapping.match import BlockMatch, _natural_key
from repro.symalg.expression import Add, Const, Expression, Mul, Var
from repro.symalg.horner import horner
from repro.symalg.polynomial import Polynomial, Scalar

__all__ = [
    "Instr",
    "LoweredKernel",
    "lower_expressions",
    "lower_polynomials",
    "lower_block",
    "lower_match",
    "lower_solution",
    "block_inputs",
]


@dataclass(frozen=True)
class Instr:
    """One three-address instruction.

    ``op`` is ``"const"`` (``args`` is a 1-tuple holding the exact
    :class:`~fractions.Fraction`), ``"add"`` or ``"mul"`` (``args``
    names the two operands — inputs or earlier destinations).
    """

    dest: str
    op: str
    args: tuple

    def __str__(self) -> str:
        if self.op == "const":
            return f"{self.dest} = const {self.args[0]}"
        return f"{self.dest} = {self.op} {self.args[0]} {self.args[1]}"


@dataclass(frozen=True)
class LoweredKernel:
    """A lowered block: straight-line code from inputs to named outputs.

    ``outputs`` pairs each output name with the value name holding its
    result (a temporary, an input, or a constant's destination —
    identical rows share one value, the CSE guarantee).
    """

    name: str
    inputs: tuple[str, ...]
    instructions: tuple[Instr, ...]
    outputs: tuple[tuple[str, str], ...]

    @property
    def output_names(self) -> tuple[str, ...]:
        return tuple(name for name, _value in self.outputs)

    def op_counts(self) -> dict[str, int]:
        """``{"const": c, "add": a, "mul": m}`` over the instruction list."""
        counts = {"const": 0, "add": 0, "mul": 0}
        for instr in self.instructions:
            counts[instr.op] += 1
        return counts

    def evaluate(self, env: Mapping[str, Scalar]) -> dict[str, Fraction]:
        """Run the instructions exactly, in ``Fraction`` arithmetic, from
        the inputs' values in ``env``; ``{output name: value}``."""
        values = {name: Fraction(env[name]) for name in self.inputs}
        for instr in self.instructions:
            if instr.op == "const":
                values[instr.dest] = instr.args[0]
            else:
                a, b = (values[arg] for arg in instr.args)
                values[instr.dest] = a + b if instr.op == "add" else a * b
        return {name: values[value] for name, value in self.outputs}

    def __str__(self) -> str:
        lines = [f"kernel {self.name}({', '.join(self.inputs)}):"]
        lines += [f"  {instr}" for instr in self.instructions]
        lines += [f"  {name} <- {value}" for name, value in self.outputs]
        return "\n".join(lines)


class _Lowerer:
    """Bottom-up expression walker with structural CSE.

    ``names`` maps each variable an expression may read to the value
    name holding it: the kernel inputs hold themselves, and a cover's
    step output symbols are added as the steps are lowered.
    """

    def __init__(self, inputs: Sequence[str]):
        self.names = {name: name for name in inputs}
        self.instructions: list[Instr] = []
        self._memo: dict[tuple, str] = {}
        self._temps = 0

    def _emit(self, op: str, args: tuple) -> str:
        key = (op,) + args
        hit = self._memo.get(key)
        if hit is not None:
            return hit
        # Temporaries are t0, t1, ..., skipping any name in scope: an
        # input called ``t0`` must not be overwritten by a temporary.
        while (dest := f"t{self._temps}") in self.names:
            self._temps += 1
        self._temps += 1
        self.instructions.append(Instr(dest, op, args))
        self._memo[key] = dest
        return dest

    def _fold(self, op: str, args: Sequence[Expression]) -> str:
        names = [self.value(arg) for arg in args]
        acc = names[0]
        for name in names[1:]:
            acc = self._emit(op, (acc, name))
        return acc

    def value(self, expr: Expression) -> str:
        """The value name holding ``expr``, emitting instructions as needed."""
        if isinstance(expr, Const):
            return self._emit("const", (expr.value,))
        if isinstance(expr, Var):
            name = self.names.get(expr.name)
            if name is None:
                raise CodegenError(
                    f"expression reads {expr.name!r}, which is not a "
                    f"kernel input")
            return name
        if isinstance(expr, Add):
            return self._fold("add", expr.args)
        if isinstance(expr, Mul):
            return self._fold("mul", expr.args)
        raise CodegenError(f"cannot lower {type(expr).__name__} nodes")


def lower_expressions(
    name: str,
    outputs: "Mapping[str, Expression]",
    inputs: Sequence[str],
) -> LoweredKernel:
    """Lower already-scheduled expressions (one per output) to the IR.

    ``outputs`` iteration order fixes the kernel's output order;
    ``inputs`` fixes the calling convention.  All outputs share one
    CSE scope.
    """
    lowerer = _Lowerer(inputs)
    pairs = tuple((out, lowerer.value(expr)) for out, expr in outputs.items())
    return LoweredKernel(
        name=name,
        inputs=tuple(inputs),
        instructions=tuple(lowerer.instructions),
        outputs=pairs,
    )


def lower_polynomials(
    name: str,
    polynomials: "Mapping[str, Polynomial]",
    inputs: Sequence[str],
    variable_order: "Sequence[str] | None" = None,
) -> LoweredKernel:
    """Horner-schedule and lower one polynomial per output.

    Nesting priority defaults to the kernel's input order, so two
    lowerings of the same rows are instruction-identical.
    """
    order = tuple(variable_order) if variable_order is not None else tuple(inputs)
    exprs = {out: horner(poly, order) for out, poly in polynomials.items()}
    return lower_expressions(name, exprs, inputs)


def block_inputs(block: TargetBlock) -> tuple[str, ...]:
    """The block's unique input variables in natural order — the same
    positional convention :func:`repro.mapping.match.match_block` binds
    element formals against."""
    return tuple(sorted(dict.fromkeys(block.input_variables), key=_natural_key))


def _output_names(block: TargetBlock) -> list[str]:
    return sorted(block.outputs, key=_natural_key)


def lower_block(block: TargetBlock) -> LoweredKernel:
    """Lower a target block's own polynomials (the reference kernel)."""
    inputs = block_inputs(block)
    polys = {name: block.outputs[name] for name in _output_names(block)}
    return lower_polynomials(block.name, polys, inputs)


def lower_match(block: TargetBlock, match: BlockMatch) -> LoweredKernel:
    """Lower a mapped block: the matched element's rows over the block's
    variables.

    The element's polynomial rows are substituted through the match
    binding (formal -> block input) and paired positionally with the
    block's naturally-sorted output names — the exact pairing
    :func:`~repro.mapping.match.match_block` verified within
    coefficient tolerance.  This is the generated code's ground truth:
    what the kernel computes is the *element's* arithmetic, so measured
    error includes both the coefficient mismatch and the element's
    numeric format.
    """
    names = _output_names(block)
    element = match.element
    if element.n_outputs != len(names):
        raise CodegenError(
            f"element {element.name!r} has {element.n_outputs} outputs "
            f"but block {block.name!r} has {len(names)}")
    mapping = {
        formal: Polynomial.variable(actual) for formal, actual in match.binding
    }
    polys = {
        name: element.polynomials[index].substitute(mapping)
        for index, name in enumerate(names)
    }
    return lower_polynomials(
        f"{block.name}__{element.name}", polys, block_inputs(block)
    )


def lower_solution(solution: MappingSolution, name: str) -> LoweredKernel:
    """Lower a Decompose cover to one kernel with the single output
    ``out``.

    Each step's bound polynomial is lowered in application order, then
    the residual, all in one CSE scope.  A step's output symbol names
    the value that holds it, so a later step or the residual that reads
    the symbol reads that value.  The kernel's inputs are the cover's
    program variables, sorted; no element output is one.
    """
    polys = [step.bound_polynomial() for step in solution.steps]
    symbols = {step.output_symbol for step in solution.steps}
    used = {v for poly in polys + [solution.residual] for v in poly.variables}
    inputs = tuple(sorted(used - symbols))
    lowerer = _Lowerer(inputs)
    for step, poly in zip(solution.steps, polys):
        lowerer.names[step.output_symbol] = lowerer.value(horner(poly))
    out = lowerer.value(horner(solution.residual))
    return LoweredKernel(name, inputs, tuple(lowerer.instructions), (("out", out),))
