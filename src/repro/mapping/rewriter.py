"""Code rewriting: a mapping solution back to executable source.

The output of ``Decompose`` is algebra (elements + residual); what the
designer ships is *code*.  The rewriter emits a small Python function
that calls the chosen library elements and combines their outputs with
the Horner form of the residual — and, for verification, can evaluate
the mapped program against the original polynomial at arbitrary
points (the semantic-equivalence check our tests rely on).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

from repro.errors import MappingError
from repro.mapping.decompose import MappingSolution
from repro.symalg.expression import to_source
from repro.symalg.horner import horner

__all__ = ["MappedProgram", "rewrite"]


@dataclass(frozen=True)
class MappedProgram:
    """Executable form of a mapping solution."""

    name: str
    solution: MappingSolution
    source: str
    inputs: tuple[str, ...]

    def evaluate(
        self,
        env: Mapping[str, Fraction | float],
        kernels: Mapping[str, Callable] | None = None,
    ):
        """Run the mapped program.

        Element calls are computed from their *bound polynomials* by
        default (exact semantics); pass ``kernels`` to use real
        implementations instead (e.g. fixed-point ones) and observe
        accuracy loss.
        """
        values: dict[str, Fraction | float] = dict(env)
        for step in self.solution.steps:
            symbol = step.output_symbol
            if kernels is not None and step.element.name in kernels:
                args = [env[actual] for _formal, actual in step.binding]
                values[symbol] = kernels[step.element.name](*args)
            else:
                values[symbol] = step.bound_polynomial().evaluate(env)
        return self.solution.residual.evaluate(values)


def rewrite(solution: MappingSolution, name: str = "mapped") -> MappedProgram:
    """Emit source for a mapping solution."""
    inputs = _program_inputs(solution)
    lines = [f"def {name}({', '.join(inputs)}):"]
    if not solution.steps and solution.residual.is_zero():
        lines.append("    return 0")
    for step in solution.steps:
        args = ", ".join(actual for _formal, actual in step.binding)
        lines.append(f"    {step.output_symbol} = {step.element.name}({args})")
    residual_expr = horner(solution.residual)
    lines.append(f"    return {to_source(residual_expr)}")
    source = "\n".join(lines)
    return MappedProgram(name, solution, source, inputs)


def _program_inputs(solution: MappingSolution) -> tuple[str, ...]:
    names: set[str] = set()
    for step in solution.steps:
        names.update(actual for _f, actual in step.binding)
    symbols = {step.output_symbol for step in solution.steps}
    names.update(set(solution.residual.variables) - symbols)
    if not names:
        raise MappingError("mapped program has no inputs at all")
    return tuple(sorted(names))
