"""Code rewriting: a mapping solution back to executable code.

The output of ``Decompose`` is algebra (elements + residual); what the
designer ships is *code*.  :func:`rewrite` lowers a cover to the
three-address IR a block match also becomes
(:func:`repro.codegen.lower.lower_solution`): each step's element
polynomial over the values it reads, then the residual over the step
values.  The mapped program's meaning is that IR run exactly, and its
source is the IR emitted as a float64 Python module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping

from repro.mapping.decompose import MappingSolution

if TYPE_CHECKING:
    from repro.codegen.lower import LoweredKernel

__all__ = ["MappedProgram", "rewrite"]


@dataclass(frozen=True)
class MappedProgram:
    """Executable form of a mapping solution.

    ``source`` is a module whose ``run(env)`` returns ``{"out": value}``
    in double precision, the precision ``residual_cost`` prices.
    """

    name: str
    solution: MappingSolution
    kernel: LoweredKernel
    source: str

    @property
    def inputs(self) -> tuple[str, ...]:
        """The program variables the cover reads, sorted."""
        return self.kernel.inputs

    def evaluate(self, env: Mapping[str, Fraction | float]) -> Fraction:
        """Run the mapped program exactly, in ``Fraction`` arithmetic."""
        return self.kernel.evaluate(env)["out"]


def rewrite(solution: MappingSolution, name: str = "mapped") -> MappedProgram:
    """Lower a mapping solution and emit its source."""
    # Deferred, as in MappingSession.verify: importing repro.mapping
    # loads no codegen module.
    from repro.codegen import emit_python, lower_solution, parse_format

    kernel = lower_solution(solution, name)
    double = parse_format("double")
    return MappedProgram(name, solution, kernel, emit_python(kernel, double, double))
