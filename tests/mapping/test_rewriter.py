"""Tests for the code rewriter."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from repro.library import Library, LibraryElement
from repro.mapping import decompose, rewrite
from repro.platform import Badge4, OperationTally, platform_named
from repro.symalg import Polynomial, symbols

from .test_search_reference import golden_cases

x, y = symbols("x y")
PLATFORM = Badge4()


def demo_library():
    i0 = Polynomial.variable("in0")
    i1 = Polynomial.variable("in1")
    return Library("demo", [LibraryElement(
        name="sq2y", library="IH", polynomials=(i0 ** 2 - 2 * i1,),
        input_format="q", output_format="q", accuracy=1e-6,
        cost=OperationTally(int_mul=1, int_alu=1))])


@pytest.fixture(scope="module")
def mapped_program():
    target = x + x ** 3 * y ** 2 - 2 * x * y ** 3
    result = decompose(target, demo_library(), PLATFORM)
    return rewrite(result.best, name="optimized"), target


def _run(source: str):
    namespace: dict = {}
    exec(compile(source, "<mapped>", "exec"), namespace)
    return namespace["run"]


class TestSource:
    def test_source_structure(self, mapped_program):
        program, _ = mapped_program
        assert "'optimized'" in program.source.splitlines()[0]
        assert "def run(env):" in program.source
        assert program.source.rstrip().splitlines()[-1].startswith(
            "    return {'out': ")

    def test_inputs_sorted(self, mapped_program):
        program, _ = mapped_program
        assert program.inputs == ("x", "y")

    def test_source_is_valid_python(self, mapped_program):
        program, target = mapped_program
        env = {"x": 3, "y": 2}
        assert _run(program.source)(env) == {"out": float(target.evaluate(env))}

    def test_source_runs_in_double_precision(self, mapped_program):
        program, target = mapped_program
        out = _run(program.source)({"x": 0.5, "y": 0.25})["out"]
        assert isinstance(out, float)
        exact = target.evaluate({"x": Fraction(1, 2), "y": Fraction(1, 4)})
        assert out == pytest.approx(float(exact), rel=1e-12)

    def test_kernel_is_named_for_the_program(self, mapped_program):
        program, _ = mapped_program
        assert program.kernel.name == "optimized"
        assert program.kernel.output_names == ("out",)


class TestEvaluation:
    def test_polynomial_semantics(self, mapped_program):
        program, target = mapped_program
        for px, py in [(0, 0), (1, 2), (-3, 5)]:
            env = {"x": px, "y": py}
            assert program.evaluate(env) == target.evaluate(env)

    def test_evaluate_is_exact(self, mapped_program):
        program, target = mapped_program
        env = {"x": Fraction(1, 3), "y": Fraction(-2, 5)}
        value = program.evaluate(env)
        assert isinstance(value, Fraction)
        assert value == target.evaluate(env)


def test_importing_mapping_loads_no_codegen_module():
    """``rewrite`` imports the codegen package when it is called, so
    importing the mapping layer (and the API over it) stays as light
    as before mapped programs lowered through the IR."""
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    code = ("import sys, repro.api, repro.mapping; "
            "print(sorted(m for m in sys.modules if m.startswith('repro.codegen')))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


#: The golden covers that reproduce their target exactly; the other two
#: use an element within the Taylor cases' accuracy budget.
EXACT_COVERS = {"paper_side_relation", "cube_difference", "taylor_sin",
                "taylor_log1p", "sq2y_demo"}


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_mapped_program_runs_the_cover(name):
    """A cover runs from the target's own variables; a chained step reads
    the value of the step it names, not a parameter.  Exactly, the
    program is the residual with each step's bound polynomial
    substituted back in (last step first), and the emitted float64
    module agrees with it."""
    target, library, budget = golden_cases()[name]
    solution = decompose(target, library, platform_named("SA-1110"),
                         accuracy_budget=budget).best
    program = rewrite(solution)
    assert program.inputs == target.variables

    substituted = solution.residual
    for step in reversed(solution.steps):
        substituted = substituted.substitute(
            {step.output_symbol: step.bound_polynomial()})
    run = _run(program.source)
    rng = random.Random(2002)
    for _ in range(20):
        env = {v: Fraction(rng.randint(-50, 50), rng.randint(1, 20))
               for v in target.variables}
        value = program.evaluate(env)
        assert value == substituted.evaluate(env)
        if name in EXACT_COVERS:
            assert value == target.evaluate(env)
        assert abs(run(env)["out"] - value) <= 1e-9 * max(1, abs(value))
