"""Tests for the code rewriter."""

import pytest

from repro.library import Library, LibraryElement
from repro.mapping import decompose, rewrite
from repro.platform import Badge4, OperationTally
from repro.symalg import Polynomial, symbols

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


class TestSource:
    def test_source_structure(self, mapped_program):
        program, _ = mapped_program
        lines = program.source.splitlines()
        assert lines[0] == "def optimized(x, y):"
        assert any("sq2y(" in line for line in lines)
        assert lines[-1].strip().startswith("return ")

    def test_inputs_sorted(self, mapped_program):
        program, _ = mapped_program
        assert program.inputs == ("x", "y")

    def test_source_is_valid_python(self, mapped_program):
        program, _ = mapped_program
        namespace = {"sq2y": lambda a, b: a * a - 2 * b}
        exec(program.source, namespace)
        fn = namespace["optimized"]
        assert fn(3, 2) == (lambda a, b: a + a**3*b**2 - 2*a*b**3)(3, 2)


class TestEvaluation:
    def test_polynomial_semantics(self, mapped_program):
        program, target = mapped_program
        for px, py in [(0, 0), (1, 2), (-3, 5)]:
            env = {"x": px, "y": py}
            assert program.evaluate(env) == target.evaluate(env)

    def test_kernel_override(self, mapped_program):
        program, target = mapped_program
        calls = []

        def kernel(a, b):
            calls.append((a, b))
            return a * a - 2 * b

        env = {"x": 2, "y": 1}
        got = program.evaluate(env, kernels={"sq2y": kernel})
        assert got == target.evaluate(env)
        assert calls == [(2, 1)]
