"""Lowering to three-address IR: scheduling, CSE, error paths."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from repro.codegen.fixedpt import interpret, parse_format
from repro.codegen.lower import (
    Instr,
    block_inputs,
    lower_block,
    lower_expressions,
    lower_match,
    lower_polynomials,
    lower_solution,
)
from repro.codegen.pysource import compile_kernel
from repro.errors import CodegenError
from repro.frontend import SymbolicInput, extract_block
from repro.library import LibraryElement, full_library
from repro.mapping import Instantiation, MappingSolution
from repro.platform import OperationTally
from repro.symalg import Polynomial, horner, symbols
from repro.symalg.expression import Var
from repro.workload import workload_named

from ..symalg.strategies import VARIABLES, evaluation_points, nonzero_polynomials

x, y, z = symbols("x y z")

_IN = [Polynomial.variable(f"in{i}") for i in range(3)]
MAC = LibraryElement(
    name="mac", library="IH", polynomials=(_IN[0] * _IN[1] + _IN[2],),
    input_format="q", output_format="q", accuracy=1e-6,
    cost=OperationTally(int_mul=1, int_alu=1))


def _mapped(block_name="inv_mdctL"):
    from repro.api import MappingSession, SessionConfig

    block = workload_named("mp3").methodology_blocks()[block_name]
    result = MappingSession(SessionConfig()).map(block, full_library())
    return block, result.winner, list(result.matches)


class TestInstr:
    def test_str_binary(self):
        assert str(Instr("t0", "mul", ("x", "x"))) == "t0 = mul x x"

    def test_str_const(self):
        assert str(Instr("t1", "const", (Fraction(3),))) == "t1 = const 3"


class TestLowerPolynomials:
    def test_horner_square_plus_constant(self):
        kernel = lower_polynomials(
            "sq", {"out": x**2 + 3}, ("x",))
        assert [str(i) for i in kernel.instructions] == [
            "t0 = mul x x",
            "t1 = const 3",
            "t2 = add t0 t1",
        ]
        assert kernel.outputs == (("out", "t2"),)
        assert kernel.output_names == ("out",)

    def test_identity_output_is_the_input_name(self):
        kernel = lower_polynomials(
            "idy", {"out": x}, ("x",))
        assert kernel.instructions == ()
        assert kernel.outputs == (("out", "x"),)

    def test_cse_shares_identical_rows(self):
        poly = x**2 + 1
        kernel = lower_polynomials(
            "twin", {"a": poly, "b": poly}, ("x",))
        # Both outputs resolve to the same value name: one computation.
        assert kernel.outputs[0][1] == kernel.outputs[1][1]

    def test_cse_shares_repeated_constants(self):
        kernel = lower_polynomials(
            "consts",
            {"a": x + 5, "b": y + 5},
            ("x", "y"))
        assert kernel.op_counts()["const"] == 1

    def test_op_counts(self):
        kernel = lower_polynomials(
            "sq", {"out": x**2 + 3}, ("x",))
        assert kernel.op_counts() == {"const": 1, "add": 1, "mul": 1}

    def test_str_renders_kernel(self):
        kernel = lower_polynomials(
            "sq", {"out": x**2 + 3}, ("x",))
        text = str(kernel)
        assert text.startswith("kernel sq(x):")
        assert "out <- t2" in text

    def test_deterministic_across_lowerings(self):
        mk = lambda: lower_polynomials(  # noqa: E731
            "p", {"out": 3*x**2*y + 2*x*y + y + 7}, ("x", "y"))
        assert str(mk()) == str(mk())


class TestLowerExpressions:
    def test_pow_lowers_to_repeated_multiplication(self):
        kernel = lower_expressions("p4", {"out": horner(x**4)}, ("x",))
        assert [i.op for i in kernel.instructions] == ["mul"] * 3

    def test_pow_zero_is_const_one(self):
        kernel = lower_expressions("one", {"out": horner(x**0)}, ("x",))
        assert kernel.instructions == (
            Instr("t0", "const", (Fraction(1),)),)

    def test_unknown_variable_raises(self):
        with pytest.raises(CodegenError, match="not a .*kernel input"):
            lower_expressions("bad", {"out": Var("y")}, ("x",))


class TestEvaluate:
    def test_arithmetic(self):
        kernel = lower_polynomials("p", {"out": (x + 2) * y}, ("x", "y"))
        assert kernel.evaluate({"x": 3, "y": 4}) == {"out": 20}

    def test_powers_are_exact(self):
        kernel = lower_polynomials("cube", {"out": x**3}, ("x",))
        value = kernel.evaluate({"x": Fraction(3, 2)})["out"]
        assert isinstance(value, Fraction)
        assert value == Fraction(27, 8)

    def test_missing_input_raises(self):
        kernel = lower_polynomials("p", {"out": x * y}, ("x", "y"))
        with pytest.raises(KeyError, match="y"):
            kernel.evaluate({"x": 1})

    def test_every_output_is_returned(self):
        kernel = lower_polynomials(
            "two", {"a": x + 1, "b": x * y}, ("x", "y"))
        assert kernel.evaluate({"x": 2, "y": 5}) == {"a": 3, "b": 10}

    def test_identity_output_reads_the_input(self):
        kernel = lower_polynomials("idy", {"out": x}, ("x",))
        assert kernel.evaluate({"x": Fraction(-7, 3)}) == {"out": Fraction(-7, 3)}

    @settings(max_examples=40, deadline=None)
    @given(nonzero_polynomials(max_terms=5), evaluation_points)
    def test_lowered_polynomial_evaluates_identically(self, p, point):
        kernel = lower_polynomials("p", {"out": p}, VARIABLES)
        assert kernel.evaluate(point)["out"] == p.evaluate(point)


def _temp_named_kernels():
    t0, t1 = symbols("t0 t1")
    block = extract_block("def k(t0, t1):\n    return t0 * t1 + t0\n",
                          [SymbolicInput("t0"), SymbolicInput("t1")])
    return [lower_polynomials("k", {"out": t0 * t1 + t0}, ("t0", "t1")),
            lower_block(block)]


@pytest.mark.parametrize("kernel", _temp_named_kernels(),
                         ids=["polynomial", "extracted_block"])
def test_inputs_named_like_temporaries_are_not_overwritten(kernel):
    """Temporaries skip names in scope: at (2, 3), t0*t1 + t0 is 8."""
    double = parse_format("double")
    (out,) = kernel.output_names
    assert kernel.evaluate({"t0": 2, "t1": 3})[out] == 8
    assert interpret(kernel, double, double, {"t0": 2, "t1": 3})[out] == 8.0
    compiled = compile_kernel(kernel, double, double)
    assert compiled.run({"t0": 2.0, "t1": 3.0})[out] == 8.0


class TestLowerBlock:
    def test_block_inputs_natural_order(self):
        block = workload_named("mp3").methodology_blocks()["SubBandSynthesis"]
        inputs = block_inputs(block)
        assert len(inputs) == len(set(inputs))
        # natural sort: s_2 before s_10
        assert inputs.index("s_2") < inputs.index("s_10")

    def test_lower_block_covers_all_outputs(self):
        block = workload_named("mp3").methodology_blocks()["inv_mdctL"]
        kernel = lower_block(block)
        assert set(kernel.output_names) == set(block.outputs)
        assert kernel.name == block.name


class TestLowerMatch:
    def test_kernel_name_joins_block_and_element(self):
        block, winner, _ = _mapped()
        kernel = lower_match(block, winner)
        assert kernel.name == f"{block.name}__{winner.element.name}"
        assert kernel.inputs == block_inputs(block)
        assert len(kernel.outputs) == len(block.outputs)

    def test_output_arity_mismatch_raises(self):
        block, winner, _ = _mapped()
        other = workload_named("mp3").methodology_blocks()["SubBandSynthesis"]
        with pytest.raises(CodegenError, match="outputs"):
            lower_match(other, winner)


def _mac(in0, in1, in2, tag=""):
    return Instantiation(MAC, (("in0", in0), ("in1", in1), ("in2", in2)), tag=tag)


def _cover(steps, residual):
    return MappingSolution(tuple(steps), residual, 0.0, 0.0, 0.0)


class TestLowerSolution:
    def test_chained_step_reads_the_earlier_value(self):
        first = _mac("x", "x", "y")  # mac_out = x^2 + y
        second = _mac(first.output_symbol, "x", "x", tag="1")
        residual = Polynomial.variable(second.output_symbol) * y
        kernel = lower_solution(_cover([first, second], residual), "chain")
        assert kernel.name == "chain"
        assert kernel.inputs == ("x", "y")
        assert kernel.output_names == ("out",)
        read = {arg for instr in kernel.instructions for arg in instr.args}
        assert not read & {"mac_out", "mac_out_1"}
        # ((3*3 + 2)*3 + 3)*2
        assert kernel.evaluate({"x": 3, "y": 2}) == {"out": 72}

    def test_a_variable_only_the_residual_reads_is_an_input(self):
        step = _mac("x", "x", "x")
        residual = Polynomial.variable(step.output_symbol) * z
        kernel = lower_solution(_cover([step], residual), "k")
        assert kernel.inputs == ("x", "z")

    def test_no_steps_lowers_the_residual_alone(self):
        p = 3*x**2*y + 2*x*y + y + 7
        kernel = lower_solution(_cover([], p), "p")
        assert str(kernel) == str(lower_polynomials("p", {"out": p}, ("x", "y")))

    def test_residual_that_is_a_step_output_adds_nothing(self):
        step = _mac("x", "y", "x")
        kernel = lower_solution(
            _cover([step], Polynomial.variable(step.output_symbol)), "k")
        alone = lower_polynomials("k", {"out": step.bound_polynomial()}, ("x", "y"))
        assert kernel.instructions == alone.instructions
        assert kernel.outputs == alone.outputs

    def test_cse_spans_steps_and_residual(self):
        step = _mac("x", "x", "y")  # computes x*x
        residual = Polynomial.variable(step.output_symbol) + x**2
        kernel = lower_solution(_cover([step], residual), "k")
        assert kernel.op_counts()["mul"] == 1
        assert kernel.evaluate({"x": 3, "y": 2}) == {"out": 20}
