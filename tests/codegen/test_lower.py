"""Lowering to three-address IR: scheduling, CSE, error paths."""

from fractions import Fraction

import pytest

from repro.codegen.lower import (
    Instr,
    block_inputs,
    lower_block,
    lower_expressions,
    lower_match,
    lower_polynomials,
)
from repro.errors import CodegenError
from repro.library import full_library
from repro.symalg import symbols
from repro.symalg.expression import Call, Var
from repro.workload import workload_named

x, y = symbols("x y")


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
        kernel = lower_expressions("p4", {"out": Var("x") ** 4}, ("x",))
        assert [i.op for i in kernel.instructions] == ["mul"] * 3

    def test_pow_zero_is_const_one(self):
        kernel = lower_expressions(
            "one", {"out": Var("x") ** 0}, ("x",))
        assert kernel.instructions == (
            Instr("t0", "const", (Fraction(1),)),)

    def test_unknown_variable_raises(self):
        with pytest.raises(CodegenError, match="not a .*kernel input"):
            lower_expressions("bad", {"out": Var("y")}, ("x",))

    def test_call_nodes_have_no_lowering(self):
        with pytest.raises(CodegenError, match="cannot lower Call"):
            lower_expressions(
                "bad", {"out": Call("sin", Var("x"))}, ("x",))


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
