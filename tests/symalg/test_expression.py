"""Tests for expression trees."""

import math
from fractions import Fraction

import pytest

from repro.errors import SymbolicError
from repro.symalg import (Add, Call, Const, Mul, OpCount, Pow,
                          Var, const, flatten, symbols, to_source, var)

x_p, y_p = symbols("x y")


class TestEvaluation:
    def test_arithmetic(self):
        e = (var("x") + 2) * var("y")
        assert e.evaluate({"x": 3, "y": 4}) == 20

    def test_pow(self):
        e = Pow(var("x"), 3)
        assert e.evaluate({"x": 2}) == 8

    def test_call_with_function_table(self):
        e = Call("exp", (var("x"),))
        assert e.evaluate({"x": 1.0}, {"exp": math.exp}) == pytest.approx(math.e)

    def test_call_without_function_raises(self):
        e = Call("mystery", (var("x"),))
        with pytest.raises(SymbolicError):
            e.evaluate({"x": 1.0})

    def test_unbound_variable_raises(self):
        with pytest.raises(SymbolicError):
            var("q").evaluate({})


class TestToPolynomial:
    def test_simple(self):
        e = (var("x") + 1) * (var("x") - 1)
        assert e.to_polynomial() == x_p ** 2 - 1

    def test_pow(self):
        assert Pow(var("x"), 4).to_polynomial() == x_p ** 4

    def test_call_strict_raises(self):
        with pytest.raises(SymbolicError):
            Call("exp", (var("x"),)).to_polynomial()


class TestOpCount:
    def test_add_chain(self):
        e = Add((var("a"), var("b"), var("c")))
        assert e.op_count() == OpCount(adds=2)

    def test_mixed(self):
        e = Mul((var("a"), Add((var("b"), const(1)))))
        count = e.op_count()
        assert count.muls == 1
        assert count.adds == 1

    def test_pow_counts_repeated_muls(self):
        assert Pow(var("x"), 5).op_count().muls == 4

    def test_call_counts_one_call(self):
        e = Call("exp", (Add((var("x"), const(1))),))
        count = e.op_count()
        assert count.calls == 1
        assert count.adds == 1

    def test_total(self):
        assert OpCount(adds=1, muls=2, divs=3, calls=4).total() == 10


class TestStructure:
    def test_empty_add_raises(self):
        with pytest.raises(SymbolicError):
            Add(())


class TestFlatten:
    def test_nested_adds_merge(self):
        e = Add((Add((var("a"), var("b"))), var("c")))
        flat = flatten(e)
        assert isinstance(flat, Add)
        assert len(flat.args) == 3

    def test_constants_fold(self):
        e = Add((const(1), var("x"), const(2)))
        flat = flatten(e)
        assert flat.to_polynomial() == x_p + 3
        consts = [a for a in flat.args if isinstance(a, Const)]
        assert len(consts) == 1
        assert consts[0].value == 3

    def test_nested_constant_folds_through(self):
        e = Add((Add((const(1), const(2))), const(3)))
        assert flatten(e) == Const(Fraction(6))

    def test_mul_by_zero(self):
        e = Mul((const(0), var("x")))
        assert flatten(e) == Const(Fraction(0))

    def test_mul_identity_removed(self):
        e = Mul((const(1), var("x")))
        assert flatten(e) == Var("x")

    def test_pow_zero_one(self):
        assert flatten(Pow(var("x"), 0)) == Const(Fraction(1))
        assert flatten(Pow(var("x"), 1)) == Var("x")

    def test_const_pow_folds(self):
        assert flatten(Pow(const(3), 2)) == Const(Fraction(9))


class TestFormatting:
    def test_minimal_parens(self):
        e = Add((Mul((const(2), var("x"))), const(1)))
        assert to_source(e) == "2 * x + 1"

    def test_mul_of_add_parenthesized(self):
        e = Mul((Add((var("x"), const(1))), var("y")))
        assert to_source(e) == "(x + 1) * y"

    def test_negative_terms_render_as_subtraction(self):
        e = Add((var("x"), Mul((const(-1), var("y")))))
        assert to_source(e) == "x - y"

    def test_pow_rendering(self):
        assert to_source(Pow(var("x"), 3)) == "x^3"

    def test_pow_of_sum(self):
        assert to_source(Pow(Add((var("x"), const(1))), 2)) == "(x + 1)^2"

    def test_call_rendering(self):
        assert to_source(Call("exp", (var("x"),))) == "exp(x)"

    def test_fraction_constant_in_product(self):
        e = Mul((const(Fraction(1, 2)), var("x")))
        assert to_source(e) == "(1/2) * x"


class TestOperatorSugar:
    def test_sub(self):
        e = var("x") - 1
        assert e.to_polynomial() == x_p - 1

    def test_rsub(self):
        e = 1 - var("x")
        assert e.to_polynomial() == 1 - x_p

    def test_neg(self):
        assert (-var("x")).to_polynomial() == -x_p

    def test_pow_sugar(self):
        assert (var("x") ** 3).to_polynomial() == x_p ** 3

    def test_bad_operand_raises(self):
        with pytest.raises(SymbolicError):
            var("x") + "nope"  # type: ignore[operator]
