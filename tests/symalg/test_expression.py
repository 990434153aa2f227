"""Tests for expression trees."""

from fractions import Fraction

import pytest

from repro.errors import SymbolicError
from repro.symalg import (Add, Const, Mul, OpCount, Var, flatten, symbols,
                          to_source)

x_p, y_p = symbols("x y")


def _const(value) -> Const:
    return Const(Fraction(value))


class TestToPolynomial:
    def test_arithmetic(self):
        e = Mul((Add((Var("x"), _const(2))), Var("y")))
        assert e.to_polynomial() == (x_p + 2) * y_p

    def test_simple(self):
        e = Mul((Add((Var("x"), _const(1))), Add((Var("x"), _const(-1)))))
        assert e.to_polynomial() == x_p ** 2 - 1


class TestOpCount:
    def test_add_chain(self):
        e = Add((Var("a"), Var("b"), Var("c")))
        assert e.op_count() == OpCount(adds=2)

    def test_mixed(self):
        e = Mul((Var("a"), Add((Var("b"), _const(1)))))
        count = e.op_count()
        assert count.muls == 1
        assert count.adds == 1

    def test_total(self):
        assert OpCount(adds=1, muls=2).total() == 3


class TestStructure:
    def test_empty_add_raises(self):
        with pytest.raises(SymbolicError):
            Add(())

    def test_empty_mul_raises(self):
        with pytest.raises(SymbolicError):
            Mul(())


class TestFlatten:
    def test_nested_adds_merge(self):
        e = Add((Add((Var("a"), Var("b"))), Var("c")))
        flat = flatten(e)
        assert isinstance(flat, Add)
        assert len(flat.args) == 3

    def test_constants_fold(self):
        e = Add((_const(1), Var("x"), _const(2)))
        flat = flatten(e)
        assert flat.to_polynomial() == x_p + 3
        consts = [a for a in flat.args if isinstance(a, Const)]
        assert len(consts) == 1
        assert consts[0].value == 3

    def test_nested_constant_folds_through(self):
        e = Add((Add((_const(1), _const(2))), _const(3)))
        assert flatten(e) == Const(Fraction(6))

    def test_mul_by_zero(self):
        e = Mul((_const(0), Var("x")))
        assert flatten(e) == Const(Fraction(0))

    def test_mul_identity_removed(self):
        e = Mul((_const(1), Var("x")))
        assert flatten(e) == Var("x")

    def test_constant_factors_fold_to_the_front(self):
        e = Mul((_const(3), Var("x"), Mul((_const(3), Var("y")))))
        assert flatten(e) == Mul((_const(9), Var("x"), Var("y")))


class TestFormatting:
    def test_minimal_parens(self):
        e = Add((Mul((_const(2), Var("x"))), _const(1)))
        assert to_source(e) == "2 * x + 1"

    def test_mul_of_add_parenthesized(self):
        e = Mul((Add((Var("x"), _const(1))), Var("y")))
        assert to_source(e) == "(x + 1) * y"

    def test_negative_terms_render_as_subtraction(self):
        e = Add((Var("x"), Mul((_const(-1), Var("y")))))
        assert to_source(e) == "x - y"

    def test_leading_minus_one_is_a_prefix_minus(self):
        e = Mul((_const(-1), Var("x"), Var("y")))
        assert to_source(e) == "-x * y"

    def test_negative_constant_factor_parenthesized(self):
        e = Mul((_const(-2), Var("x")))
        assert to_source(e) == "(-2) * x"

    def test_str_is_source(self):
        e = Mul((Add((Var("x"), _const(1))), Var("y")))
        assert str(e) == to_source(e)

    def test_fraction_constant_in_product(self):
        e = Mul((_const(Fraction(1, 2)), Var("x")))
        assert to_source(e) == "(1/2) * x"
