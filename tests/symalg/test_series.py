"""Tests for the Taylor polynomial approximations."""

import math
from fractions import Fraction

import pytest

from repro.errors import SymbolicError
from repro.symalg import SUPPORTED_TAYLOR, taylor


def max_error(poly, func, lower, upper, samples=256):
    """Max absolute error of univariate ``poly`` against ``func`` on an
    evenly spaced grid over ``[lower, upper]``."""
    step = (upper - lower) / (samples - 1)
    points = (lower + i * step for i in range(samples))
    return max(abs(float(poly.evaluate({"_arg": x})) - func(x)) for x in points)


class TestTaylorTables:
    def test_exp(self):
        p = taylor("exp", 4)
        assert p.coefficient({"_arg": 0}) == 1
        assert p.coefficient({"_arg": 3}) == Fraction(1, 6)
        assert p.coefficient({"_arg": 4}) == Fraction(1, 24)

    def test_log1p(self):
        p = taylor("log1p", 4)
        assert p.coefficient({"_arg": 0}) == 0
        assert p.coefficient({"_arg": 1}) == 1
        assert p.coefficient({"_arg": 2}) == Fraction(-1, 2)
        assert p.coefficient({"_arg": 4}) == Fraction(-1, 4)

    def test_sin_odd_only(self):
        p = taylor("sin", 5)
        assert p.coefficient({"_arg": 2}) == 0
        assert p.coefficient({"_arg": 3}) == Fraction(-1, 6)
        assert p.coefficient({"_arg": 5}) == Fraction(1, 120)

    def test_cos_even_only(self):
        p = taylor("cos", 4)
        assert p.coefficient({"_arg": 1}) == 0
        assert p.coefficient({"_arg": 2}) == Fraction(-1, 2)
        assert p.coefficient({"_arg": 4}) == Fraction(1, 24)

    def test_sqrt1p(self):
        p = taylor("sqrt1p", 2)
        assert p.coefficient({"_arg": 0}) == 1
        assert p.coefficient({"_arg": 1}) == Fraction(1, 2)
        assert p.coefficient({"_arg": 2}) == Fraction(-1, 8)

    def test_inv1p_alternating(self):
        p = taylor("inv1p", 3)
        assert [p.coefficient({"_arg": n}) for n in range(4)] == [1, -1, 1, -1]

    def test_atan(self):
        p = taylor("atan", 5)
        assert p.coefficient({"_arg": 1}) == 1
        assert p.coefficient({"_arg": 3}) == Fraction(-1, 3)
        assert p.coefficient({"_arg": 5}) == Fraction(1, 5)

    def test_custom_variable(self):
        p = taylor("exp", 2, variable="t")
        assert p.variables == ("t",)

    def test_unknown_function_raises(self):
        with pytest.raises(SymbolicError):
            taylor("gamma", 3)

    def test_negative_degree_raises(self):
        with pytest.raises(SymbolicError):
            taylor("exp", -1)

    def test_supported_list_is_sorted(self):
        assert list(SUPPORTED_TAYLOR) == sorted(SUPPORTED_TAYLOR)


class TestTaylorAccuracy:
    """Truncated series must approach the function on small intervals."""

    @pytest.mark.parametrize("name,func", [
        ("exp", math.exp),
        ("sin", math.sin),
        ("cos", math.cos),
        ("log1p", math.log1p),
        ("atan", math.atan),
    ])
    def test_degree_eight_is_tight_on_small_interval(self, name, func):
        # Factorial-convergent series (exp/sin/cos) reach ~1e-11 here;
        # log1p/atan converge like x^9/9 ~ 4e-7 at |x| = 0.25.
        p = taylor(name, 8)
        err = max_error(p, func, -0.25, 0.25)
        assert err < 1e-6

    def test_error_decreases_with_degree(self):
        errs = [max_error(taylor("exp", d), math.exp, -0.5, 0.5)
                for d in (2, 4, 8)]
        assert errs[0] > errs[1] > errs[2]
