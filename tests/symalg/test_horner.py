"""Tests for the Horner (nested form) transform."""

from hypothesis import given, settings

from repro.symalg import OpCount, Polynomial, horner, symbols

from .strategies import nonzero_polynomials

x, y, z = symbols("x y z")


class TestPaperExample:
    def test_maple_horner_snippet(self):
        """Section 3.3: convert(y^2 x + y x^2 + 4xy + x^2 + 2x, horner, [x,y])."""
        s = y**2*x + y*x**2 + 4*x*y + x**2 + 2*x
        nested = horner(s, ["x", "y"])
        # Same function...
        assert nested.to_polynomial() == s
        # ...with Maple's operation economy: (2+(4+y)*y+(y+1)*x)*x costs
        # 3 multiplications and 4 additions, and so must ours.
        count = nested.op_count()
        assert count.muls == 3
        assert count.adds == 4


class TestUnivariate:
    def test_cubic(self):
        p = 2*x**3 - 6*x**2 + 2*x - 1
        nested = horner(p)
        assert nested.to_polynomial() == p
        # ((2x - 6)x + 2)x - 1: 3 muls
        assert nested.op_count().muls == 3

    def test_monomial_power(self):
        p = x**5
        nested = horner(p)
        assert nested.to_polynomial() == p

    def test_sparse_polynomial_gap_handling(self):
        p = x**6 + 1
        nested = horner(p)
        assert nested.to_polynomial() == p

    def test_constant(self):
        nested = horner(Polynomial.constant(7))
        assert nested.to_polynomial() == Polynomial.constant(7)

    def test_zero(self):
        nested = horner(Polynomial.zero())
        assert nested.to_polynomial().is_zero()


class TestVariableOrder:
    def test_order_changes_shape_not_value(self):
        s = x**2*y + x*y**2 + x*y
        h_xy = horner(s, ["x", "y"])
        h_yx = horner(s, ["y", "x"])
        assert h_xy.to_polynomial() == s
        assert h_yx.to_polynomial() == s

    def test_unlisted_variables_appended(self):
        s = x*y + y**2
        nested = horner(s, ["x"])
        assert nested.to_polynomial() == s


class TestOpCount:
    def test_fewer_muls_than_expanded(self):
        """Horner's defining property: minimal multiplications for dense polys."""
        p = x**4 + x**3 + x**2 + x + 1
        naive_muls = 4 + 3 + 2 + 1  # power-by-repeated-multiplication
        assert horner(p).op_count().muls < naive_muls
        # (((x + 1)*x + 1)*x + 1)*x + 1 with the leading 1*x folded: 3 muls.
        assert horner(p).op_count().muls == 3

    def test_power_counts_repeated_muls(self):
        # A lone power is x * x * ... * x: no Horner saving, no extra adds.
        assert horner(x**5).op_count() == OpCount(muls=4)


class TestEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(nonzero_polynomials(max_terms=5))
    def test_horner_polynomial_roundtrip(self, p):
        assert horner(p).to_polynomial() == p
