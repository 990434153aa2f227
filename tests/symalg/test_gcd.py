"""Tests for polynomial GCD."""

from hypothesis import given, settings

from repro.symalg import Polynomial, polynomial_gcd, symbols
from repro.symalg.division import exact_divide, reduce
from repro.symalg.gcdtools import content_in, primitive_in, pseudo_remainder
from repro.symalg.ordering import GREVLEX

from .strategies import nonzero_polynomials

x, y, z = symbols("x y z")


class TestUnivariate:
    def test_common_factor(self):
        f = (x + 1) * (x - 2)
        g = (x + 1) * (x + 3)
        assert polynomial_gcd(f, g) == x + 1

    def test_coprime(self):
        assert polynomial_gcd(x + 1, x + 2) == Polynomial.one()

    def test_integer_content(self):
        assert polynomial_gcd(6 * x, 4 * x) == 2 * x

    def test_gcd_with_zero(self):
        assert polynomial_gcd(Polynomial.zero(), x + 1) == x + 1
        assert polynomial_gcd(x + 1, Polynomial.zero()) == x + 1

    def test_gcd_of_constants(self):
        got = polynomial_gcd(Polynomial.constant(6), Polynomial.constant(4))
        assert got == Polynomial.constant(2)

    def test_repeated_roots(self):
        f = (x - 1) ** 3 * (x + 2)
        g = (x - 1) ** 2
        assert polynomial_gcd(f, g) == (x - 1) ** 2


class TestMultivariate:
    def test_shared_linear_factor(self):
        f = (x + y) * (x - y)
        g = (x + y) ** 2
        assert polynomial_gcd(f, g) == x + y

    def test_no_shared_variables(self):
        assert polynomial_gcd(x + 1, y + 1) == Polynomial.one()

    def test_three_variables(self):
        common = x * y + z
        f = common * (x + 1)
        g = common * (y + z)
        assert polynomial_gcd(f, g) == common

    def test_normalization_positive_leading(self):
        f = -(x + y)
        g = (x + y) * 3
        got = polynomial_gcd(f, g)
        assert got == x + y


class TestHelpers:
    def test_pseudo_remainder_degree_drop(self):
        f = x ** 3 * y + x
        g = x ** 2 + y
        rem = pseudo_remainder(f, g, "x")
        assert rem.degree_in("x") < g.degree_in("x")

    def test_pseudo_remainder_below_degree_identity(self):
        f = x + 1
        g = x ** 2
        assert pseudo_remainder(f, g, "x") == f

    def test_content_in(self):
        f = (y + 1) * x ** 2 + (y + 1) * x
        assert content_in(f, "x") == y + 1

    def test_primitive_in(self):
        f = (y + 1) * x ** 2 + (y + 1)
        assert primitive_in(f, "x") == x ** 2 + 1


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(nonzero_polynomials(max_terms=3), nonzero_polynomials(max_terms=3))
    def test_gcd_divides_both(self, f, g):
        d = polynomial_gcd(f, g)
        assert reduce(f, [d], GREVLEX).is_zero()
        assert reduce(g, [d], GREVLEX).is_zero()

    @settings(max_examples=30, deadline=None)
    @given(nonzero_polynomials(max_terms=2), nonzero_polynomials(max_terms=2),
           nonzero_polynomials(max_terms=2))
    def test_common_multiplier_appears(self, f, g, h):
        """h | gcd(f*h, g*h)."""
        d = polynomial_gcd(f * h, g * h)
        assert reduce(d, [h], GREVLEX).is_zero() or reduce(h, [d], GREVLEX).is_zero()
        # h divides d always:
        assert reduce(d, [h], GREVLEX).is_zero()

    @settings(max_examples=30, deadline=None)
    @given(nonzero_polynomials(max_terms=3), nonzero_polynomials(max_terms=3))
    def test_symmetry_up_to_equality(self, f, g):
        assert polynomial_gcd(f, g) == polynomial_gcd(g, f)

    @settings(max_examples=30, deadline=None)
    @given(nonzero_polynomials(max_terms=2), nonzero_polynomials(max_terms=2))
    def test_cofactors_are_coprime(self, f, g):
        """f/gcd and g/gcd share no factor: the divisor is the greatest."""
        d = polynomial_gcd(f, g)
        assert polynomial_gcd(exact_divide(f, d), exact_divide(g, d)).is_constant()
