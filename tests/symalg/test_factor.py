"""Tests for factorization."""

from hypothesis import given, settings

from repro.symalg import Polynomial, factor, symbols

from .strategies import nonzero_polynomials

x, y, z = symbols("x y z")


class TestPaperExample:
    def test_maple_factor_snippet(self):
        """Section 3.3: factor(x^16 + x^17 + x^2) = x^2 (x^15 + x^14 + 1)."""
        p = x**16 + x**17 + x**2
        result = factor(p)
        assert result.expand() == p
        bases = {str(b): m for b, m in result}
        assert bases["x"] == 2
        assert "x^15 + x^14 + 1" in bases


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(nonzero_polynomials(max_terms=4))
    def test_expand_recovers_input(self, p):
        assert factor(p).expand() == p

    @settings(max_examples=20, deadline=None)
    @given(nonzero_polynomials(max_terms=2), nonzero_polynomials(max_terms=2))
    def test_product_roundtrip(self, f, g):
        assert factor(f * g).expand() == f * g


class TestUnivariate:
    def test_difference_of_squares(self):
        result = factor(x ** 2 - 1)
        bases = sorted(str(b) for b, _ in result)
        assert bases == ["x + 1", "x - 1"]

    def test_rational_roots(self):
        p = (2 * x - 1) * (x + 3)
        result = factor(p)
        assert result.expand() == p
        assert len(result.factors) == 2

    def test_repeated_factor_multiplicity(self):
        result = factor((x + 1) ** 3)
        assert result.factors == [(x + 1, 3)]

    def test_quadratic_irreducible_kept(self):
        result = factor(x ** 2 + 1)
        assert result.factors == [(x ** 2 + 1, 1)]

    def test_quadratic_with_rational_roots(self):
        p = 6 * x ** 2 + 5 * x + 1  # (2x+1)(3x+1)
        result = factor(p)
        assert result.expand() == p
        assert len(result.factors) == 2

    def test_difference_of_fourth_powers(self):
        p = x ** 4 - 16
        result = factor(p)
        assert result.expand() == p
        bases = sorted(str(b) for b, _ in result)
        assert "x + 2" in bases and "x - 2" in bases

    def test_constant(self):
        result = factor(Polynomial.constant(6))
        assert result.unit == 6
        assert result.factors == []

    def test_zero(self):
        result = factor(Polynomial.zero())
        assert result.unit == 0

    def test_unit_extraction(self):
        result = factor(4 * x + 8)
        assert result.unit == 4
        assert result.factors == [(x + 2, 1)]


class TestMultivariate:
    def test_monomial_content_multivar(self):
        p = x ** 2 * y + x * y  # x*y*(x+1)
        result = factor(p)
        assert result.expand() == p
        bases = {str(b) for b, _ in result}
        assert {"x", "y", "x + 1"} <= bases

    def test_content_split(self):
        p = (y + 1) * (x ** 2 - 1)
        result = factor(p)
        assert result.expand() == p
        bases = {str(b) for b, _ in result}
        assert "y + 1" in bases

    def test_square_in_two_variables(self):
        p = (x + y) ** 2
        result = factor(p)
        assert result.expand() == p
        assert (x + y, 2) in result.factors


class TestFormatting:
    def test_str(self):
        text = str(factor((x + 1) ** 2 * 3))
        assert "(x + 1)^2" in text
        assert "3" in text


class TestHomogeneous:
    """Homogeneous forms split via dehomogenization (sum of cubes etc.)."""

    def test_sum_of_cubes(self):
        f = factor(x ** 3 + y ** 3)
        assert (x + y, 1) in f.factors
        assert f.expand() == x ** 3 + y ** 3

    def test_difference_of_squares(self):
        f = factor(x ** 2 - y ** 2)
        bases = {b for b, _ in f.factors}
        assert bases == {x + y, x - y}

    def test_monomial_content_then_homogeneous(self):
        p = x ** 4 * y + x * y ** 4
        f = factor(p)
        linear = sum(m for b, m in f.factors if b.total_degree() == 1)
        assert linear == 3          # x, y and (x + y)
        assert f.expand() == p

    def test_irreducible_forms_stay_whole(self):
        assert factor(x ** 2 + y ** 2).factors == [(x ** 2 + y ** 2, 1)]
