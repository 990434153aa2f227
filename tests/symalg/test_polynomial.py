"""Unit tests for the core Polynomial type."""

from fractions import Fraction

import pytest

from repro.errors import SymbolicError
from repro.symalg import GREVLEX, LEX, Polynomial, symbols

x, y, z = symbols("x y z")


class TestConstruction:
    def test_constant(self):
        p = Polynomial.constant(5)
        assert p.is_constant()
        assert p.constant_value() == 5

    def test_zero_constant_has_no_terms(self):
        assert Polynomial.constant(0).is_zero()
        assert len(Polynomial.constant(0)) == 0

    def test_variable(self):
        p = Polynomial.variable("x")
        assert p.variables == ("x",)
        assert p.total_degree() == 1

    def test_monomial(self):
        p = Polynomial.monomial({"x": 2, "y": 1}, 3)
        assert p.coefficient({"x": 2, "y": 1}) == 3
        assert p.total_degree() == 3

    def test_symbols_comma_separated(self):
        a, b = symbols("a, b")
        assert a.variables == ("a",)
        assert b.variables == ("b",)

    def test_symbols_empty_raises(self):
        with pytest.raises(SymbolicError):
            symbols("   ")

    def test_variables_are_sorted(self):
        p = Polynomial(("b", "a"), {(1, 1): 1})
        assert p.variables == ("a", "b")

    def test_unused_variables_pruned(self):
        p = Polynomial(("x", "y"), {(2, 0): 1})
        assert p.variables == ("x",)

    def test_zero_coefficients_dropped(self):
        p = Polynomial(("x",), {(1,): 0, (2,): 1})
        assert p.coefficient({"x": 1}) == 0
        assert len(p) == 1

    def test_duplicate_exponents_combine(self):
        # Construction-level combining (dict keys are unique, but the
        # canonicalizer must still sum when remapping collides).
        p = Polynomial(("x", "y"), {(1, 0): 2})
        q = Polynomial(("x",), {(1,): 3})
        assert (p + q).coefficient({"x": 1}) == 5

    def test_mismatched_exponent_length_raises(self):
        with pytest.raises(SymbolicError):
            Polynomial(("x",), {(1, 2): 1})

    def test_negative_exponent_raises(self):
        with pytest.raises(SymbolicError):
            Polynomial(("x",), {(-1,): 1})

    def test_float_coefficients_are_exact(self):
        p = Polynomial.constant(0.5)
        assert p.constant_value() == Fraction(1, 2)

    def test_nan_coefficient_raises(self):
        with pytest.raises(SymbolicError):
            Polynomial.constant(float("nan"))


class TestArithmetic:
    def test_addition_aligns_variables(self):
        p = x + y
        assert p.coefficient({"x": 1}) == 1
        assert p.coefficient({"y": 1}) == 1

    def test_scalar_addition_both_sides(self):
        assert (x + 1) == (1 + x)

    def test_subtraction(self):
        assert (x - x).is_zero()
        assert ((x + y) - y) == x

    def test_rsub(self):
        assert (1 - x) == -(x - 1)

    def test_multiplication(self):
        assert (x + 1) * (x - 1) == x ** 2 - 1

    def test_scalar_multiplication(self):
        assert 2 * x == x + x

    def test_scalar_division(self):
        assert (2 * x) / 2 == x

    def test_division_by_constant_polynomial(self):
        assert (2 * x) / Polynomial.constant(2) == x

    def test_division_by_zero_raises(self):
        with pytest.raises(SymbolicError):
            x / 0

    def test_division_by_polynomial_raises(self):
        with pytest.raises(SymbolicError):
            (x ** 2) / x

    def test_power(self):
        assert (x + 1) ** 2 == x ** 2 + 2 * x + 1

    def test_power_zero(self):
        assert (x + y) ** 0 == Polynomial.one()

    def test_negative_power_raises(self):
        with pytest.raises(SymbolicError):
            x ** -1

    def test_fractional_power_raises(self):
        with pytest.raises(SymbolicError):
            x ** 0.5  # type: ignore[operator]

    def test_negation(self):
        assert -(x - y) == y - x


class TestIntrospection:
    def test_total_degree(self):
        assert (x ** 2 * y + x).total_degree() == 3

    def test_total_degree_zero_poly(self):
        assert Polynomial.zero().total_degree() == -1

    def test_degree_in(self):
        p = x ** 2 * y + y ** 3
        assert p.degree_in("x") == 2
        assert p.degree_in("y") == 3
        assert p.degree_in("w") == 0

    def test_iter_terms(self):
        p = 2 * x * y + 3
        terms = dict()
        for powers, coeff in p.iter_terms():
            terms[tuple(sorted(powers.items()))] = coeff
        assert terms[(("x", 1), ("y", 1))] == 2
        assert terms[()] == 3

    def test_coefficient_of_absent_monomial(self):
        assert (x + y).coefficient({"x": 5}) == 0

    def test_constant_value_on_nonconstant_raises(self):
        with pytest.raises(SymbolicError):
            x.constant_value()


class TestCalculus:
    def test_derivative(self):
        p = x ** 3 + 2 * x * y
        assert p.derivative("x") == 3 * x ** 2 + 2 * y
        assert p.derivative("y") == 2 * x

    def test_derivative_absent_variable(self):
        assert (x ** 2).derivative("q").is_zero()

    def test_evaluate_exact(self):
        p = x ** 2 + y
        value = p.evaluate({"x": Fraction(1, 2), "y": 1})
        assert value == Fraction(5, 4)
        assert isinstance(value, Fraction)

    def test_evaluate_float(self):
        p = x * y
        assert p.evaluate({"x": 0.5, "y": 4}) == pytest.approx(2.0)

    def test_evaluate_missing_variable_raises(self):
        with pytest.raises(SymbolicError):
            (x + y).evaluate({"x": 1})

    def test_substitute_polynomial(self):
        p = x ** 2 + y
        q = p.substitute({"x": y + 1})
        assert q == y ** 2 + 3 * y + 1

    def test_substitute_scalar(self):
        assert (x ** 2 + 1).substitute({"x": 3}) == Polynomial.constant(10)

    def test_substitute_simultaneous(self):
        # x->y, y->x must swap, not chain.
        p = x + 2 * y
        q = p.substitute({"x": y, "y": x})
        assert q == y + 2 * x

    def test_rename(self):
        assert x.rename({"x": "t"}) == Polynomial.variable("t")

    def test_rename_collision_raises(self):
        with pytest.raises(SymbolicError):
            (x + y).rename({"x": "y"})


class TestOrderViews:
    def test_leading_term_lex_vs_grevlex(self):
        p = x * y ** 2 + x ** 2
        lex_exps, _ = p.leading_term(LEX)
        grevlex_exps, _ = p.leading_term(GREVLEX)
        assert lex_exps == (2, 0)       # x^2 wins under lex
        assert grevlex_exps == (1, 2)   # x*y^2 wins under grevlex (degree 3)

    def test_leading_term_zero_raises(self):
        with pytest.raises(SymbolicError):
            Polynomial.zero().leading_term()

    def test_monic(self):
        p = 3 * x ** 2 + 6
        assert p.monic(GREVLEX) == x ** 2 + 2

    def test_sorted_terms_descending(self):
        p = 1 + x + x ** 3
        exps = [e for e, _ in p.sorted_terms(GREVLEX)]
        assert exps == [(3,), (1,), (0,)]


class TestUnivariateViews:
    def test_coefficients_in(self):
        p = y ** 2 * x + y * x ** 2 + 4 * x * y + x ** 2 + 2 * x
        coeffs = p.coefficients_in("x")
        assert coeffs[2] == y + 1
        assert coeffs[1] == y ** 2 + 4 * y + 2

    def test_from_univariate_roundtrip(self):
        p = x ** 3 * y + x * y ** 2 + 7
        assert Polynomial.from_univariate(p.coefficients_in("x"), "x") == p

    def test_content_and_primitive(self):
        p = 6 * x + 4 * y
        assert p.content() == 2
        assert p.primitive_part() == 3 * x + 2 * y

    def test_content_sign_follows_leading(self):
        p = -6 * x - 4
        assert p.content() == -2
        assert p.primitive_part() == 3 * x + 2


class TestComparison:
    def test_equality_with_scalar(self):
        assert Polynomial.constant(3) == 3
        assert (x - x) == 0

    def test_hash_consistency(self):
        assert hash((x + 1) * (x - 1)) == hash(x ** 2 - 1)

    def test_usable_in_sets(self):
        assert len({x + y, y + x, x - y}) == 2

    def test_max_coefficient_distance(self):
        p = x + Polynomial.constant(1)
        q = x + Polynomial.constant(1.25)
        assert p.max_coefficient_distance(q) == pytest.approx(0.25)

    def test_almost_equal(self):
        p = Polynomial.constant(1.0)
        q = Polynomial.constant(1.0 + 1e-12)
        assert p.almost_equal(q, 1e-9)
        assert not p.almost_equal(q + 1, 1e-9)


class TestFormatting:
    def test_str_simple(self):
        assert str(x ** 2 - 1) == "x^2 - 1"

    def test_str_zero(self):
        assert str(Polynomial.zero()) == "0"

    def test_str_leading_negative(self):
        assert str(-x) == "-x"

    def test_str_fraction_coefficient(self):
        assert str(x / 2) == "1/2*x"

    def test_repr_roundtrippable_text(self):
        assert repr(x + 1) == "Polynomial('x + 1')"


class TestSerialization:
    """The pickle contract the batch engine and disk tier rely on."""

    def test_pickle_roundtrip_preserves_identity_semantics(self):
        import pickle
        p = x ** 3 * y - 2 * y + x / 2
        q = pickle.loads(pickle.dumps(p))
        assert q == p
        assert hash(q) == hash(p)
        assert str(q) == str(p)

    def test_pickle_drops_lazy_caches(self):
        import pickle
        from repro.symalg.ordering import LEX
        p = x ** 2 + y
        p.leading_term(LEX)          # populate per-order cache
        p.total_degree()
        hash(p)
        q = pickle.loads(pickle.dumps(p))
        assert q._hash is None
        assert q._lt_cache is None
        assert q._degree_cache is None
        assert q.leading_term(LEX) == p.leading_term(LEX)

    def test_deepcopy_goes_through_the_contract(self):
        import copy
        p = x ** 2 - y
        assert copy.deepcopy(p) == p


class TestContentDigest:
    """``content_digest`` is a function of the polynomial's value alone:
    equal polynomials digest equally however they were built, and any
    change to a coefficient, exponent or variable changes it."""

    BASE = 3 * x ** 2 * y - Fraction(1, 7) * y ** 3 + 5

    def test_operator_order(self):
        a = (x + y) * (x - y)
        b = x ** 2 - y ** 2
        c = -(y ** 2) + x * x
        assert a.content_digest() == b.content_digest() == c.content_digest()

    def test_from_dict_agrees(self):
        from_dict = Polynomial.from_dict(
            {(2, 1): 3, (0, 3): Fraction(-1, 7), (0, 0): 5}, ("x", "y"))
        assert from_dict.content_digest() == self.BASE.content_digest()

    def test_unused_variables_do_not_count(self):
        padded = Polynomial.from_dict({(2, 0): 1}, ("x", "z"))
        assert padded.content_digest() == (x ** 2).content_digest()

    def test_int_and_denominator_one_fraction_coefficients_agree(self):
        p = 3 * x + 2
        q = Polynomial.__new__(Polynomial)
        q.__setstate__((p.variables, {code: Fraction(coeff)
                                      for code, coeff in p._codes.items()}))
        assert any(type(c) is Fraction for c in q._codes.values())
        assert q == p
        assert q.content_digest() == p.content_digest()

    def test_pickle_roundtrip_keeps_digest_but_not_the_cache(self):
        import pickle

        digest = self.BASE.content_digest()
        blob = pickle.dumps(self.BASE)
        assert digest.encode("ascii") not in blob
        assert len(self.BASE.__getstate__()) == 2
        assert pickle.loads(blob).content_digest() == digest

    @pytest.mark.parametrize("other", [
        3 * x ** 2 * y - Fraction(1, 7) * y ** 3 + 6,          # a coefficient
        3 * x ** 2 * y - Fraction(1, 8) * y ** 3 + 5,          # a denominator
        3 * x ** 2 * y - Fraction(1, 7) * y ** 4 + 5,          # an exponent
        3 * x ** 2 * z - Fraction(1, 7) * z ** 3 + 5,          # a variable name
    ])
    def test_any_change_changes_the_digest(self, other):
        assert other != self.BASE
        assert other.content_digest() != self.BASE.content_digest()

    def test_is_a_cached_hex_sha256(self):
        digest = self.BASE.content_digest()
        assert len(digest) == 64 and set(digest) <= set("0123456789abcdef")
        assert self.BASE.content_digest() is digest     # computed once
