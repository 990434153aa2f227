"""Differential tests against SymPy.

SymPy is used purely as an *oracle*: the repro library never imports it.
These tests cross-check our from-scratch engine (expand-style
arithmetic, factorization round-trips, Groebner bases) against an
independent implementation on randomized inputs.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings

sympy = pytest.importorskip("sympy")

from repro.errors import GroebnerExplosion  # noqa: E402
from repro.symalg import (GREVLEX, LEX, Polynomial, factor,  # noqa: E402
                          groebner_basis, symbols)
from repro.symalg.division import divide  # noqa: E402
from repro.symalg.monomials import guard_mask  # noqa: E402

from .strategies import (ideal_polynomials, nonzero_polynomials,  # noqa: E402
                         polynomials)

x, y, z = symbols("x y z")
sx, sy, sz = sympy.symbols("x y z")

settings.register_profile("differential", max_examples=25, deadline=None)
settings.load_profile("differential")


def to_sympy(p: Polynomial):
    expr = sympy.Integer(0)
    table = {"x": sx, "y": sy, "z": sz}
    for powers, coeff in p.iter_terms():
        term = sympy.Rational(coeff.numerator, coeff.denominator)
        for var, e in powers.items():
            term *= table[var] ** e
        expr += term
    return sympy.expand(expr)


def from_sympy(expr) -> Polynomial:
    expr = sympy.expand(expr)
    poly = sympy.Poly(expr, sx, sy, sz)
    terms = {}
    for exps, coeff in poly.terms():
        q = sympy.Rational(coeff)
        terms[tuple(int(e) for e in exps)] = Fraction(int(q.p), int(q.q))
    return Polynomial(("x", "y", "z"), terms)


class TestArithmeticAgainstSympy:
    @given(polynomials(max_terms=4), polynomials(max_terms=4))
    def test_product(self, p, q):
        ours = p * q
        theirs = from_sympy(to_sympy(p) * to_sympy(q))
        assert ours == theirs

    @given(polynomials(max_terms=4), polynomials(max_terms=4))
    def test_sum(self, p, q):
        assert p + q == from_sympy(to_sympy(p) + to_sympy(q))

    @given(polynomials(max_terms=3))
    def test_square(self, p):
        assert p ** 2 == from_sympy(to_sympy(p) ** 2)


class TestFactorAgainstSympy:
    @given(nonzero_polynomials(max_terms=3))
    def test_factor_count_not_worse_for_linears(self, p):
        """Wherever sympy finds rational linear factors, so must we.

        We compare the *number of linear factors* (with multiplicity),
        which our rational-root search is guaranteed to find.
        """
        ours = factor(p)
        theirs = sympy.factor_list(to_sympy(p))

        def linear_count(factors):
            count = 0
            for base, mult in factors:
                if sympy.total_degree(base) == 1:
                    count += mult
            return count

        ours_linear = sum(m for b, m in ours.factors if b.total_degree() == 1)
        assert ours_linear >= linear_count(theirs[1])


class TestGroebnerAgainstSympy:
    @pytest.mark.parametrize("gens", [
        [x ** 2 + y, x * y - 1],
        [x ** 2 + y ** 2 - 1, x * y - 2],
        [x ** 3 - 2 * x * y, x ** 2 * y - 2 * y ** 2 + x],
        [x - y ** 2, y - z ** 3],
    ])
    def test_reduced_gb_matches(self, gens):
        ours = groebner_basis(gens, GREVLEX)
        theirs = sympy.groebner([to_sympy(g) for g in gens], sx, sy, sz,
                                order="grevlex")
        theirs_polys = sorted([str(from_sympy(e.as_expr() / sympy.LC(e, order='grevlex')))
                               for e in theirs.polys], )
        ours_strs = sorted(str(g) for g in ours)
        assert ours_strs == theirs_polys

    @pytest.mark.parametrize("gens", [
        [x ** 2 + y, x * y - 1],
        [y - x ** 2, z - x ** 3],
    ])
    def test_lex_gb_matches(self, gens):
        order = LEX.with_precedence(["x", "y", "z"])
        ours = groebner_basis(gens, order)
        theirs = sympy.groebner([to_sympy(g) for g in gens], sx, sy, sz,
                                order="lex")
        theirs_strs = sorted(str(from_sympy(e.as_expr().as_poly(sx, sy, sz).monic().as_expr()))
                             for e in theirs.polys)
        ours_strs = sorted(str(g) for g in ours)
        assert ours_strs == theirs_strs


def _sympy_grevlex_gb(gens):
    """Sympy's reduced monic grevlex basis, as sorted strings."""
    theirs = sympy.groebner([to_sympy(g) for g in gens], sx, sy, sz,
                            order="grevlex")
    return sorted(str(from_sympy(e.as_expr() / sympy.LC(e, order="grevlex")))
                  for e in theirs.polys)


class TestRandomGroebnerDifferential:
    """Randomized GB differential against sympy.

    The reduced monic basis is canonical for the order, so ours must
    equal an independent implementation's — on ideals nobody
    hand-picked.
    """

    @given(ideal_polynomials(), ideal_polynomials())
    def test_random_ideal_gb_matches_sympy(self, f, g):
        gens = [p for p in (f, g) if not p.is_zero()]
        assume(gens)
        try:
            ours = groebner_basis(gens, GREVLEX)
        except GroebnerExplosion:
            assume(False)
        assert sorted(str(p) for p in ours) == _sympy_grevlex_gb(gens)

    @given(ideal_polynomials(), ideal_polynomials(), ideal_polynomials())
    def test_random_three_generator_ideal(self, f, g, h):
        gens = [p for p in (f, g, h) if not p.is_zero()]
        assume(gens)
        try:
            ours = groebner_basis(gens, GREVLEX)
        except GroebnerExplosion:
            assume(False)
        assert sorted(str(p) for p in ours) == _sympy_grevlex_gb(gens)


class TestDivisionAgainstSympy:
    """Randomized differential of multivariate division with remainder.

    Sympy's ``reduced`` implements the same Cox-Little-O'Shea ordered
    division, so quotient conventions and all, the remainders must be
    equal — and our result must satisfy the division identity plus the
    remainder-irreducibility invariant on its own.
    """

    @given(polynomials(max_terms=4), ideal_polynomials(),
           ideal_polynomials())
    def test_remainder_matches_sympy_reduced(self, f, g1, g2):
        divisors = [g for g in (g1, g2) if not g.is_zero()]
        assume(divisors)
        ours = divide(f, divisors, GREVLEX)
        assert ours.reconstruct(divisors) == f
        _quotients, r = sympy.reduced(
            to_sympy(f), [to_sympy(g) for g in divisors], sx, sy, sz,
            order="grevlex")
        assert ours.remainder == from_sympy(r)

    @given(polynomials(max_terms=4), ideal_polynomials())
    def test_no_remainder_term_is_divisible_by_a_leading_term(self, f, g):
        assume(not g.is_zero())
        remainder = divide(f, [g], GREVLEX).remainder
        frame = GREVLEX.frame(tuple(sorted({*f.variables, *g.variables})))
        guard = guard_mask(len(frame))
        key = GREVLEX.code_key(len(frame))
        g_codes = g._codes_on(frame)
        g_lt = max(g_codes) if key is None else max(g_codes, key=key)
        from repro.symalg.monomials import divides
        for code in remainder._codes_on(frame):
            assert not divides(g_lt, code, guard)
