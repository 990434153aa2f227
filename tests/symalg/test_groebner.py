"""Tests for Buchberger's algorithm."""

import pytest
from hypothesis import given, settings

from repro.errors import GroebnerExplosion
from repro.symalg import (GREVLEX, LEX, Polynomial, groebner_basis,
                          is_groebner_basis, reduce, s_polynomial, symbols)

from .strategies import nonzero_polynomials

x, y, z = symbols("x y z")


class TestSPolynomial:
    def test_cancels_leading_terms(self):
        order = GREVLEX
        f = x ** 3 * y ** 2 - x ** 2 * y ** 3 + x
        g = 3 * x ** 4 * y + y ** 2
        s = s_polynomial(f, g, order)
        # CLO ch.2 §6: S(f,g) = -x^3 y^3 + x^2 - (1/3) y^3
        expected = -(x ** 3) * y ** 3 + x ** 2 - y ** 3 / 3
        assert s == expected

    def test_self_s_polynomial_is_zero(self):
        f = x ** 2 + y
        assert s_polynomial(f, f).is_zero()


class TestGroebnerBasis:
    def test_single_generator(self):
        gb = groebner_basis([2 * x ** 2 + 2], GREVLEX)
        assert gb == [x ** 2 + 1]  # monic

    def test_clo_twisted_cubic(self):
        """Twisted cubic: lex GB of (y - x^2, z - x^3)."""
        order = LEX.with_precedence(["x", "y", "z"])
        gb = groebner_basis([y - x ** 2, z - x ** 3], order)
        assert is_groebner_basis(gb, order)
        # Elimination ideal must contain a polynomial free of x:
        free_of_x = [g for g in gb if "x" not in g.variables]
        assert any(g == y ** 3 - z ** 2 or g == -(y ** 3) + z ** 2 for g in free_of_x)

    def test_classic_example_is_gb(self):
        order = GREVLEX
        gb = groebner_basis([x ** 2 + y, x * y - 1], order)
        assert is_groebner_basis(gb, order)

    def test_non_gb_detected(self):
        order = LEX.with_precedence(["x", "y"])
        assert not is_groebner_basis([x * y - 1, x ** 2 + y], order)

    def test_empty_input(self):
        assert groebner_basis([]) == []

    def test_zero_generators_ignored(self):
        assert groebner_basis([Polynomial.zero(), x]) == [x]

    def test_reduced_basis_is_canonical(self):
        """Different generator orders give the same reduced GB."""
        order = GREVLEX
        gens = [x ** 2 + y ** 2 - 1, x * y - 2]
        gb1 = groebner_basis(gens, order)
        gb2 = groebner_basis(list(reversed(gens)), order)
        assert gb1 == gb2

    def test_normal_form_unique_modulo_gb(self):
        """With a GB, reduction order does not matter: NF is unique."""
        order = GREVLEX
        gb = groebner_basis([x ** 2 + y, x * y - 1], order)
        f = x ** 3 * y ** 2 + x * y + y
        nf1 = reduce(f, gb, order)
        nf2 = reduce(f, list(reversed(gb)), order)
        assert nf1 == nf2

    def test_inconsistent_system_gives_one(self):
        """(x, x+1) generates the unit ideal: GB == [1]."""
        gb = groebner_basis([x, x + 1])
        assert gb == [Polynomial.one()]

    def test_work_limit_raises(self):
        gens = [x ** 3 * y - z, y ** 3 * z - x, z ** 3 * x - y]
        with pytest.raises(GroebnerExplosion):
            groebner_basis(gens, GREVLEX, max_pairs=2)


def _in_ideal(f, generators, order=GREVLEX):
    """Ideal membership: the remainder modulo a Groebner basis is zero."""
    return reduce(f, groebner_basis(generators, order), order).is_zero()


class TestIdealMembership:
    def test_member(self):
        gens = [x ** 2 + y, x * y - 1]
        combo = (x + y) * gens[0] + (y ** 2) * gens[1]
        assert _in_ideal(combo, gens)

    def test_non_member(self):
        assert not _in_ideal(Polynomial.one(), [x ** 2 + y])

    def test_zero_is_member(self):
        assert _in_ideal(Polynomial.zero(), [x])

    @settings(max_examples=25, deadline=None)
    @given(nonzero_polynomials(max_terms=3), nonzero_polynomials(max_terms=2))
    def test_products_are_members(self, f, g):
        """f*g is in <g> for any f."""
        assert _in_ideal(f * g, [g])


class TestElimination:
    """A lex basis with ``t`` first: the elements free of ``t`` generate
    the elimination ideal (the Elimination Theorem)."""

    @staticmethod
    def _free_of_t(generators):
        order = LEX.with_precedence(["t", "x", "y"])
        return [g for g in groebner_basis(generators, order)
                if "t" not in g.variables]

    def test_eliminate_parameter(self):
        """Implicitize the parabola x = t, y = t^2 -> y - x^2."""
        t = Polynomial.variable("t")
        free = self._free_of_t([x - t, y - t ** 2])
        assert any(g == y - x ** 2 or g == x ** 2 - y for g in free)

    def test_eliminate_keeps_only_free(self):
        t = Polynomial.variable("t")
        free = self._free_of_t([x - t, y - t ** 3])
        assert free == [x ** 3 - y]


class TestNormalForm:
    def test_matches_direct_reduction_on_gb(self):
        gb = groebner_basis([x ** 2 - 1], GREVLEX)
        assert reduce(x ** 5 + x, gb, GREVLEX) == 2 * x


class TestSelectionStrategies:
    """Normal selection, the only strategy, returns a Groebner basis."""

    def test_both_are_groebner_bases(self):
        gens = [x ** 2 - y, x * y - z]
        basis = groebner_basis(gens, GREVLEX)
        assert is_groebner_basis(basis, GREVLEX)
