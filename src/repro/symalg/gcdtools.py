"""Polynomial GCD over the rationals (univariate and multivariate).

The factorization and square-free routines need GCDs.  We implement the
classic primitive polynomial-remainder-sequence (PRS) algorithm:

* univariate GCD by the Euclidean algorithm on monic remainders;
* multivariate GCD recursively: view both inputs as univariate in a
  main variable with polynomial coefficients, split off contents
  (which are GCDs in one fewer variable), and run a primitive PRS with
  pseudo-division.

GCDs over a field are defined up to a unit; we normalize results to be
primitive with positive leading (grevlex) coefficient, except that the
GCD of the rational contents is folded back in so that
``gcd(6x, 4x) == 2x`` matches integer intuition.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd
from math import lcm as int_lcm

from repro.errors import SymbolicError
from repro.symalg.division import exact_divide
from repro.symalg.ordering import TermOrder
from repro.symalg.polynomial import Polynomial

__all__ = ["polynomial_gcd", "content_in", "primitive_in",
           "pseudo_remainder", "clear_gcd_caches"]

_LEX = TermOrder("lex")


def clear_gcd_caches() -> None:
    """Drop the memoized GCD results (mainly for benchmarks/tests)."""
    _cached_gcd.cache_clear()


def _fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    """GCD of two rationals: gcd of numerators over lcm of denominators."""
    if a == 0:
        return abs(b)
    if b == 0:
        return abs(a)
    num = int_gcd(abs(a.numerator), abs(b.numerator))
    den = int_lcm(a.denominator, b.denominator)
    return Fraction(num, den)


def pseudo_remainder(dividend: Polynomial, divisor: Polynomial,
                     var: str) -> Polynomial:
    """Pseudo-remainder of ``dividend`` by ``divisor`` w.r.t. ``var``.

    Multiplies the dividend by ``lc(divisor)^(deg f - deg g + 1)`` so the
    division needs no coefficient fractions; the result is ``prem(f, g)``
    with ``deg_var(prem) < deg_var(g)``.
    """
    deg_f = dividend.degree_in(var)
    deg_g = divisor.degree_in(var)
    if deg_g < 0:
        raise SymbolicError("pseudo-division by zero polynomial")
    if deg_f < deg_g:
        return dividend
    g_coeffs = divisor.coefficients_in(var)
    lead_g = g_coeffs[deg_g]
    x = Polynomial.variable(var)

    remainder = dividend * lead_g ** (deg_f - deg_g + 1)
    while not remainder.is_zero() and remainder.degree_in(var) >= deg_g:
        deg_r = remainder.degree_in(var)
        lead_r = remainder.coefficients_in(var).get(deg_r, Polynomial.zero())
        # lead_g divides lead_r by construction of the pre-multiplication.
        factor = exact_divide(lead_r, lead_g, _LEX) * x ** (deg_r - deg_g)
        remainder = remainder - factor * divisor
    return remainder


def content_in(poly: Polynomial, var: str) -> Polynomial:
    """Content of ``poly`` seen as univariate in ``var``.

    The GCD of its coefficient polynomials (which live in the other
    variables).  For a univariate polynomial this is its rational
    content as a constant polynomial.
    """
    if poly.is_zero():
        return Polynomial.zero()
    coeffs = list(poly.coefficients_in(var).values())
    result = coeffs[0]
    for c in coeffs[1:]:
        result = polynomial_gcd(result, c)
        if result.is_constant() and result.constant_value() == 1:
            break
    return result


def primitive_in(poly: Polynomial, var: str) -> Polynomial:
    """``poly`` divided by its content in ``var``."""
    if poly.is_zero():
        return poly
    cont = content_in(poly, var)
    return exact_divide(poly, cont, _LEX)


def polynomial_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """GCD of two polynomials over Q, normalized primitive-positive.

    Memoized: the square-free and factorization layers recompute GCDs
    of the same (immutable) pairs, and the candidate generator calls
    them once per search node.

    >>> from repro.symalg.polynomial import symbols
    >>> x, y = symbols("x y")
    >>> polynomial_gcd((x + y) * (x - y), (x + y) ** 2)
    Polynomial('x + y')
    """
    return _cached_gcd(a, b)


@lru_cache(maxsize=4096)
def _cached_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    if a.is_zero():
        return _normalize(b)
    if b.is_zero():
        return _normalize(a)
    if a.is_constant() or b.is_constant():
        return Polynomial.constant(_fraction_gcd(a.content(), b.content()))

    rational_content = _fraction_gcd(a.content(), b.content())
    a = a.primitive_part()
    b = b.primitive_part()

    shared = set(a.variables) & set(b.variables)
    if not shared:
        # No common variable: gcd of primitive parts is a constant.
        return Polynomial.constant(rational_content)

    var = sorted(shared)[0]
    # Contents w.r.t. the main variable live in fewer variables.
    cont_a = content_in(a, var)
    cont_b = content_in(b, var)
    cont_gcd = polynomial_gcd(cont_a, cont_b)
    f = exact_divide(a, cont_a, _LEX)
    g = exact_divide(b, cont_b, _LEX)

    if f.degree_in(var) < g.degree_in(var):
        f, g = g, f
    while not g.is_zero():
        rem = pseudo_remainder(f, g, var)
        f = g
        if rem.is_zero():
            g = rem
        else:
            # Primitive PRS: strip content each step to stop coefficient blowup.
            g = primitive_in(rem, var) if rem.degree_in(var) >= 0 else rem
            if g.degree_in(var) == 0 and not g.is_constant():
                g = g.primitive_part()
    result = _normalize(f)
    if result.degree_in(var) == 0 and not result.is_constant():
        # PRS terminated in a polynomial free of the main variable: the
        # univariate parts are coprime.
        result = Polynomial.one()
    if result.is_constant():
        result = Polynomial.one()
    return _normalize(result * cont_gcd) * rational_content


def _normalize(poly: Polynomial) -> Polynomial:
    """Primitive part with positive leading coefficient."""
    if poly.is_zero():
        return poly
    return poly.primitive_part()
