"""Polynomial approximation of nonlinear functions.

Section 3.2 of the paper: "When a section of the procedure implements a
nonlinear function, we use an approximation, such as the Taylor or
Chebyshev series expansion, as its polynomial representation."

This reproduction uses the Taylor option: :func:`taylor` gives exact
rational Maclaurin coefficients for the standard embedded-math
functions (``exp``, ``log1p``, ``sin``, ...).  The result is a
univariate polynomial in a caller-chosen variable (default ``_arg``,
the variable the frontend's model expansion replaces with a call's
argument, see :func:`repro.frontend.extract_block`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from repro.errors import SymbolicError
from repro.symalg.polynomial import Polynomial

__all__ = ["taylor", "SUPPORTED_TAYLOR"]


def _maclaurin_exp(n: int) -> Fraction:
    return Fraction(1, math.factorial(n))


def _maclaurin_log1p(n: int) -> Fraction:
    if n == 0:
        return Fraction(0)
    return Fraction((-1) ** (n + 1), n)


def _maclaurin_sin(n: int) -> Fraction:
    if n % 2 == 0:
        return Fraction(0)
    return Fraction((-1) ** ((n - 1) // 2), math.factorial(n))


def _maclaurin_cos(n: int) -> Fraction:
    if n % 2 == 1:
        return Fraction(0)
    return Fraction((-1) ** (n // 2), math.factorial(n))


def _maclaurin_sinh(n: int) -> Fraction:
    if n % 2 == 0:
        return Fraction(0)
    return Fraction(1, math.factorial(n))


def _maclaurin_cosh(n: int) -> Fraction:
    if n % 2 == 1:
        return Fraction(0)
    return Fraction(1, math.factorial(n))


def _maclaurin_atan(n: int) -> Fraction:
    if n % 2 == 0:
        return Fraction(0)
    return Fraction((-1) ** ((n - 1) // 2), n)


def _binomial_coefficient(alpha: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for k in range(n):
        out *= (alpha - k)
    return out / math.factorial(n)


def _maclaurin_sqrt1p(n: int) -> Fraction:
    return _binomial_coefficient(Fraction(1, 2), n)


def _maclaurin_inv1p(n: int) -> Fraction:
    return Fraction((-1) ** n)


#: function name -> nth Maclaurin coefficient
_TAYLOR_TABLES: dict[str, Callable[[int], Fraction]] = {
    "exp": _maclaurin_exp,
    "log1p": _maclaurin_log1p,
    "sin": _maclaurin_sin,
    "cos": _maclaurin_cos,
    "sinh": _maclaurin_sinh,
    "cosh": _maclaurin_cosh,
    "atan": _maclaurin_atan,
    "sqrt1p": _maclaurin_sqrt1p,
    "inv1p": _maclaurin_inv1p,
}

#: Names :func:`taylor` accepts.
SUPPORTED_TAYLOR = tuple(sorted(_TAYLOR_TABLES))


def taylor(function: str, degree: int, variable: str = "_arg") -> Polynomial:
    """Exact Maclaurin polynomial of ``function`` up to ``degree``.

    ``log1p``, ``sqrt1p`` and ``inv1p`` are the shifted forms
    ``log(1+x)``, ``sqrt(1+x)``, ``1/(1+x)`` that embedded math kernels
    use after argument reduction.

    >>> taylor("exp", 3)
    Polynomial('1/6*_arg^3 + 1/2*_arg^2 + _arg + 1')
    """
    if function not in _TAYLOR_TABLES:
        raise SymbolicError(
            f"no Taylor table for {function!r}; supported: {SUPPORTED_TAYLOR}")
    if degree < 0:
        raise SymbolicError("degree must be nonnegative")
    table = _TAYLOR_TABLES[function]
    terms = {(n,): table(n) for n in range(degree + 1)}
    return Polynomial((variable,), terms)
