"""Polynomial approximation of nonlinear functions.

Section 3.2 of the paper: "When a section of the procedure implements a
nonlinear function, we use an approximation, such as the Taylor or
Chebyshev series expansion, as its polynomial representation."

Two constructions are provided:

* :func:`taylor` — exact rational Maclaurin/Taylor coefficients for the
  standard embedded-math functions (``exp``, ``log1p``, ``sin``, ...);
* :func:`chebyshev_fit` — numeric Chebyshev interpolation of an
  arbitrary callable on an interval, the standard way real fixed-point
  math libraries (e.g. Crenshaw's toolkit, ref. [14]) derive their
  kernels.  Coefficients are floats converted exactly to rationals.

All results are univariate polynomials in a caller-chosen variable
(default ``_arg``, the variable the frontend's model expansion replaces
with a call's argument, see :func:`repro.frontend.extract_block`).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import numpy as np

from repro.errors import SymbolicError
from repro.symalg.polynomial import Polynomial

__all__ = ["taylor", "chebyshev_fit", "approximation_error",
           "SUPPORTED_TAYLOR"]


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


def chebyshev_fit(func: Callable[[float], float], lower: float, upper: float,
                  degree: int, variable: str = "_arg") -> Polynomial:
    """Chebyshev interpolation of ``func`` on ``[lower, upper]``.

    Interpolates at the ``degree + 1`` Chebyshev nodes and re-expands in
    the monomial basis — near-minimax behaviour without the Remez
    machinery, which is how practical fixed-point kernels are derived.
    """
    if not lower < upper:
        raise SymbolicError(f"bad interval [{lower}, {upper}]")
    if degree < 0:
        raise SymbolicError("degree must be nonnegative")
    n = degree + 1
    k = np.arange(n)
    nodes = np.cos((2 * k + 1) * np.pi / (2 * n))
    scaled = 0.5 * (upper - lower) * nodes + 0.5 * (upper + lower)
    values = np.array([func(float(x)) for x in scaled])
    cheb = np.polynomial.chebyshev.Chebyshev.fit(scaled, values, degree,
                                                 domain=[lower, upper])
    mono = cheb.convert(kind=np.polynomial.Polynomial)
    terms = {(i,): Fraction(float(c)) for i, c in enumerate(mono.coef)}
    return Polynomial((variable,), terms)


def approximation_error(poly: Polynomial, func: Callable[[float], float],
                        lower: float, upper: float, samples: int = 256) -> float:
    """Max absolute error of ``poly`` against ``func`` on a sample grid."""
    if len(poly.variables) > 1:
        raise SymbolicError("approximation_error expects a univariate polynomial")
    variable = poly.variables[0] if poly.variables else "_arg"
    xs = np.linspace(lower, upper, samples)
    worst = 0.0
    for x in xs:
        approx = float(poly.evaluate({variable: float(x)}))
        worst = max(worst, abs(approx - func(float(x))))
    return worst
