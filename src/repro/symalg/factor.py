"""Polynomial factorization (the engine behind the paper's ``factor``).

The mapping algorithm uses ``factor`` as a *guideline* generator: a
factored form suggests which side relations preserve the expression
structure.  We implement the layers that matter for that role:

1. rational content extraction (the unit);
2. monomial content (``x^16 + x^17 + x^2 -> x^2 * (x^15 + x^14 + 1)``,
   the paper's own Maple example);
3. square-free decomposition (Yun's algorithm, per variable);
4. univariate factorization over Q: rational-root linear factors,
   quadratics via the discriminant, binomial patterns ``x^n - c``;
5. multivariate splitting by content/primitive part w.r.t. each
   variable (pulls out factors like ``(y + 1)`` from ``x*y + x``).

Degrees the search above cannot split remain as single factors; the
result is always a *correct* factorization (product equals the input),
just not guaranteed fully irreducible for high-degree irrational cases.
That matches the engineering need: candidates for mapping, not number
theory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from repro.errors import SymbolicError
from repro.symalg.division import exact_divide
from repro.symalg.gcdtools import content_in, polynomial_gcd
from repro.symalg.ordering import TermOrder
from repro.symalg.polynomial import Polynomial

__all__ = ["Factorization", "factor"]

_LEX = TermOrder("lex")


@dataclass
class Factorization:
    """``unit * prod(base_i ^ multiplicity_i)``.

    ``factors`` is sorted deterministically (by degree, then string).
    """

    unit: Fraction
    factors: list[tuple[Polynomial, int]] = field(default_factory=list)

    def expand(self) -> Polynomial:
        """Multiply the factorization back out."""
        result = Polynomial.constant(self.unit)
        for base, mult in self.factors:
            result = result * base ** mult
        return result

    def __str__(self) -> str:
        parts: list[str] = []
        if self.unit != 1 or not self.factors:
            parts.append(str(self.unit))
        for base, mult in self.factors:
            text = f"({base})"
            if mult != 1:
                text += f"^{mult}"
            parts.append(text)
        return " * ".join(parts)

    def __iter__(self):
        return iter(self.factors)


def factor(poly: Polynomial) -> Factorization:
    """Factor ``poly`` over the rationals (see module docstring for scope).

    >>> x = Polynomial.variable("x")
    >>> str(factor(x**16 + x**17 + x**2))
    '(x)^2 * (x^15 + x^14 + 1)'
    """
    if poly.is_zero():
        return Factorization(Fraction(0))
    if poly.is_constant():
        return Factorization(poly.constant_value())

    unit = poly.content()
    work = poly.primitive_part()
    factors: list[tuple[Polynomial, int]] = []

    # Monomial content: common power of each variable.
    for var in work.variables:
        coeffs = work.coefficients_in(var)
        min_power = min(coeffs)
        if min_power > 0:
            factors.append((Polynomial.variable(var), min_power))
            work = exact_divide(work, Polynomial.variable(var) ** min_power, _LEX)

    for base, mult in _factor_squarefree_tower(work):
        factors.extend((b, m * mult) for b, m in _factor_primitive(base))

    factors = _merge(factors)
    return Factorization(unit, factors)


def _factor_squarefree_tower(poly: Polynomial) -> list[tuple[Polynomial, int]]:
    """Square-free split w.r.t. the first variable, recursing on pieces.

    Yun's algorithm w.r.t. ``x`` only sees factors that involve ``x``:
    anything in the content (free of ``x``) divides the derivative too
    and would be silently swallowed by the first GCD.  So the content is
    split off first and decomposed recursively.
    """
    if poly.is_constant():
        return []
    var = poly.variables[0]
    out: list[tuple[Polynomial, int]] = []
    cont = content_in(poly, var)
    if not cont.is_constant():
        out.extend(_factor_squarefree_tower(cont))
        poly = exact_divide(poly, cont, _LEX)
    elif cont.constant_value() not in (0, 1):
        poly = exact_divide(poly, cont, _LEX)
    for base, mult in _yun(poly, var):
        if not base.is_constant():
            out.append((base, mult))
    return out


def _yun(poly: Polynomial, var: str) -> list[tuple[Polynomial, int]]:
    """Yun's square-free decomposition w.r.t. ``var``."""
    d = poly.derivative(var)
    if d.is_zero():
        # poly is free of var (shouldn't happen: var in variables) or a
        # polynomial in other variables only.
        return [(poly, 1)]
    g = polynomial_gcd(poly, d)
    if g.is_constant():
        return [(poly, 1)]
    out: list[tuple[Polynomial, int]] = []
    b = exact_divide(poly, g, _LEX)
    c = exact_divide(d, g, _LEX)
    i = 1
    while True:
        w = c - b.derivative(var)
        if w.is_zero():
            if not b.is_constant():
                out.append((b, i))
            break
        a = polynomial_gcd(b, w)
        if not a.is_constant():
            out.append((a, i))
        b = exact_divide(b, a, _LEX)
        c = exact_divide(w, a, _LEX)
        i += 1
        if b.is_constant():
            break
    return out


def _factor_primitive(poly: Polynomial) -> list[tuple[Polynomial, int]]:
    """Factor a primitive square-free polynomial as far as we can."""
    if poly.is_constant():
        return []
    variables = poly.variables
    if len(variables) == 1:
        return [(p, 1) for p in _factor_univariate(poly, variables[0])]
    return [(p, 1) for p in _factor_multivariate(poly)]


def _factor_multivariate(poly: Polynomial) -> list[Polynomial]:
    """Split a multivariate polynomial via contents in each variable."""
    for var in poly.variables:
        cont = content_in(poly, var)
        if not cont.is_constant():
            prim = exact_divide(poly, cont, _LEX)
            return _factor_multivariate_or_uni(cont) + _factor_multivariate_or_uni(prim)
    homogeneous = _factor_homogeneous(poly)
    if homogeneous is not None:
        return homogeneous
    # A general two-block split by substitution is out of scope; keep whole.
    return [poly.primitive_part()]


def _is_homogeneous(poly: Polynomial) -> bool:
    """True iff every term has the same total degree."""
    degrees = {sum(powers.values()) for powers, _ in poly.iter_terms()}
    return len(degrees) == 1


def _homogenize(poly: Polynomial, pivot: str) -> Polynomial:
    """Make ``poly`` homogeneous by padding each term with ``pivot``."""
    target = poly.total_degree()
    v = Polynomial.variable(pivot)
    result = Polynomial.zero()
    for powers, coeff in poly.iter_terms():
        deficit = target - sum(powers.values())
        result = result + Polynomial.monomial(powers, coeff) * v ** deficit
    return result


def _factor_homogeneous(poly: Polynomial) -> list[Polynomial] | None:
    """Split a homogeneous polynomial by dehomogenizing one variable.

    ``x^3 + y^3 -> (x + y)(x^2 - x*y + y^2)`` via factoring ``x^3 + 1``
    and re-homogenizing each factor (factors of a homogeneous
    polynomial are homogeneous).  Returns ``None`` when the trick does
    not apply or finds nothing to split.
    """
    if not _is_homogeneous(poly):
        return None
    pivot = poly.variables[-1]
    dehomogenized = poly.substitute({pivot: 1}).primitive_part()
    if dehomogenized.is_constant():
        return None
    parts = _factor_multivariate_or_uni(dehomogenized)
    if len(parts) <= 1:
        return None
    rebuilt = Polynomial.one()
    factors = []
    for part in parts:
        lifted = _homogenize(part, pivot).primitive_part()
        factors.append(lifted)
        rebuilt = rebuilt * lifted
    try:
        cofactor = exact_divide(poly, rebuilt, _LEX)
    except SymbolicError:
        return None   # lift failed to reproduce the input; keep whole
    # The cofactor is c * pivot^k (degree lost in dehomogenization).
    k = cofactor.degree_in(pivot)
    factors.extend([Polynomial.variable(pivot)] * max(k, 0))
    return factors


def _factor_multivariate_or_uni(poly: Polynomial) -> list[Polynomial]:
    if poly.is_constant():
        return []
    if len(poly.variables) == 1:
        return _factor_univariate(poly, poly.variables[0])
    return _factor_multivariate(poly)


def _factor_univariate(poly: Polynomial, var: str) -> list[Polynomial]:
    """Rational roots + quadratic + binomial patterns, recursively."""
    poly = poly.primitive_part()
    degree = poly.degree_in(var)
    if degree <= 1:
        return [poly]

    factors: list[Polynomial] = []
    work = poly
    # Exhaust rational roots.
    root = _find_rational_root(work, var)
    while root is not None and work.degree_in(var) > 1:
        linear = (Polynomial.variable(var) * root.denominator
                  - Polynomial.constant(root.numerator))
        factors.append(linear.primitive_part())
        work = exact_divide(work, linear, _LEX).primitive_part()
        root = _find_rational_root(work, var)

    degree = work.degree_in(var)
    if degree == 2:
        factors.extend(_factor_quadratic(work, var))
    elif degree >= 2:
        binomial = _factor_binomial(work, var)
        if binomial is not None:
            factors.extend(binomial)
        elif degree >= 1:
            factors.append(work)
    elif degree == 1:
        factors.append(work)
    elif not work.is_constant() or work.constant_value() != 1:
        if not work.is_constant():
            factors.append(work)
    return [f for f in factors if not f.is_constant()]


def _coeff_list(poly: Polynomial, var: str) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for power, coeff in poly.coefficients_in(var).items():
        if not coeff.is_constant():
            raise SymbolicError(f"{poly} is not univariate in {var}")
        out[power] = coeff.constant_value()
    return out


def _find_rational_root(poly: Polynomial, var: str) -> Fraction | None:
    """A rational root via the rational-root theorem, or None."""
    coeffs = _coeff_list(poly, var)
    degree = max(coeffs)
    low_power = min(coeffs)
    if low_power > 0:
        return Fraction(0)
    const = coeffs.get(0, Fraction(0))
    if const == 0:
        return Fraction(0)

    def divisors(n: int) -> list[int]:
        n = abs(n)
        out = [d for d in range(1, int(n ** 0.5) + 1) if n % d == 0]
        return sorted(set(out + [n // d for d in out]))

    # Clear denominators first so the theorem applies to integers.
    from math import lcm
    den = 1
    for c in coeffs.values():
        den = lcm(den, c.denominator)
    int_coeffs = {p: int(c * den) for p, c in coeffs.items()}
    p0 = int_coeffs.get(0, 0)
    pn = int_coeffs[degree]
    for num in divisors(p0):
        for d in divisors(pn):
            for sign in (1, -1):
                cand = Fraction(sign * num, d)
                if _eval_univariate(coeffs, cand) == 0:
                    return cand
    return None


def _eval_univariate(coeffs: dict[int, Fraction], x: Fraction) -> Fraction:
    total = Fraction(0)
    for power, coeff in coeffs.items():
        total += coeff * x ** power
    return total


def _factor_quadratic(poly: Polynomial, var: str) -> list[Polynomial]:
    """Split ``a x^2 + b x + c`` if the discriminant is a rational square."""
    coeffs = _coeff_list(poly, var)
    a = coeffs.get(2, Fraction(0))
    b = coeffs.get(1, Fraction(0))
    c = coeffs.get(0, Fraction(0))
    disc = b * b - 4 * a * c
    sqrt_disc = _fraction_sqrt(disc)
    if sqrt_disc is None:
        return [poly]
    x = Polynomial.variable(var)
    r1 = (-b + sqrt_disc) / (2 * a)
    r2 = (-b - sqrt_disc) / (2 * a)
    f1 = (x - Polynomial.constant(r1)).primitive_part()
    f2 = (x - Polynomial.constant(r2)).primitive_part()
    return [f1, f2]


def _fraction_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if value < 0:
        return None
    from math import isqrt
    num_root = isqrt(value.numerator)
    den_root = isqrt(value.denominator)
    if num_root * num_root == value.numerator and den_root * den_root == value.denominator:
        return Fraction(num_root, den_root)
    return None


def _factor_binomial(poly: Polynomial, var: str) -> list[Polynomial] | None:
    """Factor ``x^n - c`` (or ``+ c`` for odd n) one level via rational roots.

    Handles the difference-of-powers pattern: if ``c = r^n`` rationally,
    split off ``(x - r)``; also the difference of squares
    ``x^(2k) - c = (x^k - s)(x^k + s)`` when ``c = s^2``.
    """
    coeffs = _coeff_list(poly, var)
    if set(coeffs) - {0, max(coeffs)}:
        return None
    n = max(coeffs)
    lead = coeffs[n]
    const = coeffs.get(0, Fraction(0))
    if lead != 1 or const == 0 or n < 2:
        return None
    x = Polynomial.variable(var)
    if n % 2 == 0:
        s = _fraction_sqrt(-const)
        if s is not None:
            half = n // 2
            return (_factor_univariate(x ** half - Polynomial.constant(s), var)
                    + _factor_univariate(x ** half + Polynomial.constant(s), var))
    return None


def _merge(factors: list[tuple[Polynomial, int]]) -> list[tuple[Polynomial, int]]:
    """Combine equal bases and sort deterministically."""
    merged: dict[Polynomial, int] = {}
    for base, mult in factors:
        merged[base] = merged.get(base, 0) + mult
    return sorted(merged.items(),
                  key=lambda item: (item[0].total_degree(), str(item[0])))
