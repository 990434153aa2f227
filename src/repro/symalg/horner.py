"""Horner (nested) form of multivariate polynomials.

The paper uses Horner transforms both as a candidate-generation
manipulation and to cost residual polynomial code after mapping: the
Horner form of a polynomial evaluates with the minimal number of
multiplications among nesting schemes over a fixed variable order.

The multivariate algorithm follows Maple's ``convert(S, 'horner',
[x, y])``: collect by powers of the first variable, recursively Horner
each coefficient in the remaining variables, then nest:

    S = y^2*x + y*x^2 + 4*x*y + x^2 + 2*x
    convert(S, 'horner', [x, y])  =  (2 + (4 + y)*y + (y + 1)*x)*x

The terms are decoded once, each to the variables it uses, and
grouped once: each level buckets its terms by the first variable they
use and groups a bucket by that variable's power, on plain lists of
``(powers, coefficient)`` terms.  No coefficient polynomial is built,
and each term is handled once per variable it uses, so a linear form
in n variables costs O(n), not the O(n^2) of re-collecting
coefficients at every level.  The shape is the classic recursion's,
node for node.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from repro.symalg.expression import Add, Const, Expression, Mul, Var, flatten
from repro.symalg.polynomial import Polynomial

__all__ = ["horner"]

#: A term being nested: ``((depth, exponent), ...)`` and its coefficient.
_Term = tuple[tuple[tuple[int, int], ...], Fraction]


def horner(poly: Polynomial, variable_order: Sequence[str] | None = None
           ) -> Expression:
    """Return the nested (Horner) expression of ``poly``.

    ``variable_order`` selects nesting priority; variables not listed
    are appended sorted by name.  The returned expression evaluates to
    the same function as ``poly``.

    >>> x, y = Polynomial.variable("x"), Polynomial.variable("y")
    >>> s = y**2*x + y*x**2 + 4*x*y + x**2 + 2*x
    >>> str(horner(s, ["x", "y"]))
    '((y + 1) * x + (y + 4) * y + 2) * x'

    (Term order aside, this is Maple's ``(2+(4+y)*y+(y+1)*x)*x``.)
    """
    order = _full_order(poly, variable_order)
    return flatten(_horner(_decode(poly, order), order))


def _full_order(poly: Polynomial, variable_order: Sequence[str] | None
                ) -> list[str]:
    listed = list(variable_order) if variable_order else []
    rest = sorted(set(poly.variables) - set(listed))
    return [v for v in listed if v in poly.variables] + rest


def _decode(poly: Polynomial, order: list[str]) -> list[_Term]:
    """``poly``'s terms, each with the ``(depth, exponent)`` pairs of the
    variables it uses, ascending by depth in ``order``."""
    depth = {name: i for i, name in enumerate(order)}
    return [(tuple(sorted((depth[name], e) for name, e in powers.items())), coeff)
            for powers, coeff in poly.iter_terms()]


def _horner(terms: list[_Term], order: list[str]) -> Expression:
    # Bucket the terms by the first variable they use (depths no term
    # uses are skipped); a term with no variable left is the constant.
    buckets: dict[int, list[_Term]] = {}
    constant = None
    for powers, coeff in terms:
        if powers:
            buckets.setdefault(powers[0][0], []).append((powers, coeff))
        else:
            constant = coeff
    return _nest(sorted(buckets.items()), 0, constant, order)


def _nest(buckets: list[tuple[int, list[_Term]]], index: int,
          constant: Fraction | None, order: list[str]) -> Expression:
    """Horner form of the terms in ``buckets[index:]`` plus ``constant``.

    ``buckets[index]`` holds the terms in its depth's variable ``x``:
    grouped by their power of ``x``, each group's rest is nested on its
    own.  The terms without ``x`` (the later buckets and the constant)
    are the coefficient of ``x^0``.
    """
    if index == len(buckets):
        return Const(Fraction(0) if constant is None else constant)
    depth, terms = buckets[index]
    groups: dict[int, list[_Term]] = {}
    for powers, coeff in terms:
        groups.setdefault(powers[0][1], []).append((powers[1:], coeff))
    coeffs = [(power, _horner(groups[power], order))
              for power in sorted(groups, reverse=True)]
    if index + 1 < len(buckets) or constant is not None:
        coeffs.append((0, _nest(buckets, index + 1, constant, order)))

    # Nest from the highest power down:  (((c_n) x + c_{n-1}) x + ...)
    # skipping absent powers by multiplying with x^gap (costed as
    # repeated multiplication, like the emitted code would be).
    x = Var(order[depth])
    previous_power, acc = coeffs[0]
    for power, coeff_expr in coeffs[1:]:
        gap = previous_power - power
        acc = Add((Mul((acc, _power(x, gap))), coeff_expr))
        previous_power = power
    if previous_power:
        acc = Mul((acc, _power(x, previous_power)))
    return acc


def _power(base: Expression, exponent: int) -> Expression:
    if exponent == 1:
        return base
    return Mul(tuple([base] * exponent))
