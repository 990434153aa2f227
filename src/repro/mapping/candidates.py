"""Candidate guidance: this reproduction's ``AllManipulations`` (Table 2).

"The algorithm also applies tree-height reduction, factorization,
substitution, expansion, and Horner-based transform on S.  As a result,
there are several polynomials representing the target code (exp_tree),
which can [be] used to guide the initial side relation selection
process."

The search reads one product of that step: the *structure* the
manipulations expose — the target's factors and the coefficient groups
a Horner nesting would compute.  :func:`structural_hints` returns those
sub-polynomials, and the branch-and-bound tries side relations that
equal one of them first.
"""

from __future__ import annotations

from repro.symalg.factor import factor
from repro.symalg.polynomial import Polynomial

__all__ = ["structural_hints"]


def structural_hints(target: Polynomial) -> list[Polynomial]:
    """Sub-polynomials the manipulations expose, for seeding side relations.

    Factors (and square-free parts) of the target are natural "shapes"
    a library element might implement — the Decompose algorithm scores
    side relations that equal one of these hints first.  Not memoized:
    each search calls it once, and a repeated search is answered from
    the decompose cache before it starts.
    """
    hints: list[Polynomial] = []
    factorization = factor(target)
    for base, _mult in factorization.factors:
        if not base.is_constant() and base != target:
            hints.append(base)
    # Univariate coefficient groups of the leading variable expose the
    # "inner" polynomials a Horner nesting would compute.
    if target.variables:
        main = target.variables[0]
        for _power, coeff in target.coefficients_in(main).items():
            if not coeff.is_constant() and coeff != target:
                hints.append(coeff)
    unique: list[Polynomial] = []
    seen: set[Polynomial] = set()
    for hint in hints:
        if hint not in seen:
            seen.add(hint)
            unique.append(hint)
    return unique
