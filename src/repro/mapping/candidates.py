"""Candidate generation: ``AllManipulations`` of Table 2.

"The algorithm also applies tree-height reduction, factorization,
substitution, expansion, and Horner-based transform on S.  As a result,
there are several polynomials representing the target code (exp_tree),
which can [be] used to guide the initial side relation selection
process."

Each manipulation yields an equivalent form of the target; the forms'
*structure* (factors, nested groups) seeds which side relations the
branch-and-bound tries first at depth 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.mapping.cache import HINTS_CACHE, MANIPULATIONS_CACHE
from repro.symalg.expression import Expression
from repro.symalg.factor import factor
from repro.symalg.horner import horner
from repro.symalg.polynomial import Polynomial
from repro.symalg.treeheight import reduce_tree_height

__all__ = ["CandidateForm", "all_manipulations", "structural_hints"]


@dataclass(frozen=True)
class CandidateForm:
    """One equivalent representation of the target."""

    label: str
    expression: Expression

    def op_count(self):
        """Operation counts of this form's expression tree."""
        return self.expression.op_count()


def all_manipulations(target: Polynomial) -> list[CandidateForm]:
    """The manipulation set of Table 2, deduplicated by rendering.

    Memoized on the target polynomial — factorization and tree-height
    reduction are the expensive parts of candidate seeding, and the
    Decompose search asks for the same target's forms repeatedly.
    """
    cached = MANIPULATIONS_CACHE.get(target)
    if cached is not None:
        return list(cached)
    forms = _all_manipulations_uncached(target)
    MANIPULATIONS_CACHE.put(target, tuple(forms))
    return forms


def _all_manipulations_uncached(target: Polynomial) -> list[CandidateForm]:
    forms: list[CandidateForm] = []

    expanded = horner(target, list(target.variables))  # canonical nesting
    forms.append(CandidateForm("horner", expanded))

    if len(target.variables) > 1:
        reverse = list(reversed(target.variables))
        forms.append(CandidateForm("horner-reversed", horner(target, reverse)))

    factorization = factor(target)
    factors = factorization.factors
    nontrivial = len(factors) > 1 or any(m > 1 for _, m in factors)
    if nontrivial:
        # Rebuild a factored expression: product of Horner'd factors.
        from fractions import Fraction

        from repro.symalg.expression import Const, Mul, Pow

        parts = []
        if factorization.unit != 1:
            parts.append(Const(Fraction(factorization.unit)))
        for base, mult in factorization.factors:
            nested = horner(base)
            parts.append(nested if mult == 1 else Pow(nested, mult))
        expr = parts[0] if len(parts) == 1 else Mul(tuple(parts))
        forms.append(CandidateForm("factored", expr))

    forms.append(CandidateForm("tree-height-reduced", reduce_tree_height(expanded)))

    seen: set[str] = set()
    unique: list[CandidateForm] = []
    for form in forms:
        key = str(form.expression)
        if key not in seen:
            seen.add(key)
            unique.append(form)
    return unique


def structural_hints(target: Polynomial) -> list[Polynomial]:
    """Sub-polynomials the manipulations expose, for seeding side relations.

    Factors (and square-free parts) of the target are natural "shapes"
    a library element might implement — the Decompose algorithm scores
    side relations that equal one of these hints first.  Memoized on
    the target polynomial.
    """
    cached = HINTS_CACHE.get(target)
    if cached is not None:
        return list(cached)
    hints = _structural_hints_uncached(target)
    HINTS_CACHE.put(target, tuple(hints))
    return hints


def _structural_hints_uncached(target: Polynomial) -> list[Polynomial]:
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
