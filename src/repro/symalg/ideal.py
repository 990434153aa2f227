"""Ideal operations: simplification modulo side relations.

``simplify_modulo`` reproduces the Maple call the paper builds its
mapping algorithm around::

    > S := x + x^3*y^2 - 2*x*y^3
    > simplify(S, {p = x^2 - 2*y}, [x, y, p]);
    x + y^2*x*p

A *side relation* names a new symbol (``p``) and equates it to a
polynomial in the program variables.  Simplifying a target ``S`` modulo
a set of side relations rewrites as much of ``S`` as possible in terms
of the new symbols: we adjoin generators ``p - (x^2 - 2y)`` to an ideal,
compute its Groebner basis under a lex order in which the program
variables outrank the new symbols, and take the normal form of ``S``.
Because the program variables are "expensive" under that order, the
reduction eagerly replaces them with the library symbols — exactly the
rewriting step of the DAC'02 library-mapping algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from repro.errors import GroebnerExplosion, SymbolicError
from repro.symalg.division import reduce as nf_reduce
from repro.symalg.groebner import (DEFAULT_MAX_BASIS,
                                   DEFAULT_MAX_PAIRS, groebner_basis)
from repro.symalg.ordering import TermOrder
from repro.symalg.polynomial import Polynomial

__all__ = ["SideRelation", "simplify_modulo", "clear_ideal_caches"]


@lru_cache(maxsize=1024)
def _basis_or_explosion(generators: tuple[Polynomial, ...],
                        order: TermOrder,
                        max_basis: int, max_pairs: int):
    """Basis tuple, or the explosion message as a plain ``str`` sentinel.

    Explosions are cached too: the mapping search retries the same
    side-relation ideal across many nodes, and re-running Buchberger to
    its work limit on every retry would cost the full explosion each
    time.  (``lru_cache`` cannot memoize raised exceptions directly.)
    """
    try:
        return tuple(groebner_basis(generators, order,
                                    max_basis=max_basis,
                                    max_pairs=max_pairs))
    except GroebnerExplosion as exc:
        return str(exc)


def _cached_groebner_basis(generators: tuple[Polynomial, ...],
                           order: TermOrder,
                           max_basis: int, max_pairs: int
                           ) -> tuple[Polynomial, ...]:
    """Memoized Groebner basis of an ideal.

    The mapping search reduces against the *same* side-relation ideal at
    every node of a decomposition path; polynomials are immutable and
    hashable, so the basis is computed once per (generators, order)
    pair — and a cached explosion re-raises in O(1).
    """
    result = _basis_or_explosion(generators, order, max_basis, max_pairs)
    if isinstance(result, str):
        raise GroebnerExplosion(result)
    return result


def clear_ideal_caches() -> None:
    """Drop the memoized Groebner bases (mainly for benchmarks/tests)."""
    _basis_or_explosion.cache_clear()


@dataclass(frozen=True)
class SideRelation:
    """``name = polynomial``: a library element viewed as a rewrite rule.

    ``name`` is the fresh symbol standing for the element's output;
    ``polynomial`` is the element's polynomial representation over the
    program variables (and possibly other side-relation symbols).
    """

    name: str
    polynomial: Polynomial

    def __post_init__(self) -> None:
        if self.name in self.polynomial.variables:
            raise SymbolicError(
                f"side relation symbol {self.name!r} occurs in its own definition")

    def generator(self) -> Polynomial:
        """The ideal generator ``name - polynomial``."""
        return Polynomial.variable(self.name) - self.polynomial

    def __str__(self) -> str:
        return f"{self.name} = {self.polynomial}"


def _elimination_order(target: Polynomial,
                       relations: Sequence[SideRelation],
                       variable_order: Sequence[str] | None) -> TermOrder:
    """Lex order with program variables ahead of side-relation symbols.

    If ``variable_order`` is given it is used verbatim (the Maple
    convention, e.g. ``[x, y, p]``); otherwise program variables sort by
    name followed by relation symbols in relation order.
    """
    if variable_order is not None:
        return TermOrder("lex", tuple(variable_order))
    program_vars: set[str] = set(target.variables)
    for rel in relations:
        program_vars.update(rel.polynomial.variables)
    rel_names = [rel.name for rel in relations]
    program_vars -= set(rel_names)
    precedence = tuple(sorted(program_vars)) + tuple(rel_names)
    return TermOrder("lex", precedence)


def simplify_modulo(target: Polynomial,
                    relations: Iterable[SideRelation] | Mapping[str, Polynomial],
                    variable_order: Sequence[str] | None = None,
                    *,
                    max_basis: int = DEFAULT_MAX_BASIS,
                    max_pairs: int = DEFAULT_MAX_PAIRS) -> Polynomial:
    """Rewrite ``target`` in terms of the side-relation symbols.

    Parameters
    ----------
    target:
        Polynomial over the program variables.
    relations:
        Side relations, either as :class:`SideRelation` objects or as a
        ``{name: polynomial}`` mapping.
    variable_order:
        Optional explicit lex precedence (program variables first, then
        side-relation symbols), mirroring Maple's third argument.

    Returns the normal form of ``target`` modulo the Groebner basis of
    the side-relation ideal.  May raise
    :class:`~repro.errors.GroebnerExplosion` on pathological inputs.

    >>> from repro.symalg.polynomial import symbols
    >>> x, y = symbols("x y")
    >>> s = x + x**3 * y**2 - 2 * x * y**3
    >>> str(simplify_modulo(s, {"p": x**2 - 2*y}, ["x", "y", "p"]))
    'p*x*y^2 + x'

    (Maple prints the same polynomial as ``x + y^2*x*p``.)
    """
    rel_list = _as_relations(relations)
    if not rel_list:
        return target
    order = _elimination_order(target, rel_list, variable_order)
    basis = _cached_groebner_basis(
        tuple(rel.generator() for rel in rel_list), order,
        max_basis, max_pairs)
    return nf_reduce(target, basis, order)


def _as_relations(relations: Iterable[SideRelation] | Mapping[str, Polynomial]
                  ) -> list[SideRelation]:
    if isinstance(relations, Mapping):
        return [SideRelation(name, poly) for name, poly in relations.items()]
    return list(relations)
