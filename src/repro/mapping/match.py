"""Matching library elements against target polynomials.

An element's polynomial representation lives over formal inputs
(``in0``...); using it as a side relation requires an *instantiation*:
a binding of formals to the target's variables under which the
substituted polynomial appears in (or equals) the target, within the
paper's "acceptable tolerance".

Two matching modes:

* :func:`enumerate_instantiations` — candidate bindings of a scalar
  element against a target polynomial.  Linear forms bind by
  coefficient comparison; small-arity algebraic elements (``mac``,
  side-relation style kernels) bind by bounded injective search.
* :func:`match_block` — multi-output elements (IMDCT, subband
  matrixing) against a :class:`~repro.frontend.TargetBlock`, binding
  formals to the block's inputs positionally and checking every row's
  coefficients within tolerance.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from repro.frontend.extract import TargetBlock
from repro.library.element import LibraryElement
from repro.mapping.cache import INSTANTIATIONS_CACHE, element_digest
from repro.symalg.ideal import SideRelation
from repro.symalg.polynomial import Polynomial

__all__ = [
    "Instantiation",
    "BlockMatch",
    "enumerate_instantiations",
    "match_block",
]

_INDEX_RE = re.compile(r"(\d+)")


def _natural_key(name: str):
    return [int(p) if p.isdigit() else p for p in _INDEX_RE.split(name)]


@dataclass(frozen=True)
class Instantiation:
    """A concrete use of an element: formals bound to target variables.

    ``tag`` disambiguates repeated uses of the same element along one
    mapping path (each application introduces a fresh output symbol).
    """

    element: LibraryElement
    binding: tuple[tuple[str, str], ...]  # (formal, target var) pairs
    output_index: int = 0
    tag: str = ""

    @property
    def output_symbol(self) -> str:
        """The fresh symbol this application introduces (tag-suffixed)."""
        base = self.element.output_symbol(self.output_index)
        return f"{base}_{self.tag}" if self.tag else base

    def bound_polynomial(self) -> Polynomial:
        """The element polynomial over the target's variables.

        Memoized per ``(element digest, binding, output index)``: the
        tag only renames the output symbol, so it stays out of the key,
        and enumeration, ranking and the side relation of every tagged
        copy share one ``substitute``.
        """
        key = (element_digest(self.element), self.binding, self.output_index)
        bound = INSTANTIATIONS_CACHE.get(key)
        if bound is None:
            mapping = {
                formal: Polynomial.variable(actual) for formal, actual in self.binding
            }
            bound = self.element.polynomials[self.output_index].substitute(mapping)
            INSTANTIATIONS_CACHE.put(key, bound)
        return bound

    def side_relation(self) -> SideRelation:
        """``output_symbol = bound polynomial`` for the simplifier."""
        return SideRelation(self.output_symbol, self.bound_polynomial())

    def __str__(self) -> str:
        binds = ", ".join(f"{f}={a}" for f, a in self.binding)
        return f"{self.element.name}({binds})"


@dataclass(frozen=True)
class BlockMatch:
    """A multi-output element covering a whole target block."""

    element: LibraryElement
    binding: tuple[tuple[str, str], ...]
    max_coefficient_error: float

    def __str__(self) -> str:
        return (
            f"{self.element.name} covers block "
            f"(err={self.max_coefficient_error:.2g})"
        )


def _is_simple_linear(poly: Polynomial) -> bool:
    """True for sums of single-variable degree-1 terms (no constant mix)."""
    for powers, _ in poly.iter_terms():
        if len(powers) > 1 or any(e != 1 for e in powers.values()):
            return False
    return True


def enumerate_instantiations(
    element: LibraryElement,
    target: Polynomial,
    tolerance: float = 1e-9,
    limit: int = 16,
) -> list[Instantiation]:
    """Candidate bindings of a (scalar-output) element against ``target``.

    Results are *candidates* for the Decompose search — each produces a
    side relation; whether it actually simplifies the target is decided
    by the Groebner reduction, not here.  Bindings may repeat a target
    variable across formals (``mac(x, x, y)`` computes ``x^2 + y``),
    which MAC-style decomposition chains rely on; candidates are ranked
    by how many of the target's monomials the bound polynomial shares.
    """
    out: list[tuple[int, Instantiation]] = []
    target_vars = sorted(target.variables, key=_natural_key)
    if not target_vars:
        return []
    target_monomials = {frozenset(p.items()) for p, _c in target.iter_terms() if p}
    for output_index, poly in enumerate(element.polynomials):
        formals = tuple(sorted(poly.variables, key=_natural_key))
        if not formals:
            continue
        if _is_simple_linear(poly) and len(formals) > 3:
            binding = _linear_binding(poly, formals, target, tolerance)
            if binding is not None:
                out.append((0, Instantiation(element, binding, output_index)))
            continue
        if len(formals) > 3 or len(target_vars) > 8:
            continue  # bounded search only
        for combo in itertools.product(target_vars, repeat=len(formals)):
            inst = Instantiation(element, tuple(zip(formals, combo)), output_index)
            bound = inst.bound_polynomial()
            if bound.is_constant():
                continue
            shared = sum(
                1
                for p, _c in bound.iter_terms()
                if p and frozenset(p.items()) in target_monomials
            )
            out.append((-shared, inst))
    out.sort(key=lambda pair: pair[0])
    return [inst for _score, inst in out[:limit]]


def _linear_binding(
    poly: Polynomial,
    formals: tuple[str, ...],
    target: Polynomial,
    tolerance: float,
) -> tuple[tuple[str, str], ...] | None:
    """Bind a large linear form by coefficient values.

    Each formal's coefficient must appear (within tolerance) as the
    coefficient of exactly one target variable.
    """
    target_coeffs: dict[str, float] = {}
    for powers, coeff in target.iter_terms():
        if len(powers) == 1:
            ((var, e),) = powers.items()
            if e == 1:
                target_coeffs[var] = float(coeff)
    binding: list[tuple[str, str]] = []
    used: set[str] = set()
    for formal in formals:
        want = float(poly.coefficient({formal: 1}))
        found = None
        for var, have in target_coeffs.items():
            if var in used:
                continue
            if abs(have - want) <= tolerance * max(1.0, abs(want)):
                found = var
                break
        if found is None:
            return None
        used.add(found)
        binding.append((formal, found))
    return tuple(binding)


def match_block(
    element: LibraryElement, block: TargetBlock, tolerance: float = 1e-9
) -> BlockMatch | None:
    """Match a multi-output element against a whole target block.

    Formals bind to the block's input variables positionally (both
    sorted naturally: ``in0 -> y_0``, ``in1 -> y_1``, ...); the match
    succeeds when every element row equals the corresponding block
    output within coefficient tolerance.
    """
    outputs = [block.outputs[k] for k in sorted(block.outputs, key=_natural_key)]
    if element.n_outputs != len(outputs):
        return None
    formals = sorted(element.formals, key=_natural_key)
    inputs = sorted(dict.fromkeys(block.input_variables), key=_natural_key)
    if len(formals) != len(inputs):
        return None
    mapping = {f: Polynomial.variable(a) for f, a in zip(formals, inputs)}
    worst = 0.0
    for row_poly, target_poly in zip(element.polynomials, outputs):
        bound = row_poly.substitute(mapping)
        distance = bound.max_coefficient_distance(target_poly)
        worst = max(worst, distance)
        if worst > tolerance:
            return None
    return BlockMatch(element, tuple(zip(formals, inputs)), worst)
