"""Buchberger's algorithm for Groebner bases.

The paper's core symbolic operation — *simplification modulo a set of
polynomials* — is normal-form reduction with respect to a Groebner
basis of the side-relation ideal.  This module computes reduced
Groebner bases with Buchberger's algorithm plus the two classic
pair-pruning criteria:

* the **product (first) criterion**: S-polynomials of pairs with
  coprime leading monomials reduce to zero and are skipped;
* the **chain (second) criterion**: a pair ``(i, j)`` is skipped when
  some ``k`` has ``LT(g_k)`` dividing ``lcm(LT(g_i), LT(g_j))`` and the
  pairs ``(i, k)`` and ``(j, k)`` were already handled.

Pairs are processed by **normal selection**: ascending total degree of
their lcm, ties broken by pair index (sugar selection measured no
faster on the paper's Table-2 side-relation ideals).  The reduced
basis is canonical, so the selection order only decides how much
intermediate work the computation does.

Since the computation is worst-case doubly exponential, work limits
(basis size / pair count) guard against runaway instances and raise
:class:`~repro.errors.GroebnerExplosion`; the mapping search treats
that as a pruned branch.

Hot path
--------
The whole computation runs on *packed* monomial codes over one shared
variable frame (arranged into the order's precedence): basis elements
live as plain dicts, leading terms are computed once per element and
cached in a parallel list, S-pairs sit in a heap keyed by the total
degree of their lcm (normal selection), and S-polynomial construction
plus reduction reuse the packed division core — no intermediate
:class:`Polynomial` objects anywhere in the loop.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Sequence

from repro.errors import DivisionError, GroebnerExplosion
from repro.symalg.division import _coeff_div, _leading, _reduce_codes
from repro.symalg.monomials import coprime, degree, divides, guard_mask, lcm
from repro.symalg.ordering import GREVLEX, TermOrder
from repro.symalg.polynomial import Polynomial

__all__ = ["s_polynomial", "groebner_basis", "is_groebner_basis",
           "DEFAULT_MAX_BASIS", "DEFAULT_MAX_PAIRS"]

#: Default work limits, shared with the callers that memoize bases
#: (see :mod:`repro.symalg.ideal`) so cache keys stay consistent.
DEFAULT_MAX_BASIS = 200
DEFAULT_MAX_PAIRS = 5000


def s_polynomial(f: Polynomial, g: Polynomial,
                 order: TermOrder = GREVLEX) -> Polynomial:
    """The S-polynomial ``S(f, g)`` under ``order``.

    ``S(f,g) = (lcm/LT(f))*f - (lcm/LT(g))*g`` where ``lcm`` is the least
    common multiple of the two leading monomials; it cancels the leading
    terms against each other.

    >>> from repro.symalg.polynomial import symbols
    >>> x, y = symbols("x y")
    >>> str(s_polynomial(x**2 + y, x * y + 1))
    'y^2 - x'
    """
    union = tuple(sorted(set(f.variables) | set(g.variables)))
    frame = order.frame(union)
    key = order.code_key(len(frame))
    f_codes = f._codes_on(frame)
    g_codes = g._codes_on(frame)
    s = _s_poly_codes(f_codes, _leading(f_codes, key),
                      g_codes, _leading(g_codes, key),
                      guard_mask(len(frame)))
    return Polynomial._from_frame(frame, s)


def _s_poly_codes(f_codes: dict, f_lt: int, g_codes: dict, g_lt: int,
                  guard: int) -> dict:
    """Packed S-polynomial of two term dicts on a shared frame.

    ``guard`` is the frame's guard mask; a cofactor addition that sets a
    guard bit would corrupt a neighbouring exponent field and raises
    instead (same contract as the division core).
    """
    common = lcm(f_lt, g_lt)
    cof_f = common - f_lt
    cof_g = common - g_lt
    f_lc = f_codes[f_lt]
    g_lc = g_codes[g_lt]
    out: dict = {}
    for code, coeff in f_codes.items():
        k = code + cof_f
        if k & guard:
            raise GroebnerExplosion(
                "S-polynomial exponent overflowed the packed monomial range")
        out[k] = _coeff_div(coeff, f_lc)
    get = out.get
    for code, coeff in g_codes.items():
        k = code + cof_g
        if k & guard:
            raise GroebnerExplosion(
                "S-polynomial exponent overflowed the packed monomial range")
        v = get(k, 0) - _coeff_div(coeff, g_lc)
        if v:
            out[k] = v
        else:
            del out[k]
    return out


def _monic_codes(codes: dict, lt: int) -> dict:
    """Scale a packed term dict so the leading coefficient is 1."""
    lc = codes[lt]
    if lc == 1:
        return codes
    return {code: _coeff_div(coeff, lc) for code, coeff in codes.items()}


def groebner_basis(generators: Iterable[Polynomial],
                   order: TermOrder = GREVLEX,
                   *,
                   max_basis: int = DEFAULT_MAX_BASIS,
                   max_pairs: int = DEFAULT_MAX_PAIRS) -> list[Polynomial]:
    """Compute the reduced Groebner basis of the ideal of ``generators``.

    The result is monic, inter-reduced, and sorted leading-term
    descending, hence canonical for the given order.

    >>> from repro.symalg.polynomial import symbols
    >>> x, y = symbols("x y")
    >>> [str(p) for p in groebner_basis([x**2 - y, y**2 - 1])]
    ['x^2 - y', 'y^2 - 1']

    Raises
    ------
    GroebnerExplosion
        If the basis grows beyond ``max_basis`` elements or more than
        ``max_pairs`` S-pairs are processed.
    """
    gens = [g for g in generators if not g.is_zero()]
    if not gens:
        return []

    union = sorted({v for g in gens for v in g.variables})
    frame = order.frame(tuple(union))
    n = len(frame)
    guard = guard_mask(n)
    key = order.code_key(n)

    basis: list[dict] = []
    lts: list[int] = []
    # The division view of the basis, grown in lockstep with it.
    divisors: list[tuple[int, object, dict]] = []
    for g in gens:
        codes = g._codes_on(frame)
        lt = _leading(codes, key)
        monic = _monic_codes(codes, lt)
        basis.append(monic)
        lts.append(lt)
        divisors.append((lt, 1, monic))

    # S-pairs in a heap of (lcm total degree, i, j): normal selection.
    pair_heap: list[tuple[int, int, int]] = []

    def push_pair(i: int, j: int) -> None:
        heapq.heappush(pair_heap, (degree(lcm(lts[i], lts[j])), i, j))

    for i in range(len(basis)):
        for j in range(i):
            push_pair(i, j)
    done: set[tuple[int, int]] = set()
    processed = 0

    while pair_heap:
        processed += 1
        if processed > max_pairs:
            raise GroebnerExplosion(
                f"Buchberger exceeded {max_pairs} S-pairs")
        _, i, j = heapq.heappop(pair_heap)
        done.add((i, j))

        if coprime(lts[i], lts[j]):
            continue  # product criterion
        if _chain_criterion(i, j, lts, guard, done):
            continue

        s_codes = _s_poly_codes(basis[i], lts[i], basis[j], lts[j], guard)
        try:
            remainder = _reduce_codes(s_codes, divisors, key, guard)
        except DivisionError as exc:
            # Runaway intermediate degrees are an explosion to callers
            # (the mapping search treats it as a pruned branch).
            raise GroebnerExplosion(str(exc)) from exc
        if not remainder:
            continue
        lt = _leading(remainder, key)
        monic = _monic_codes(remainder, lt)
        basis.append(monic)
        lts.append(lt)
        divisors.append((lt, 1, monic))
        if len(basis) > max_basis:
            raise GroebnerExplosion(
                f"Groebner basis grew beyond {max_basis} elements")
        new_index = len(basis) - 1
        for k in range(new_index):
            push_pair(new_index, k)

    return _reduce_basis(basis, lts, frame, key, guard)


def _chain_criterion(i: int, j: int, lts: Sequence[int], guard: int,
                     done: set[tuple[int, int]]) -> bool:
    """Buchberger's second criterion for pair (i, j)."""
    lcm_ij = lcm(lts[i], lts[j])
    for k in range(len(lts)):
        if k in (i, j):
            continue
        if not divides(lts[k], lcm_ij, guard):
            continue
        pair_ik = (max(i, k), min(i, k))
        pair_jk = (max(j, k), min(j, k))
        if pair_ik in done and pair_jk in done:
            return True
    return False


def _reduce_basis(basis: list[dict], lts: list[int], frame: tuple[str, ...],
                  key, guard: int) -> list[Polynomial]:
    """Minimize then inter-reduce the basis (reduced Groebner basis)."""
    # Minimal: drop g whose leading term is divisible by another's.
    minimal: list[tuple[dict, int]] = []
    for i, (g, lt_g) in enumerate(zip(basis, lts)):
        dominated = False
        for j, lt_h in enumerate(lts):
            if i == j:
                continue
            if divides(lt_h, lt_g, guard) and not (lt_h == lt_g and j > i):
                dominated = True
                break
        if not dominated:
            minimal.append((g, lt_g))

    # Reduced: replace each element by its normal form modulo the others.
    reduced: list[tuple[dict, int]] = []
    for i, (g, _lt) in enumerate(minimal):
        others = [(lt, 1, codes) for k, (codes, lt) in enumerate(minimal)
                  if k != i]
        if others:
            g = _reduce_codes(dict(g), others, key, guard)
        if g:
            lt = _leading(g, key)
            reduced.append((_monic_codes(g, lt), lt))

    # Sorting leading-first makes the output deterministic.
    sort_key = key or (lambda code: code)
    reduced.sort(key=lambda item: sort_key(item[1]), reverse=True)
    return [Polynomial._from_frame(frame, dict(codes)) for codes, _ in reduced]


def is_groebner_basis(basis: Sequence[Polynomial],
                      order: TermOrder = GREVLEX) -> bool:
    """Check the Buchberger criterion: all S-polynomials reduce to zero."""
    from repro.symalg.division import reduce as nf_reduce
    basis = [g for g in basis if not g.is_zero()]
    for i in range(len(basis)):
        for j in range(i):
            s_poly = s_polynomial(basis[i], basis[j], order)
            if not nf_reduce(s_poly, basis, order).is_zero():
                return False
    return True
