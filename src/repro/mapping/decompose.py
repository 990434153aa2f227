"""The library-mapping algorithm (Table 2 of the paper).

``decompose`` searches for a cover of the target polynomial by library
elements:

* the *solution tree* holds partially simplified forms; the root is the
  target;
* the target's structural hints (:func:`~repro.mapping.candidates.structural_hints`:
  its factors and Horner coefficient groups) are this reproduction's
  ``AllManipulations`` guidance: side relations equal to a hint are
  tried first;
* each edge applies one side relation — an instantiated library element
  — via ``simplify`` modulo the side-relation ideal (Groebner normal
  form with the program variables outranking the element-output
  symbols);
* a node whose polynomial contains no program variables is a solution:
  the target is expressed entirely over element outputs (plus a cheap
  residual combination);
* the bound is the best cost seen so far, initialized with the cost of
  *not* mapping (evaluating the target itself, Horner-form, at
  reference prices) — ``boundVal[i] = Performance(exp_tree[i])`` in the
  paper's pseudo-code; branches whose element cost alone exceeds it are
  pruned;
* a *transposition table* holds, per node polynomial, the
  ``(cost, accuracy, depth)`` of every node already expanded for it: a
  node that one of them dominates is skipped, so each distinct
  polynomial is normally expanded once.

Worst case remains exponential (the paper says so too); node and depth
limits keep practice polite.  ``nodes_explored`` counts the expanded
nodes (skipped ones are not counted, nor charged to ``max_nodes``);
:class:`DecomposeResult` also says whether ``max_nodes`` cut the search
short (``truncated``) and how many ranked candidates the per-node cap
discarded (``candidates_dropped``).

The module-level :func:`decompose` is the plain, uncached search.  This
module also owns the two cache keys (``_decompose_key``,
``_map_block_key``) and the uncached work functions behind them; the
only code that reads or writes cache tiers with those keys is the
batch engine (:func:`repro.mapping.batch.run_batch`), which every
session call goes through.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field, replace

from repro.errors import GroebnerExplosion
from repro.frontend.extract import TargetBlock
from repro.library.catalog import Library
from repro.mapping.cache import (
    fingerprint_block,
    fingerprint_library,
    fingerprint_platform,
)
from repro.mapping.candidates import structural_hints
from repro.mapping.match import (
    BlockMatch,
    Instantiation,
    enumerate_instantiations,
    match_block,
)
from repro.platform.badge4 import Badge4
from repro.platform.tally import OperationTally
from repro.symalg.horner import horner
from repro.symalg.ideal import simplify_modulo
from repro.symalg.polynomial import Polynomial

__all__ = [
    "MappingSolution",
    "DecomposeResult",
    "decompose",
    "residual_cost",
]


def _decompose_key(
    target: Polynomial,
    library: Library,
    platform: Badge4,
    tolerance: float,
    accuracy_budget: float,
    max_depth: int,
    max_nodes: int,
    use_hints: bool,
    use_bounding: bool,
) -> tuple:
    """The cache key of one decompose work item.

    Built by the batch engine for every decompose item, so a batch
    prewarm and a later session call land on the same cache line — in
    memory (hashable tuple) and on disk (via
    :func:`~repro.mapping.cache.stable_digest`).  Polynomials, elements
    and libraries enter as content digests, so the key stays small.
    """
    return (
        "decompose",
        target.content_digest(),
        fingerprint_library(library),
        fingerprint_platform(platform),
        tolerance,
        accuracy_budget,
        max_depth,
        max_nodes,
        use_hints,
        use_bounding,
    )


def _map_block_key(
    block: TargetBlock,
    library: Library,
    platform: Badge4,
    tolerance: float,
    accuracy_budget: float,
) -> tuple:
    """The cache key of one block-match work item (see above)."""
    return (
        "map_block",
        fingerprint_block(block),
        fingerprint_library(library),
        fingerprint_platform(platform),
        tolerance,
        accuracy_budget,
    )


def residual_cost(poly: Polynomial, platform: Badge4) -> float:
    """Cycles to evaluate ``poly`` as generic (reference-grade) code.

    Horner-form operation counts priced as soft-float ops: the cost of
    leaving this piece of the target unmapped.
    """
    if poly.is_zero() or poly.is_constant():
        return 0.0
    count = horner(poly).op_count()
    tally = OperationTally(fp_add=count.adds, fp_mul=count.muls, fp_div=count.divs)
    tally.call += count.calls
    return platform.cost_model.cycles(tally)


@dataclass(frozen=True)
class MappingSolution:
    """A cover: the elements applied and the residual glue polynomial."""

    steps: tuple[Instantiation, ...]
    residual: Polynomial
    element_cycles: float
    residual_cycles: float
    accuracy_loss: float

    @property
    def total_cycles(self) -> float:
        """Element cost plus residual-evaluation cost, in cycles."""
        return self.element_cycles + self.residual_cycles

    def element_names(self) -> list[str]:
        """Names of the applied elements, in application order."""
        return [step.element.name for step in self.steps]

    def describe(self) -> str:
        """One-line human-readable account of the cover."""
        if not self.steps:
            return f"unmapped (residual {self.residual})"
        used = " + ".join(str(s) for s in self.steps)
        return f"{used}; residual = {self.residual}"


@dataclass(frozen=True)
class DecomposeResult:
    """Search outcome plus statistics (for the Table 2 runtime bench).

    ``nodes_explored`` counts expanded nodes; a node the transposition
    table skips is not one.  ``truncated`` is true when ``max_nodes``
    stopped the search while a node it would not skip was still
    waiting, so ``best`` may not be the best cover.
    ``candidates_dropped`` sums, over the expanded nodes, the ranked
    candidates past the per-node cap (24) that were never tried.

    Frozen: the cached search returns the same instance to every
    caller, so mutation would poison the cache.
    """

    best: MappingSolution
    nodes_explored: int
    solutions_found: int
    pruned: int
    truncated: bool = False
    candidates_dropped: int = 0

    @property
    def mapped(self) -> bool:
        """True iff the best solution uses at least one library element."""
        return bool(self.best.steps)


@dataclass(order=True)
class _Node:
    priority: float
    counter: int
    polynomial: Polynomial = field(compare=False)
    steps: tuple[Instantiation, ...] = field(compare=False)
    cost: float = field(compare=False)
    accuracy: float = field(compare=False)


#: Candidates tried per node, best-ranked first (see
#: :func:`_candidate_instantiations`).
_MAX_CANDIDATES = 24


def decompose(
    target: Polynomial,
    library: Library,
    platform: Badge4 | None = None,
    *,
    tolerance: float = 1e-9,
    accuracy_budget: float = float("inf"),
    max_depth: int = 3,
    max_nodes: int = 500,
    use_hints: bool = True,
    use_bounding: bool = True,
) -> DecomposeResult:
    """Map ``target`` into ``library`` elements (Table 2's ``Decompose``).

    Returns the best-cost solution with sufficient accuracy; if no
    element helps, the result is the unmapped solution (residual ==
    target).

    ``use_hints`` / ``use_bounding`` exist for ablation: they disable
    the hint-guided candidate ordering (the structural hints stand in
    for the paper's ``AllManipulations`` guidance) and the
    branch-and-bound cost pruning respectively (both on in the paper's
    algorithm).

    This function is the plain search and caches nothing; the memoized
    form (in-process LRU plus the optional disk tier, so repeated and
    cross-process decompositions are free) is
    :meth:`repro.api.MappingSession.decompose`.
    """
    return _decompose_uncached(
        target,
        library,
        platform or Badge4(),
        tolerance=tolerance,
        accuracy_budget=accuracy_budget,
        max_depth=max_depth,
        max_nodes=max_nodes,
        use_hints=use_hints,
        use_bounding=use_bounding,
    )


def _decompose_uncached(
    target: Polynomial,
    library: Library,
    platform: Badge4,
    *,
    tolerance: float,
    accuracy_budget: float,
    max_depth: int,
    max_nodes: int,
    use_hints: bool,
    use_bounding: bool,
) -> DecomposeResult:
    """The actual branch-and-bound search behind :func:`decompose`.

    Each derived value is computed once per search.  Bound polynomials
    are memoized per binding (:meth:`Instantiation.bound_polynomial`),
    a bound polynomial is ranked against the hints once
    (``hint_matches``), and a transposition table (``expanded``) keeps
    the ``(cost, accuracy, depth)`` of every expanded node per node
    polynomial.  A popped node is skipped when an expanded node with
    the same polynomial has cost, accuracy and depth each ``<=`` its
    own.  Skipping cannot change the answer:

    * both nodes have the same polynomial, so they have the same
      residual cost and the same candidates;
    * the dominated node's own candidate solution, and every node below
      it, cost at least as much (with at least the accuracy loss) as
      their counterparts under the dominating node, which reach the
      same polynomials up to fresh output symbols in no more steps;
    * ``best`` changes only on a strict ``<``, and the dominating node
      was popped first (the frontier pops in cost order, ties first in
      first out), so every counterpart was priced before the node it
      dominates.
    """
    program_vars = frozenset(target.variables)
    hints = structural_hints(target) if use_hints else []
    hint_matches: dict[Polynomial, bool] = {}

    unmapped = MappingSolution(
        steps=(),
        residual=target,
        element_cycles=0.0,
        residual_cycles=residual_cost(target, platform),
        accuracy_loss=0.0,
    )
    best = unmapped
    bound = unmapped.total_cycles

    counter = itertools.count()
    root = _Node(0.0, next(counter), target, (), 0.0, 0.0)
    frontier: list[_Node] = [root]
    expanded: dict[Polynomial, list[tuple[float, float, int]]] = {}
    explored = 0
    solutions = 1  # the unmapped fallback counts as found
    pruned = 0
    dropped = 0

    while frontier and explored < max_nodes:
        node = heapq.heappop(frontier)
        if _dominated(node, expanded):
            continue
        expanded.setdefault(node.polynomial, []).append(
            (node.cost, node.accuracy, len(node.steps))
        )
        explored += 1

        if node.steps:
            # Every simplified form is a candidate solution: the residual
            # (which may still involve program variables, as in the
            # paper's  x + y^2*x*p  example) is priced as generic code.
            res_cycles = residual_cost(node.polynomial, platform)
            total = node.cost + res_cycles
            solutions += 1
            if total < bound and node.accuracy <= accuracy_budget:
                bound = total
                best = MappingSolution(
                    node.steps, node.polynomial, node.cost, res_cycles, node.accuracy
                )

        residual_vars = program_vars & set(node.polynomial.variables)
        if not residual_vars:
            continue  # fully covered: no further side relation can help
        if len(node.steps) >= max_depth:
            continue

        candidates, cut = _candidate_instantiations(
            node.polynomial, library, program_vars, hints, hint_matches, tolerance
        )
        dropped += cut
        for inst in candidates:
            if len(node.steps):
                # Fresh output symbol per application along this path.
                inst = replace(inst, tag=str(len(node.steps)))
            element_cycles = platform.cost_model.cycles(inst.element.cost)
            cost = node.cost + element_cycles
            if use_bounding and cost >= bound:
                pruned += 1
                continue
            accuracy = node.accuracy + inst.element.accuracy
            if accuracy > accuracy_budget:
                pruned += 1
                continue

            # The paper's "within an acceptable tolerance" test: if the
            # bound element polynomial approximates the node wholesale
            # (e.g. the node is a truncation of the element's series),
            # accept an approximate full cover, charging the distance
            # to the accuracy budget.
            bound_poly = inst.bound_polynomial()
            distance = bound_poly.max_coefficient_distance(node.polynomial)
            allowed = max(inst.element.accuracy, tolerance)
            if 0 < distance <= allowed:
                approx_accuracy = accuracy + distance
                if approx_accuracy <= accuracy_budget:
                    heapq.heappush(
                        frontier,
                        _Node(
                            cost,
                            next(counter),
                            Polynomial.variable(inst.output_symbol),
                            node.steps + (inst,),
                            cost,
                            approx_accuracy,
                        ),
                    )
                    continue

            order = _elimination_order(node.polynomial, program_vars, inst)
            try:
                result = simplify_modulo(
                    node.polynomial, [inst.side_relation()], order
                )
            except GroebnerExplosion:
                pruned += 1
                continue
            if result == node.polynomial:
                continue  # the element did not participate
            heapq.heappush(
                frontier,
                _Node(
                    cost,
                    next(counter),
                    result,
                    node.steps + (inst,),
                    cost,
                    accuracy,
                ),
            )

    # The loop ends early only at max_nodes; the answer is cut short
    # when a node it would still have expanded is left behind.
    truncated = any(not _dominated(node, expanded) for node in frontier)
    return DecomposeResult(best, explored, solutions, pruned, truncated, dropped)


def _dominated(
    node: _Node, expanded: dict[Polynomial, list[tuple[float, float, int]]]
) -> bool:
    """True iff an expanded node with ``node``'s polynomial has cost,
    accuracy and depth each ``<=`` ``node``'s (the transposition table
    of :func:`_decompose_uncached`)."""
    depth = len(node.steps)
    return any(
        cost <= node.cost and accuracy <= node.accuracy and seen <= depth
        for cost, accuracy, seen in expanded.get(node.polynomial, ())
    )


def _elimination_order(
    poly: Polynomial, program_vars: frozenset[str], inst: Instantiation
) -> list[str]:
    """Program variables outrank every element-output symbol."""
    true_vars = sorted(set(poly.variables) & program_vars)
    rel_vars = sorted(
        (set(inst.side_relation().polynomial.variables) & program_vars)
        - set(true_vars)
    )
    symbols = sorted(set(poly.variables) - program_vars)
    return true_vars + rel_vars + symbols + [inst.output_symbol]


def _candidate_instantiations(
    poly: Polynomial,
    library: Library,
    program_vars: frozenset[str],
    hints: list[Polynomial],
    hint_matches: dict[Polynomial, bool],
    tolerance: float,
) -> tuple[list[Instantiation], int]:
    """Side-relation candidates for one node, best-first, plus the
    number of ranked candidates the ``_MAX_CANDIDATES`` cap dropped.

    Ranking implements the paper's guidance: relations whose bound
    polynomial *is* the node (exact cover) come first, then relations
    matching one of the target's structural hints (this reproduction's
    ``AllManipulations`` guidance), then the rest by ascending element
    cost.  ``hint_matches`` remembers, per bound polynomial, whether it
    matches a hint; the search owns it, since the hints are its own.
    """
    remaining = set(poly.variables) & program_vars
    if not remaining:
        return [], 0
    scored: list[tuple[int, float, Instantiation]] = []
    # Canonical (name-sorted) element order: tie-breaking and the
    # truncation below must not depend on library assembly order, or
    # the order-independent library fingerprint would be unsound.
    for element in sorted(library, key=lambda e: e.name):
        if element.n_outputs > 1:
            continue  # block elements are handled by the block match
        for inst in enumerate_instantiations(element, poly, tolerance):
            # Bindings may reference earlier element outputs (MAC-style
            # chaining); application tagging keeps symbols fresh, so
            # self-referential relations cannot arise.
            bound_poly = inst.bound_polynomial()
            if not set(bound_poly.variables) & remaining:
                continue
            if bound_poly.almost_equal(poly, tolerance):
                rank = 0
            else:
                matches = hint_matches.get(bound_poly)
                if matches is None:
                    matches = hint_matches[bound_poly] = any(
                        bound_poly.almost_equal(h, tolerance) for h in hints
                    )
                rank = 1 if matches else 2
            scored.append((rank, float(element.cost.total_ops()), inst))
    scored.sort(key=lambda t: (t[0], t[1]))
    kept = scored[:_MAX_CANDIDATES]
    return [inst for _, _, inst in kept], len(scored) - len(kept)


def _map_block_uncached(
    block: TargetBlock,
    library: Library,
    platform: Badge4,
    tolerance: float,
    accuracy_budget: float,
) -> tuple[BlockMatch | None, tuple[BlockMatch, ...]]:
    """One-step block matching, in LRU-value shape.

    This is the match that sends the IMDCT loop nest to
    ``IppsMDCTInv_MP3_32s``: every candidate element whose rows match
    the block's polynomials within tolerance is characterized, and the
    cheapest with sufficient accuracy wins.  Returns
    ``(winner_or_None, all_matches)``.
    """
    matches: list[BlockMatch] = []
    # Name-sorted for the same reason as _candidate_instantiations: the
    # cost-sort below must break ties independent of assembly order.
    for element in sorted(library, key=lambda e: e.name):
        if element.n_outputs != len(block.outputs):
            continue
        found = match_block(element, block, tolerance)
        if found is not None and element.accuracy <= accuracy_budget:
            matches.append(found)
    matches.sort(key=lambda m: platform.cost_model.cycles(m.element.cost))
    return (matches[0], tuple(matches)) if matches else (None, ())
