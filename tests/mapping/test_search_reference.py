"""The Decompose search against the search it replaced.

``_decompose_uncached`` skips a node that its transposition table shows
dominated (an expanded node with the same polynomial and cost, accuracy
and depth each no larger), shares bound polynomials across bindings and
ranks each bound polynomial against the hints once.  The search it
replaced is kept below verbatim as the reference: ``reference_decompose``
(the old loop) with its ``_candidate_instantiations`` and ``_Node``.
Wherever the reference empties its frontier, the new search must return
the identical best cover and explore no more nodes; where the reference
stops at ``max_nodes``, the new search's cover may only be cheaper.

A golden (``search_golden.json`` beside this file) holds the best cover
of the six perfbench decompose targets and the paper's ``sq2y`` demo,
recorded with the reference search.  It is an oracle: regenerate it
only for a change that is meant to move an answer, with
``PYTHONPATH=src python tests/mapping/test_search_reference.py``.
"""

import heapq
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.errors import GroebnerExplosion
from repro.library import Library, LibraryElement, full_library
from repro.mapping import structural_hints
from repro.mapping.decompose import (DecomposeResult, MappingSolution,
                                     _decompose_uncached, _elimination_order,
                                     decompose, residual_cost)
from repro.mapping.match import Instantiation, enumerate_instantiations
from repro.platform import Badge4, OperationTally, platform_named
from repro.symalg import Polynomial, symbols, taylor
from repro.symalg.ideal import simplify_modulo

GOLDEN = Path(__file__).with_name("search_golden.json")


# ----------------------------------------------------------------------
# The reference: the search before the transposition table, verbatim
# ----------------------------------------------------------------------
@dataclass(order=True)
class _Node:
    priority: float
    counter: int
    polynomial: Polynomial = field(compare=False)
    steps: tuple[Instantiation, ...] = field(compare=False)
    cost: float = field(compare=False)
    accuracy: float = field(compare=False)


def reference_decompose(
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
    """The actual branch-and-bound search behind :func:`decompose`."""
    program_vars = frozenset(target.variables)
    hints = structural_hints(target) if use_hints else []

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
    explored = 0
    solutions = 1  # the unmapped fallback counts as found
    pruned = 0

    while frontier and explored < max_nodes:
        node = heapq.heappop(frontier)
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

        for inst in _candidate_instantiations(
            node.polynomial, library, program_vars, hints, tolerance
        ):
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

    return DecomposeResult(best, explored, solutions, pruned)


def _candidate_instantiations(
    poly: Polynomial,
    library: Library,
    program_vars: frozenset[str],
    hints: list[Polynomial],
    tolerance: float,
) -> list[Instantiation]:
    """Side-relation candidates for one node, best-first.

    Ranking implements the paper's guidance: relations whose bound
    polynomial *is* the node (exact cover) come first, then relations
    matching one of the target's structural hints (this reproduction's
    ``AllManipulations`` guidance), then the rest by ascending element
    cost.
    """
    remaining = set(poly.variables) & program_vars
    if not remaining:
        return []
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
            elif any(bound_poly.almost_equal(h, tolerance) for h in hints):
                rank = 1
            else:
                rank = 2
            scored.append((rank, float(element.cost.total_ops()), inst))
    scored.sort(key=lambda t: (t[0], t[1]))
    return [inst for _, _, inst in scored[:24]]


# ----------------------------------------------------------------------
# Random targets: compositions of a small library over x, y, z
# ----------------------------------------------------------------------
_IN = [Polynomial.variable(f"in{i}") for i in range(3)]
_VARIABLES = symbols("x y z")


def _element(name, poly, accuracy, **cost):
    return LibraryElement(name=name, library="IH", polynomials=(poly,),
                          input_format="q", output_format="q",
                          accuracy=accuracy, cost=OperationTally(**cost))


SMALL_LIBRARY = Library("reference", [
    _element("sq2y", _IN[0] ** 2 - 2 * _IN[1], 1e-9, int_mul=1, int_alu=1),
    _element("mac", _IN[0] * _IN[1] + _IN[2], 3e-5, int_mac=1),
    _element("cube", _IN[0] ** 3, 2e-5, int_mul=2),
    _element("sq", _IN[0] ** 2, 1e-5, int_mul=1),
    _element("incr", _IN[0] + 1, 0.0, int_alu=1),
])
_POLYS = {e.name: e.polynomials[0] for e in SMALL_LIBRARY}
SEARCH_KNOBS = dict(tolerance=1e-9, accuracy_budget=float("inf"),
                    use_hints=True, use_bounding=True)
#: ``max_nodes`` per ``max_depth``: about half the examples finish.
NODE_CAPS = {2: 240, 3: 160}


@st.composite
def composed_targets(draw):
    """``sum(c * v * e(...))``: library elements applied to some of
    x, y, z or to one more application, scaled by a variable or 1."""
    variables = _VARIABLES[:draw(st.integers(min_value=1, max_value=3))]

    def application(depth):
        poly = _POLYS[draw(st.sampled_from(sorted(_POLYS)))]
        args = {}
        for formal in poly.variables:
            if depth and draw(st.booleans()):
                args[formal] = application(depth - 1)
            else:
                args[formal] = draw(st.sampled_from(variables))
        return poly.substitute(args)

    target = Polynomial.constant(0)
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        coeff = draw(st.sampled_from([1, -1, 2, -3]))
        scale = draw(st.sampled_from((1,) + variables))
        target = target + coeff * scale * application(1)
    return target


def _cover(solution: MappingSolution) -> tuple:
    return ([str(step) for step in solution.steps], solution.residual,
            solution.element_cycles, solution.residual_cycles,
            solution.accuracy_loss)


@settings(max_examples=30, deadline=None)
@given(composed_targets(), st.sampled_from(sorted(NODE_CAPS)))
def test_search_agrees_with_the_reference(target, max_depth):
    # Depth 3 expands nodes reached at different depths, whose
    # children carry differently tagged output symbols.
    platform = Badge4()
    knobs = dict(SEARCH_KNOBS, max_depth=max_depth, max_nodes=NODE_CAPS[max_depth])
    old = reference_decompose(target, SMALL_LIBRARY, platform, **knobs)
    new = _decompose_uncached(target, SMALL_LIBRARY, platform, **knobs)
    event(f"reference finished: {old.nodes_explored < knobs['max_nodes']}")
    if old.nodes_explored < knobs["max_nodes"]:
        # The reference emptied its frontier: its best is the optimum.
        assert _cover(new.best) == _cover(old.best)
        assert new.nodes_explored <= old.nodes_explored
        assert not new.truncated
    else:
        # Cut off at max_nodes: the skipped revisits leave the new
        # search more of the tree within the same cap.
        assert new.best.total_cycles <= old.best.total_cycles


# ----------------------------------------------------------------------
# The golden: perfbench's decompose targets and the paper's demo
# ----------------------------------------------------------------------
def golden_cases() -> dict:
    """``{name: (target, library, accuracy_budget)}``, as perfbench's
    ``cold_pipeline`` submits them, plus the one-element ``sq2y`` demo."""
    x, y = symbols("x y")
    paper = x + x ** 3 * y ** 2 - 2 * x * y ** 3
    library = full_library()
    cases = {
        "paper_side_relation": (paper, library, float("inf")),
        "cube_difference": ((x + y) ** 3 - x ** 3 - y ** 3, library, float("inf")),
    }
    arg = {"_arg": x}
    for fn in ("exp", "sin", "cos", "log1p"):
        cases[f"taylor_{fn}"] = (taylor(fn, 4).substitute(arg), library, 5e-2)
    demo = Library("demo", [_element("sq2y", _IN[0] ** 2 - 2 * _IN[1], 1e-9,
                                     int_mul=1, int_alu=1)])
    cases["sq2y_demo"] = (paper, demo, float("inf"))
    return cases


def best_cover(name: str) -> dict:
    target, library, budget = golden_cases()[name]
    result = decompose(target, library, platform_named("SA-1110"),
                       accuracy_budget=budget)
    steps, residual, element_cycles, residual_cycles, accuracy = _cover(result.best)
    return {"steps": steps, "residual": str(residual),
            "element_cycles": element_cycles, "residual_cycles": residual_cycles,
            "accuracy_loss": accuracy}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(golden_cases())


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_best_cover_matches_the_golden(name):
    assert best_cover(name) == _golden()[name]


@pytest.mark.parametrize("name, expanded", [("paper_side_relation", 189),
                                            ("cube_difference", 125)])
def test_each_distinct_polynomial_is_expanded_once(name, expanded):
    """The reference explores 402 and 340 nodes for these targets, but
    only 189 and 125 distinct polynomials."""
    target, library, budget = golden_cases()[name]
    result = decompose(target, library, platform_named("SA-1110"),
                       accuracy_budget=budget)
    assert result.nodes_explored == expanded
    assert not result.truncated


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {name: best_cover(name) for name in sorted(golden_cases())}, indent=1) + "\n")
    print(f"wrote {GOLDEN}")
