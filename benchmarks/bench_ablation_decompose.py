"""Ablation: the two accelerators inside the Decompose search.

DESIGN.md calls out two design choices in the mapping algorithm that
the paper motivates but does not measure: (1) manipulation-guided
candidate ordering ("used to guide the initial side relation selection
process") and (2) branch-and-bound cost pruning.  This bench measures
both: with either disabled the search must still find the same-cost
solution, but explore at least as many nodes (strictly more on the
compound target).
"""

import pytest

from repro.library import Library, LibraryElement
from repro.mapping import clear_shared_caches, decompose
from repro.platform import OperationTally
from repro.symalg import Polynomial, symbols

x, y, z = symbols("x y z")


def _go_cold() -> None:
    """Drop every process-wide memo so each measured run searches for
    real (``decompose`` itself caches nothing; the warm-cache story
    belongs to bench_table2, not here)."""
    clear_shared_caches()


def _library():
    i0 = Polynomial.variable("in0")
    i1 = Polynomial.variable("in1")
    i2 = Polynomial.variable("in2")
    return Library("ablation", [
        LibraryElement(name="sq2y", library="IH",
                       polynomials=(i0 ** 2 - 2 * i1,),
                       input_format="q", output_format="q", accuracy=1e-9,
                       cost=OperationTally(int_mul=2, int_alu=1)),
        LibraryElement(name="mac", library="IH",
                       polynomials=(i0 * i1 + i2,),
                       input_format="q", output_format="q", accuracy=1e-9,
                       cost=OperationTally(int_mac=1)),
        LibraryElement(name="cube", library="IH",
                       polynomials=(i0 ** 3,),
                       input_format="q", output_format="q", accuracy=1e-9,
                       cost=OperationTally(int_mul=2)),
    ])


_TARGET = x + x ** 3 * y ** 2 - 2 * x * y ** 3


def test_ablation_full_algorithm(benchmark, platform, report):
    _go_cold()
    result = benchmark.pedantic(
        decompose, args=(_TARGET, _library(), platform),
        kwargs={"max_nodes": 30}, rounds=1, iterations=1)
    assert result.mapped
    report(f"\nAblation baseline: {result.nodes_explored} nodes, "
           f"{result.pruned} pruned, best={result.best.total_cycles:.0f} cyc")


def test_ablation_without_bounding(benchmark, platform, report):
    full = decompose(_TARGET, _library(), platform, max_nodes=30)
    _go_cold()
    result = benchmark.pedantic(
        decompose, args=(_TARGET, _library(), platform),
        kwargs={"max_nodes": 30, "use_bounding": False},
        rounds=1, iterations=1)
    assert result.mapped
    # Same quality...
    assert result.best.total_cycles == pytest.approx(full.best.total_cycles)
    # ...at least as much work.
    assert result.nodes_explored >= full.nodes_explored
    report(f"\nno bounding: {result.nodes_explored} nodes "
           f"(vs {full.nodes_explored} with bounding)")


def test_ablation_without_hints(benchmark, platform, report):
    full = decompose(_TARGET, _library(), platform, max_nodes=30)
    _go_cold()
    result = benchmark.pedantic(
        decompose, args=(_TARGET, _library(), platform),
        kwargs={"max_nodes": 30, "use_hints": False},
        rounds=1, iterations=1)
    assert result.mapped
    assert result.best.total_cycles == pytest.approx(full.best.total_cycles)
    report(f"\nno hints: {result.nodes_explored} nodes "
           f"(vs {full.nodes_explored} with hints)")
