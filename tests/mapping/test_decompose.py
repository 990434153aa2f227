"""Tests for the branch-and-bound Decompose algorithm (Table 2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MappingSession, SessionConfig
from repro.library import Library, LibraryElement, full_library
from repro.mapping import decompose, residual_cost, structural_hints
from repro.platform import Badge4, OperationTally
from repro.symalg import Polynomial, symbols

x, y, z = symbols("x y z")
PLATFORM = Badge4()


def element(poly, name="e", cost_ops=1, accuracy=1e-9):
    return LibraryElement(name=name, library="IH", polynomials=(poly,),
                          input_format="q", output_format="q",
                          accuracy=accuracy,
                          cost=OperationTally(int_mul=cost_ops))


def in_vars(n):
    return [Polynomial.variable(f"in{i}") for i in range(n)]


class TestPaperExample:
    """The DATE'02-style decomposition the paper builds on."""

    def test_side_relation_mapping(self):
        i0, i1 = in_vars(2)
        lib = Library("demo", [element(i0 ** 2 - 2 * i1, "sq2y")])
        target = x + x ** 3 * y ** 2 - 2 * x * y ** 3
        result = decompose(target, lib, PLATFORM)
        assert result.mapped
        assert result.best.element_names() == ["sq2y"]
        # Residual is exactly the paper's  x + y^2*x*p.
        p = Polynomial.variable("sq2y_out")
        assert result.best.residual == x + x * y ** 2 * p

    def test_solution_cheaper_than_unmapped(self):
        i0, i1 = in_vars(2)
        lib = Library("demo", [element(i0 ** 2 - 2 * i1, "sq2y")])
        target = x + x ** 3 * y ** 2 - 2 * x * y ** 3
        result = decompose(target, lib, PLATFORM)
        assert result.best.total_cycles < residual_cost(target, PLATFORM)


class TestExactCover:
    def test_target_equal_to_element(self):
        i0, = in_vars(1)
        lib = Library("demo", [element(i0 ** 2 + i0 + 1, "q")])
        target = x ** 2 + x + 1
        result = decompose(target, lib, PLATFORM)
        assert result.mapped
        assert result.best.residual == Polynomial.variable("q_out")

    def test_mac_decomposition(self):
        """a*b + c covered by one MAC element."""
        i0, i1, i2 = in_vars(3)
        lib = Library("demo", [element(i0 * i1 + i2, "mac")])
        a, b, c = symbols("a b c")
        result = decompose(a * b + c, lib, PLATFORM)
        assert result.mapped
        assert result.best.element_names() == ["mac"]

    def test_two_step_cover(self):
        """(x+1)^2 via sq after incr: nested element use."""
        i0, = in_vars(1)
        lib = Library("demo", [element(i0 + 1, "incr", cost_ops=1),
                               element(i0 ** 2, "sq", cost_ops=1)])
        target = (x + 1) ** 2
        result = decompose(target, lib, PLATFORM, max_depth=3)
        assert result.mapped
        # Either direct expansion via sq(x) ... or incr-then-sq; both map.
        assert result.best.total_cycles < residual_cost(target, PLATFORM)


class TestBounding:
    def test_no_useful_element_returns_unmapped(self):
        i0, = in_vars(1)
        lib = Library("demo", [element(i0 ** 5, "fifth")])
        target = x + 1
        result = decompose(target, lib, PLATFORM)
        assert not result.mapped
        assert result.best.residual == target

    def test_expensive_element_pruned(self):
        """An element costlier than evaluating the target is never used."""
        i0, = in_vars(1)
        costly = LibraryElement(
            name="gold", library="IPP", polynomials=(i0 ** 2,),
            input_format="q", output_format="q", accuracy=0,
            cost=OperationTally(fp_div=100_000))
        lib = Library("demo", [costly])
        target = x ** 2
        result = decompose(target, lib, PLATFORM)
        assert not result.mapped
        assert result.pruned >= 1

    def test_accuracy_budget_excludes_sloppy_elements(self):
        i0, = in_vars(1)
        sloppy = element(i0 ** 2, "sloppy", accuracy=0.5)
        lib = Library("demo", [sloppy])
        target = x ** 2
        strict = decompose(target, lib, PLATFORM, accuracy_budget=1e-3)
        assert not strict.mapped
        loose = decompose(target, lib, PLATFORM, accuracy_budget=1.0)
        assert loose.mapped

    def test_cheapest_of_equivalent_elements_wins(self):
        """Four log-style implementations: best performance is chosen."""
        i0, = in_vars(1)
        lib = Library("demo", [
            element(i0 ** 3 + i0, "slow", cost_ops=500),
            element(i0 ** 3 + i0, "fast", cost_ops=2),
        ])
        target = x ** 3 + x
        result = decompose(target, lib, PLATFORM)
        assert result.best.element_names() == ["fast"]

    def test_node_limit_respected(self):
        i0, i1 = in_vars(2)
        lib = Library("demo", [element(i0 * i1, "mul2")])
        target = (x * y + y * z + x * z) ** 2
        result = decompose(target, lib, PLATFORM, max_nodes=10)
        assert result.nodes_explored <= 10
        assert result.truncated

    def test_finished_search_is_not_truncated(self):
        """The node-limit target finishes (306 nodes) under the default cap."""
        i0, i1 = in_vars(2)
        lib = Library("demo", [element(i0 * i1, "mul2")])
        target = (x * y + y * z + x * z) ** 2
        result = decompose(target, lib, PLATFORM)
        assert result.nodes_explored < 500
        assert not result.truncated

    def test_candidate_cap_drops_are_counted(self):
        """The paper's target has more ranked candidates per node than
        the per-node cap keeps; the dropped ones are reported."""
        target = x + x ** 3 * y ** 2 - 2 * x * y ** 3
        result = decompose(target, full_library(), PLATFORM)
        assert result.candidates_dropped > 0
        assert not result.truncated
        demo = decompose(target, Library("demo", [element(in_vars(1)[0] ** 2)]),
                         PLATFORM)
        assert demo.candidates_dropped == 0


class TestSemanticEquivalence:
    def test_mapped_program_agrees_with_target(self):
        from repro.mapping import rewrite
        i0, i1 = in_vars(2)
        lib = Library("demo", [element(i0 ** 2 - 2 * i1, "sq2y")])
        target = x + x ** 3 * y ** 2 - 2 * x * y ** 3
        program = rewrite(decompose(target, lib, PLATFORM).best)

        # The search runs once; the examples vary only the evaluation point.
        @settings(max_examples=15, deadline=None)
        @given(st.integers(-5, 5), st.integers(-5, 5))
        def agrees(px, py):
            env = {"x": px, "y": py}
            assert program.evaluate(env) == target.evaluate(env)

        agrees()


class TestCandidates:
    def test_structural_hints_include_factors(self):
        target = (x ** 2 - 2 * y) * z
        hints = structural_hints(target)
        assert any(h == x ** 2 - 2 * y for h in hints)

    def test_structural_hints_include_horner_coefficient_groups(self):
        target = x ** 2 * (y + 1) + x * (y ** 2 + 3) + 5
        assert structural_hints(target) == [y + 1, y ** 2 + 3]

    def test_structural_hints_list_a_shared_shape_once(self):
        # y + 1 is both a factor and the coefficient of x.
        assert structural_hints(x * (y + 1)) == [x, y + 1]

    def test_structural_hints_skip_the_target_and_constants(self):
        # Irreducible, with constant coefficient groups: nothing to seed.
        assert structural_hints(x ** 2 + 1) == []


def _map(block, library):
    return MappingSession(SessionConfig()).map(block, library, PLATFORM)


class TestBlockMapping:
    def test_imdct_block_selects_ipp(self):
        from repro.workload.mp3 import imdct_block
        result = _map(imdct_block(), full_library())
        assert result.winner.element.name == "IppsMDCTInv_MP3_32s"
        assert {m.element.name for m in result.matches} == {
            "IppsMDCTInv_MP3_32s", "fixed_IMDCT", "float_IMDCT"}

    def test_imdct_block_without_ipp_selects_fixed(self):
        """Table 4's world: no IPP library yet -> in-house fixed wins."""
        from repro.library import (inhouse_library, linux_math_library,
                                   reference_library)
        from repro.library.catalog import Library as Lib
        from repro.workload.mp3 import imdct_block
        lib = Lib.union(reference_library(), linux_math_library(),
                        inhouse_library())
        assert _map(imdct_block(), lib).winner.element.name == "fixed_IMDCT"

    def test_matrixing_block_selects_ipp_synth(self):
        from repro.workload.mp3 import matrixing_block
        winner = _map(matrixing_block(), full_library()).winner
        assert winner.element.name == "ippsSynthPQMF_MP3_32s16s"

    def test_no_match_returns_none(self):
        from repro.workload.mp3 import imdct_block
        empty = Library("empty")
        result = _map(imdct_block(), empty)
        assert result.winner is None
        assert result.matches == ()
