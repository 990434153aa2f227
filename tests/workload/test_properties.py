"""Property-based tests for the parameterizable block builders.

Hypothesis drives the knobs the new workloads expose — FIR/correlation
coefficient values, window and transform dimensions — and pins three
invariants the conformance suite can only spot-check at the canonical
shapes:

* **builder correctness**: extracted polynomials carry *exactly* the
  coefficients the builder was given (the frontend's float->Fraction
  conversion is exact, so equality is exact);
* **monotone cost**: mapped cycle counts grow strictly with block
  size, for elements whose tallies scale with the work;
* **Pareto consistency**: fronts drawn from generated cost/accuracy
  landscapes are mutually non-dominated subsets of the match list.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MappingSession, SessionConfig
from repro.library import Library, LibraryElement
from repro.library.builtin import _linear_rows
from repro.platform import Badge4, OperationTally
from repro.workload import kernels
from repro.workload.dsp import fir_block
from repro.workload.gsm import energy_block, xcorr_block
from repro.workload.jpeg import idct_row_block

# Extraction per example is milliseconds but not free; cap the example
# count well under hypothesis' default and drop the per-example
# deadline (first-call numpy warm-up would trip it).
SETTINGS = settings(max_examples=15, deadline=None)

# Dyadic floats survive arithmetic exactly; magnitudes stay small so
# generated matrices are well-conditioned enough to stay meaningful.
coefficients = st.integers(min_value=-64, max_value=64).map(
    lambda n: n / 16.0)


@pytest.fixture(autouse=True)
def _isolated(isolated_cache_env):
    yield


class TestBuilderCoefficients:
    @SETTINGS
    @given(taps=st.lists(coefficients, min_size=2, max_size=5),
           n_out=st.integers(min_value=1, max_value=4))
    def test_fir_polynomials_carry_the_given_taps(self, taps, n_out):
        block = fir_block(taps, n_out, name="fir_prop")
        assert len(block.outputs) == n_out
        assert len(block.input_variables) == n_out + len(taps) - 1
        for i, poly in enumerate(block.outputs.values()):
            assert poly.total_degree() <= 1
            for k, tap in enumerate(taps):
                assert poly.coefficient({f"x_{i + k}": 1}) == Fraction(tap)

    @SETTINGS
    @given(taps=st.lists(coefficients, min_size=2, max_size=8))
    def test_xcorr_polynomial_carries_the_given_weights(self, taps):
        block = xcorr_block(taps, name="xcorr_prop")
        (poly,) = block.outputs.values()
        for k, tap in enumerate(taps):
            assert poly.coefficient({f"x_{k}": 1}) == Fraction(tap)

    @SETTINGS
    @given(n=st.integers(min_value=1, max_value=8))
    def test_energy_polynomial_is_the_sum_of_squares(self, n):
        block = energy_block(n, name="energy_prop")
        (poly,) = block.outputs.values()
        assert poly.total_degree() == 2
        for k in range(n):
            assert poly.coefficient({f"x_{k}": 2}) == 1

    @SETTINGS
    @given(n=st.integers(min_value=2, max_value=6))
    def test_idct_row_matches_the_basis_matrix(self, n):
        basis = kernels.idct_basis(n)
        block = idct_row_block(n, name="idct_prop")
        for i, poly in enumerate(block.outputs.values()):
            for j in range(n):
                assert poly.coefficient({f"x_{j}": 1}) == Fraction(
                    float(basis[i, j]))


def _fir_library(taps, n_out: int) -> Library:
    """A single exact-match FIR element whose tally scales with size."""
    matrix = kernels.fir_matrix(np.asarray(taps, dtype=float), n_out)
    return Library("prop", [LibraryElement(
        name=f"fir_{n_out}", library="IH",
        polynomials=_linear_rows(matrix),
        input_format="q16.15", output_format="q16.15", accuracy=1e-6,
        cost=OperationTally(int_mac=n_out * len(taps),
                            load=2 * n_out * len(taps), store=n_out))])


class TestMonotoneCycles:
    @SETTINGS
    @given(taps=st.lists(coefficients.filter(lambda v: v != 0),
                         min_size=2, max_size=4),
           sizes=st.sets(st.integers(min_value=1, max_value=5),
                         min_size=2, max_size=3))
    def test_mapped_fir_cycles_grow_with_output_count(self, taps, sizes):
        # Nonzero taps only: an all-zero window degenerates to the zero
        # block, which rightly has no match.
        platform = Badge4()
        cycles = []
        for n_out in sorted(sizes):
            block = fir_block(taps, n_out, name=f"fir_{n_out}")
            winner = MappingSession(SessionConfig()).map(
                block, _fir_library(taps, n_out), platform).winner
            assert winner is not None
            cycles.append(platform.cost_model.cycles(winner.element.cost))
        assert cycles == sorted(cycles)
        assert len(set(cycles)) == len(cycles), (
            f"cycle counts {cycles} must grow strictly with block size")


class TestFrontConsistency:
    @SETTINGS
    @given(landscape=st.lists(
        st.tuples(st.integers(min_value=1, max_value=1000),  # mac tally
                  st.floats(min_value=1e-12, max_value=1e-2)),  # accuracy
        min_size=1, max_size=6, unique=True))
    def test_fronts_are_non_dominated_subsets_of_the_matches(
            self, landscape):
        n = 4
        matrix = kernels.idct_basis(n)
        elements = [LibraryElement(
            name=f"el_{i}", library="IH",
            polynomials=_linear_rows(matrix),
            input_format="q16.15", output_format="q16.15",
            accuracy=accuracy, cost=OperationTally(int_mac=mac))
            for i, (mac, accuracy) in enumerate(landscape)]
        block = idct_row_block(n, name="idct_front_prop")
        result = MappingSession(SessionConfig()).pareto(
            block, Library("prop", elements), Badge4())
        assert result.front
        names = {m.element.name for m in result.result.matches}
        for p in result.front:
            assert p.element_name in names
            for q in result.front:
                assert p is q or not p.objectives.dominates(q.objectives)
