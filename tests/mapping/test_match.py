"""Tests for element instantiation and block matching."""

import pytest

from repro.frontend import ArrayInput, extract_block
from repro.library import LibraryElement, full_library
from repro.mapping import Instantiation, enumerate_instantiations, match_block
from repro.platform import OperationTally
from repro.symalg import Polynomial, symbols

x, y, z = symbols("x y z")


def element(poly, name="e", accuracy=1e-9):
    return LibraryElement(name=name, library="IH", polynomials=(poly,),
                          input_format="q", output_format="q",
                          accuracy=accuracy, cost=OperationTally(int_mul=1))


class TestInstantiation:
    def test_small_arity_permutations(self):
        e = element(Polynomial.variable("in0") ** 2
                    - 2 * Polynomial.variable("in1"))
        target = x ** 2 - 2 * y + z
        insts = enumerate_instantiations(e, target)
        bindings = {tuple(b for _f, b in i.binding) for i in insts}
        assert ("x", "y") in bindings

    def test_bound_polynomial(self):
        e = element(Polynomial.variable("in0") * Polynomial.variable("in1"))
        target = x * y
        insts = enumerate_instantiations(e, target)
        assert any(i.bound_polynomial() == x * y for i in insts)

    def test_side_relation_symbol(self):
        e = element(Polynomial.variable("in0") + 1, name="incr")
        insts = enumerate_instantiations(e, x + 1)
        assert insts[0].side_relation().name == "incr_out"

    def test_tagged_symbols_unique(self):
        from dataclasses import replace
        e = element(Polynomial.variable("in0") + 1, name="incr")
        inst = enumerate_instantiations(e, x + 1)[0]
        tagged = replace(inst, tag="2")
        assert tagged.output_symbol == "incr_out_2"
        assert inst.output_symbol == "incr_out"

    def test_bound_polynomial_memo_ignores_the_tag(self, isolated_cache_env):
        """Tagged copies of one binding share one memo entry, and
        ``clear_shared_caches`` empties the memo."""
        from dataclasses import replace

        from repro.mapping import clear_shared_caches, shared_cache_stats
        e = element(Polynomial.variable("in0") * Polynomial.variable("in1"))
        inst = Instantiation(e, (("in0", "x"), ("in1", "y")))
        first = inst.bound_polynomial()
        assert replace(inst, tag="1").side_relation().polynomial is first
        memo = shared_cache_stats()["instantiations"]
        assert (memo["size"], memo["hits"], memo["misses"]) == (1, 1, 1)
        clear_shared_caches()
        assert shared_cache_stats()["instantiations"]["size"] == 0
        assert inst.bound_polynomial() == x * y

    def test_constant_target_yields_nothing(self):
        e = element(Polynomial.variable("in0"))
        assert enumerate_instantiations(e, Polynomial.constant(5)) == []

    def test_limit_respected(self):
        e = element(Polynomial.variable("in0") * Polynomial.variable("in1"))
        target = x * y * z + x + y + z
        insts = enumerate_instantiations(e, target, limit=3)
        assert len(insts) <= 3


class TestLinearBinding:
    def test_large_linear_form_binds_by_coefficients(self):
        # Element: 2*in0 + 3*in1 + 5*in2 + 7*in3 (arity 4 -> coefficient path)
        poly = (2 * Polynomial.variable("in0") + 3 * Polynomial.variable("in1")
                + 5 * Polynomial.variable("in2") + 7 * Polynomial.variable("in3"))
        e = element(poly, name="lin")
        a, b, c, d = symbols("a b c d")
        target = 7 * d + 5 * c + 3 * b + 2 * a
        insts = enumerate_instantiations(e, target)
        assert len(insts) == 1
        assert insts[0].bound_polynomial() == target

    def test_coefficient_mismatch_fails(self):
        poly = (2 * Polynomial.variable("in0") + 3 * Polynomial.variable("in1")
                + 5 * Polynomial.variable("in2") + 7 * Polynomial.variable("in3"))
        e = element(poly, name="lin")
        a, b, c, d = symbols("a b c d")
        target = 7 * d + 5 * c + 3 * b + 999 * a
        assert enumerate_instantiations(e, target) == []


class TestBlockMatch:
    @pytest.fixture(scope="class")
    def imdct_block(self):
        from repro.mp3.tables import IMDCT_COS_36
        return extract_block("""
def imdct(y, c):
    out = [0] * 36
    for i in range(36):
        s = 0
        for k in range(18):
            s = s + c[i][k] * y[k]
        out[i] = s
    return out
""", [ArrayInput("y", (18,)),
            ArrayInput("c", (36, 18), values=IMDCT_COS_36.tolist())])

    def test_imdct_block_matches_library_imdcts(self, imdct_block):
        lib = full_library()
        got = match_block(lib.get("IppsMDCTInv_MP3_32s"), imdct_block)
        assert got is not None
        assert got.max_coefficient_error < 1e-9

    def test_output_count_mismatch_rejected(self, imdct_block):
        lib = full_library()
        assert match_block(lib.get("float_SubBandSyn"), imdct_block) is None

    def test_perturbed_block_rejected(self, imdct_block):
        """Coefficients off by more than tolerance must not match."""
        from repro.mp3.tables import IMDCT_COS_36
        wrong = IMDCT_COS_36 + 0.01
        block = extract_block("""
def imdct(y, c):
    out = [0] * 36
    for i in range(36):
        s = 0
        for k in range(18):
            s = s + c[i][k] * y[k]
        out[i] = s
    return out
""", [ArrayInput("y", (18,)), ArrayInput("c", (36, 18), values=wrong.tolist())])
        lib = full_library()
        assert match_block(lib.get("IppsMDCTInv_MP3_32s"), block,
                           tolerance=1e-6) is None
