"""Hypothesis property tests: the polynomial ring axioms, the packed
monomial encoding, and friends."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symalg import Polynomial
from repro.symalg.monomials import (coprime, degree, divides, guard_mask,
                                    lcm, nonzero_fields, pack, remap,
                                    remap_table, unpack)

from .strategies import evaluation_points, polynomials

settings.register_profile("symalg", max_examples=60, deadline=None)
settings.load_profile("symalg")

#: Random exponent vectors for the packed-monomial suite.  Exponents
#: range far beyond anything polynomials produce but stay below the
#: per-field guard bit at 2**(SHIFT-1), the encoding's stated domain.
exponents = st.integers(min_value=0, max_value=1 << 20)
frame_sizes = st.integers(min_value=1, max_value=6)


@st.composite
def exponent_vector_pairs(draw):
    """Two exponent vectors over one shared frame."""
    n = draw(frame_sizes)
    vec = st.lists(exponents, min_size=n, max_size=n)
    return tuple(draw(vec)), tuple(draw(vec))


class TestPackedMonomials:
    """The packed encoding agrees with a naive tuple reference."""

    @given(st.lists(exponents, min_size=1, max_size=6))
    def test_pack_unpack_roundtrip(self, exps):
        assert unpack(pack(exps), len(exps)) == tuple(exps)

    @given(st.lists(st.one_of(st.just(0), exponents), max_size=40))
    def test_nonzero_fields_is_unpack_without_zeros(self, exps):
        expected = [(i, e) for i, e in enumerate(exps) if e]
        assert nonzero_fields(pack(exps), len(exps)) == expected

    @given(st.lists(exponents, min_size=1, max_size=6))
    def test_degree_is_sum_of_exponents(self, exps):
        assert degree(pack(exps)) == sum(exps)

    @given(exponent_vector_pairs())
    def test_guard_bit_divisibility_matches_naive(self, pair):
        a, b = pair
        naive = all(ea <= eb for ea, eb in zip(a, b))
        assert divides(pack(a), pack(b), guard_mask(len(a))) == naive

    @given(exponent_vector_pairs())
    def test_exact_divide_is_code_subtraction(self, pair):
        """Construct a divisible pair (b = a * q fieldwise) directly so
        every frame width exercises the subtraction, rather than
        filtering random pairs (almost never divisible on wide frames)."""
        a, q = pair
        b = tuple(ea + eq for ea, eq in zip(a, q))
        assert divides(pack(a), pack(b), guard_mask(len(a)))
        assert unpack(pack(b) - pack(a), len(a)) == q

    @given(exponent_vector_pairs())
    def test_multiply_is_code_addition(self, pair):
        a, b = pair
        assert unpack(pack(a) + pack(b), len(a)) == \
            tuple(ea + eb for ea, eb in zip(a, b))

    @given(exponent_vector_pairs())
    def test_lcm_matches_fieldwise_max(self, pair):
        a, b = pair
        assert unpack(lcm(pack(a), pack(b)), len(a)) == \
            tuple(max(ea, eb) for ea, eb in zip(a, b))

    @given(exponent_vector_pairs())
    def test_lcm_is_commutative_and_divisible_by_both(self, pair):
        a, b = pair
        guard = guard_mask(len(a))
        code = lcm(pack(a), pack(b))
        assert code == lcm(pack(b), pack(a))
        assert divides(pack(a), code, guard)
        assert divides(pack(b), code, guard)

    @given(exponent_vector_pairs())
    def test_coprime_matches_naive(self, pair):
        a, b = pair
        naive = not any(ea and eb for ea, eb in zip(a, b))
        assert coprime(pack(a), pack(b)) == naive

    @given(st.data())
    def test_remap_preserves_exponents_across_frames(self, data):
        n = data.draw(frame_sizes)
        src = tuple(f"v{i}" for i in range(n))
        exps = data.draw(st.lists(exponents, min_size=n, max_size=n))
        extra = data.draw(st.integers(min_value=0, max_value=3))
        dst = list(src) + [f"w{i}" for i in range(extra)]
        data.draw(st.randoms(use_true_random=False)).shuffle(dst)
        dst = tuple(dst)
        moved = remap(pack(exps), remap_table(src, dst))
        by_name = dict(zip(src, exps))
        assert unpack(moved, len(dst)) == \
            tuple(by_name.get(name, 0) for name in dst)


class TestRingAxioms:
    @given(polynomials(), polynomials())
    def test_addition_commutative(self, p, q):
        assert p + q == q + p

    @given(polynomials(), polynomials(), polynomials())
    def test_addition_associative(self, p, q, r):
        assert (p + q) + r == p + (q + r)

    @given(polynomials())
    def test_additive_identity(self, p):
        assert p + Polynomial.zero() == p

    @given(polynomials())
    def test_additive_inverse(self, p):
        assert (p + (-p)).is_zero()

    @given(polynomials(), polynomials())
    def test_multiplication_commutative(self, p, q):
        assert p * q == q * p

    @given(polynomials(max_terms=4), polynomials(max_terms=4), polynomials(max_terms=4))
    def test_multiplication_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    @given(polynomials())
    def test_multiplicative_identity(self, p):
        assert p * Polynomial.one() == p

    @given(polynomials(max_terms=4), polynomials(max_terms=4), polynomials(max_terms=4))
    def test_distributive(self, p, q, r):
        assert p * (q + r) == p * q + p * r

    @given(polynomials())
    def test_zero_annihilates(self, p):
        assert (p * Polynomial.zero()).is_zero()


class TestEvaluationHomomorphism:
    """evaluate() is a ring homomorphism: it commutes with + and *."""

    @given(polynomials(), polynomials(), evaluation_points)
    def test_add(self, p, q, point):
        assert (p + q).evaluate(point) == p.evaluate(point) + q.evaluate(point)

    @given(polynomials(max_terms=4), polynomials(max_terms=4), evaluation_points)
    def test_mul(self, p, q, point):
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)

    @given(polynomials(max_terms=4), evaluation_points)
    def test_pow(self, p, point):
        assert (p ** 3).evaluate(point) == p.evaluate(point) ** 3


class TestDerivativeRules:
    @given(polynomials(), polynomials())
    def test_linearity(self, p, q):
        got = (p + q).derivative("x")
        assert got == p.derivative("x") + q.derivative("x")

    @given(polynomials(max_terms=4), polynomials(max_terms=4))
    def test_product_rule(self, p, q):
        got = (p * q).derivative("x")
        assert got == p.derivative("x") * q + p * q.derivative("x")

    @given(polynomials(max_terms=4))
    def test_mixed_partials_commute(self, p):
        assert p.derivative("x").derivative("y") == p.derivative("y").derivative("x")


class TestSubstitutionRules:
    @given(polynomials(max_terms=4), polynomials(max_terms=3), evaluation_points)
    def test_substitution_composes_with_evaluation(self, p, q, point):
        """p[x := q](pt) == p(x := q(pt), ...)."""
        substituted = p.substitute({"x": q})
        env = dict(point)
        env["x"] = q.evaluate(point)
        assert substituted.evaluate(point) == p.evaluate(env)

    @given(polynomials(max_terms=4))
    def test_identity_substitution(self, p):
        x = Polynomial.variable("x")
        assert p.substitute({"x": x}) == p


class TestDegreeLaws:
    @given(polynomials(max_terms=4), polynomials(max_terms=4))
    def test_degree_of_product(self, p, q):
        if p.is_zero() or q.is_zero():
            return
        assert (p * q).total_degree() == p.total_degree() + q.total_degree()

    @given(polynomials(), polynomials())
    def test_degree_of_sum_bounded(self, p, q):
        s = p + q
        if s.is_zero():
            return
        assert s.total_degree() <= max(p.total_degree(), q.total_degree())
