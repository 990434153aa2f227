"""Tests for OperationTally."""

from hypothesis import given
from hypothesis import strategies as st

from repro.platform import OperationTally


def make_tally(**kwargs):
    t = OperationTally()
    for k, v in kwargs.items():
        setattr(t, k, v)
    return t


class TestBasics:
    def test_empty(self):
        t = OperationTally()
        assert t.is_empty()
        assert t.total_ops() == 0

    def test_merge(self):
        a = make_tally(int_alu=3, fp_mul=2)
        b = make_tally(int_alu=1, load=5)
        a.merge(b)
        assert a.int_alu == 4
        assert a.fp_mul == 2
        assert a.load == 5

    def test_merge_libm(self):
        a = OperationTally()
        a.libm("pow", 2)
        b = OperationTally()
        b.libm("pow", 3)
        b.libm("cos", 1)
        a.merge(b)
        assert a.libm_calls == {"pow": 5, "cos": 1}

    def test_libm_zero_count_ignored(self):
        t = OperationTally()
        t.libm("exp", 0)
        assert t.libm_calls == {}

    def test_scaled(self):
        t = make_tally(int_mul=2, store=1)
        t.libm("sin", 1)
        s = t.scaled(10)
        assert s.int_mul == 20
        assert s.store == 10
        assert s.libm_calls == {"sin": 10}
        # original untouched
        assert t.int_mul == 2

    def test_add_operator(self):
        a = make_tally(int_alu=1)
        b = make_tally(int_alu=2)
        c = a + b
        assert c.int_alu == 3
        assert a.int_alu == 1
        assert b.int_alu == 2

    def test_copy_independent(self):
        a = make_tally(fp_add=1)
        b = a.copy()
        b.fp_add = 99
        assert a.fp_add == 1

    def test_total_ops_counts_libm(self):
        t = make_tally(int_alu=2)
        t.libm("pow", 3)
        assert t.total_ops() == 5


class TestProperties:
    @given(st.integers(0, 1000), st.integers(0, 1000), st.integers(1, 20))
    def test_scaling_distributes(self, a, b, k):
        t = make_tally(int_alu=a, fp_mul=b)
        assert t.scaled(k).total_ops() == k * t.total_ops()

    @given(st.integers(0, 100), st.integers(0, 100))
    def test_merge_total_additive(self, a, b):
        ta = make_tally(int_mac=a)
        tb = make_tally(int_mac=b)
        assert (ta + tb).total_ops() == a + b
