"""Tests for target code identification (the frontend)."""

import pytest

from repro.errors import FrontendError
from repro.frontend import ArrayInput, SymbolicInput, extract_block
from repro.symalg import Polynomial, symbols, taylor

x, y = symbols("x y")


def extract(source, inputs, **kwargs):
    return extract_block(source, inputs, **kwargs)


class TestBasics:
    def test_straight_line(self):
        block = extract("""
def f(a):
    t = a + 1
    u = t * t
    return u
""", [SymbolicInput("x")])
        assert block.polynomial() == (x + 1) ** 2

    def test_copy_propagation(self):
        block = extract("""
def f(a):
    b = a
    c = b
    return c * c
""", [SymbolicInput("x")])
        assert block.polynomial() == x ** 2

    def test_constant_propagation(self):
        block = extract("""
def f(a):
    k = 3
    k2 = k * 2
    return a * k2
""", [SymbolicInput("x")])
        assert block.polynomial() == 6 * x

    def test_augmented_assignment(self):
        block = extract("""
def f(a):
    acc = 1
    acc += a
    acc *= a
    return acc
""", [SymbolicInput("x")])
        assert block.polynomial() == x * (x + 1)

    def test_unary_minus(self):
        block = extract("""
def f(a):
    return -a + 2
""", [SymbolicInput("x")])
        assert block.polynomial() == 2 - x

    def test_division_by_constant(self):
        block = extract("""
def f(a):
    return a / 4
""", [SymbolicInput("x")])
        assert block.polynomial() == x / 4

    @pytest.mark.parametrize("op", ["//", "%"])
    def test_integer_division_by_constant_zero_raises(self, op):
        with pytest.raises(FrontendError, match="division by zero"):
            extract(f"""
def f(a):
    return a + 7 {op} 0
""", [SymbolicInput("x")])

    def test_power(self):
        block = extract("""
def f(a):
    return a ** 3
""", [SymbolicInput("x")])
        assert block.polynomial() == x ** 3

    def test_float_literals_exact(self):
        block = extract("""
def f(a):
    return 0.5 * a
""", [SymbolicInput("x")])
        assert block.polynomial() == x / 2


class TestLoops:
    def test_loop_unrolling(self):
        block = extract("""
def f(a):
    acc = 0
    for i in range(4):
        acc = acc + a * i
    return acc
""", [SymbolicInput("x")])
        assert block.polynomial() == 6 * x  # 0+1+2+3

    def test_nested_loops(self):
        block = extract("""
def f(a):
    acc = 0
    for i in range(2):
        for j in range(3):
            acc = acc + a
    return acc
""", [SymbolicInput("x")])
        assert block.polynomial() == 6 * x

    def test_range_start_stop_step(self):
        block = extract("""
def f(a):
    acc = 0
    for i in range(1, 10, 4):
        acc = acc + i * a
    return acc
""", [SymbolicInput("x")])
        assert block.polynomial() == (1 + 5 + 9) * x

    def test_loop_over_symbolic_bound_rejected(self):
        with pytest.raises(FrontendError):
            extract("""
def f(a):
    acc = 0
    for i in range(a):
        acc = acc + 1
    return acc
""", [SymbolicInput("x")])


class TestArrays:
    def test_symbolic_array(self):
        block = extract("""
def f(v):
    return v[0] * v[2]
""", [ArrayInput("v", (3,))])
        assert str(block.polynomial()) == "v_0*v_2"

    def test_constant_table(self):
        block = extract("""
def f(v, t):
    return t[1] * v[0]
""", [ArrayInput("v", (1,)), ArrayInput("t", (3,), values=[1, 7, 9])])
        assert block.polynomial() == 7 * Polynomial.variable("v_0")

    def test_array_write_and_read(self):
        block = extract("""
def f(a):
    buf = [0, 0]
    buf[0] = a + 1
    buf[1] = buf[0] * 2
    return buf[1]
""", [SymbolicInput("x")])
        assert block.polynomial() == 2 * (x + 1)

    def test_list_replication(self):
        block = extract("""
def f(a):
    buf = [0] * 5
    buf[4] = a
    return buf[4]
""", [SymbolicInput("x")])
        assert block.polynomial() == x

    def test_out_of_bounds_raises(self):
        with pytest.raises(FrontendError):
            extract("""
def f(v):
    return v[5]
""", [ArrayInput("v", (3,))])

    def test_symbolic_index_rejected(self):
        with pytest.raises(FrontendError):
            extract("""
def f(v, i):
    return v[i]
""", [ArrayInput("v", (3,)), SymbolicInput("i")])

    def test_multiple_outputs(self):
        block = extract("""
def f(a):
    return (a, a * a)
""", [SymbolicInput("x")])
        assert block.outputs["out0"] == x
        assert block.outputs["out1"] == x ** 2


class TestConditionals:
    def test_comparison_on_a_pinned_table_constant_folds(self):
        block = extract("""
def f(a, t):
    if t[0] * 2 > t[1]:
        r = a
    else:
        r = a * 100
    return r
""", [SymbolicInput("x"), ArrayInput("t", (2,), values=[3, 5])])
        assert block.polynomial() == x

    def test_constant_condition_folds(self):
        block = extract("""
def f(a):
    if 3 > 2:
        r = a
    else:
        r = a * 100
    return r
""", [SymbolicInput("x")])
        assert block.polynomial() == x

    def test_conditional_expansion(self):
        """if on a 0/1 symbol blends both arms (Section 3.2)."""
        block = extract("""
def f(c, a, b):
    if c:
        r = a
    else:
        r = b
    return r
""", [SymbolicInput("c"), SymbolicInput("a"), SymbolicInput("b")])
        poly = block.polynomial()
        # r = c*a + (1-c)*b
        assert poly.evaluate({"c": 1, "a": 5, "b": 9}) == 5
        assert poly.evaluate({"c": 0, "a": 5, "b": 9}) == 9

    @pytest.mark.parametrize("body", [
        # A return in either arm would otherwise be dropped: the arm
        # runs on a copy of the bindings.
        "    if c:\n        return a\n    return a * 2\n",
        "    r = a\n    if c:\n        r = a * 3\n    else:\n        return a\n    return r\n",
        # ...also from a constant-folded if nested in the arm.
        "    r = a\n    if c:\n        if 2 > 1:\n            return a\n    return r * 2\n",
    ], ids=["then_arm", "else_arm", "folded_if_in_arm"])
    def test_return_inside_a_symbolic_arm_raises(self, body):
        with pytest.raises(FrontendError, match="return inside a data-dependent if"):
            extract("def f(c, a):\n" + body,
                    [SymbolicInput("c"), SymbolicInput("a")])

    @pytest.mark.parametrize("store", ["out[0] = a", "out[0] += a"])
    def test_array_write_inside_a_symbolic_arm_raises(self, store):
        # The arms share the array, so the write would apply whatever c is.
        with pytest.raises(FrontendError, match="array element assignment"):
            extract(f"""
def f(c, a):
    out = [0] * 1
    if c:
        {store}
    return out
""", [SymbolicInput("c"), SymbolicInput("a")])

    def test_array_write_under_a_folded_condition(self):
        block = extract("""
def f(a, b):
    out = [0] * 2
    for i in range(2):
        if i == 0:
            out[i] = a
        else:
            out[i] += b
    return out
""", [SymbolicInput("x"), SymbolicInput("y")])
        assert block.outputs == {"out0": x, "out1": y}


class TestNonlinear:
    def test_call_without_approximation_raises_at_the_call(self):
        with pytest.raises(FrontendError, match="'exp' needs a polynomial approximation"):
            extract("""
def f(a):
    return exp(a)
""", [SymbolicInput("x")])

    def test_model_expansion_with_taylor(self):
        block = extract("""
def f(a):
    return exp(a) + 1
""", [SymbolicInput("x")], approximations={"exp": taylor("exp", 2)})
        assert block.polynomial() == x ** 2 / 2 + x + 2

    def test_call_with_approximation(self):
        block = extract("""
def f(a):
    return exp(a)
""", [SymbolicInput("x")], approximations={"exp": taylor("exp", 2)})
        assert block.polynomial() == x ** 2 / 2 + x + 1

    def test_call_approximation_composes_argument(self):
        block = extract("""
def f(a):
    return exp(2 * a)
""", [SymbolicInput("x")], approximations={"exp": taylor("exp", 2)})
        assert block.polynomial() == 2 * x ** 2 + 2 * x + 1

    def test_approximation_must_be_in_arg(self):
        with pytest.raises(FrontendError, match="'_arg'"):
            extract("""
def f(a):
    return exp(a)
""", [SymbolicInput("x")], approximations={"exp": taylor("exp", 2, "t")})

    def test_unknown_function_rejected(self):
        with pytest.raises(FrontendError):
            extract("""
def f(a):
    return bessel(a)
""", [SymbolicInput("x")])


class TestErrors:
    def test_while_rejected(self):
        with pytest.raises(FrontendError):
            extract("""
def f(a):
    while a:
        a = a - 1
    return a
""", [SymbolicInput("x")])

    def test_missing_return(self):
        with pytest.raises(FrontendError):
            extract("""
def f(a):
    b = a
""", [SymbolicInput("x")])

    def test_wrong_input_count(self):
        with pytest.raises(FrontendError):
            extract("""
def f(a, b):
    return a
""", [SymbolicInput("x")])

    def test_undefined_name(self):
        with pytest.raises(FrontendError):
            extract("""
def f(a):
    return a + ghost
""", [SymbolicInput("x")])

    def test_interactive_callable_hint(self):
        def local(a):
            return a
        exec_scope = {}
        exec("def dynamic(a):\n    return a", exec_scope)
        with pytest.raises(FrontendError):
            extract_block(exec_scope["dynamic"], [SymbolicInput("x")])


class TestEquationOne:
    """Extracting the paper's Equation 1 from a reference loop nest."""

    def test_imdct_extraction(self):
        from repro.mp3.tables import imdct_cos_matrix
        n = 12
        cosm = imdct_cos_matrix(n).tolist()
        block = extract("""
def imdct(y, c):
    out = [0] * 12
    for i in range(12):
        s = 0
        for k in range(6):
            s = s + c[i][k] * y[k]
        out[i] = s
    return out
""", [ArrayInput("y", (n // 2,)), ArrayInput("c", (n, n // 2), values=cosm)])
        assert len(block.outputs) == n
        # row 0 coefficients equal the cosine matrix row
        row0 = block.outputs["out0"]
        for k in range(n // 2):
            got = float(row0.coefficient({f"y_{k}": 1}))
            assert got == pytest.approx(cosm[0][k])
