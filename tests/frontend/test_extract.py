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

    @pytest.mark.parametrize("expression, expected", [
        ("+a", x),
        ("- -a", x),
        ("-2 * a", -2 * x),
        ("-a ** 2", -(x ** 2)),
        ("a / (2 * 2)", x / 4),
        ("a / 0.5", 2 * x),
        ("True * a", x),
        ("7 // 2 * a", 3 * x),
        ("7 % 4 * a", 3 * x),
        ("2 ** 3 * a", 8 * x),
        ("a ** 0 + b", y + 1),
        ("(a + b) ** 2 - a * a - b * b", 2 * x * y),
    ], ids=["unary_plus", "double_negation", "negated_constant",
            "minus_binds_looser_than_power", "folded_divisor", "float_divisor",
            "bool_constant", "floor_division_folds", "modulo_folds",
            "constant_power_folds", "zeroth_power", "cancellation"])
    def test_expression_extracts_to(self, expression, expected):
        block = extract(f"def f(a, b):\n    return {expression}\n",
                        [SymbolicInput("x"), SymbolicInput("y")])
        assert block.polynomial() == expected

    def test_pass_is_a_no_op(self):
        block = extract("""
def f(a):
    pass
    return a
""", [SymbolicInput("x")])
        assert block.polynomial() == x


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

    def test_return_inside_a_loop_ends_it(self):
        block = extract("""
def f(a):
    for i in range(3):
        if i == 1:
            return a * 5
    return a
""", [SymbolicInput("x")])
        assert block.polynomial() == 5 * x

    def test_return_inside_a_nested_loop_ends_both(self):
        block = extract("""
def f(a):
    for i in range(3):
        for j in range(2):
            if i == 1:
                return a * 5
        a = a + 1
    return a
""", [SymbolicInput("x")])
        assert block.polynomial() == 5 * x + 5

    def test_statement_after_return_in_a_loop_body_raises(self):
        with pytest.raises(FrontendError, match="unreachable code after return"):
            extract("""
def f(a):
    for i in range(3):
        return a
        a = a + 1
    return a
""", [SymbolicInput("x")])

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

    def test_whole_array_returned_as_outputs(self):
        block = extract("""
def f(v):
    return v
""", [ArrayInput("v", (2,))])
        assert block.outputs == {"out0": Polynomial.variable("v_0"),
                                 "out1": Polynomial.variable("v_1")}


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

    def test_nested_calls_compose(self):
        block = extract("""
def f(a):
    return exp(sin(a))
""", [SymbolicInput("x")],
            approximations={"exp": taylor("exp", 2), "sin": taylor("sin", 3)})
        sin_x = x - x ** 3 / 6
        assert block.polynomial() == 1 + sin_x + sin_x ** 2 / 2

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

    def test_more_than_one_function_rejected(self):
        with pytest.raises(FrontendError, match="exactly one function definition"):
            extract("""
def f(a):
    return a

def g(a):
    return a
""", [SymbolicInput("x")])

    # Each unsupported construct is refused with a pointed message.
    @pytest.mark.parametrize("expression, message", [
        ("a ** -1", "nonnegative integers"),
        ("a ** 0.5", "nonnegative integers"),
        ("a ** b", "nonnegative integers"),
        ("a / b", "division by a non-constant"),
        ("a / 0", "division by zero"),
        ("a / (3 - 3)", "division by zero"),
        ("a % 2", "unsupported operator Mod on symbols"),
        ("a // 2", "unsupported operator FloorDiv on symbols"),
        ("a ^ 2", "unsupported operator BitXor on symbols"),
        ("6 ^ 3", "unsupported operator BitXor"),
        ("not a", "only unary"),
        ("~a", "only unary"),
        ("'text'", "unsupported constant"),
        ("None", "unsupported constant"),
        ("a if a else b", "unsupported expression IfExp"),
        ("lambda: a", "unsupported expression Lambda"),
        ("math.exp(a)", "only plain-name calls"),
        ("range(3)", r"range\(\) only appears as a for-loop iterator"),
        ("exp(a, b)", "model expansion supports unary calls"),
        ("a < 1", "comparisons must fold to constants"),
        ("1 < 2 < 3", "chained comparisons"),
        ("1 in 2", "unsupported comparison operator"),
        ("a[0]", "subscript of a non-array"),
        ("[a, b][-1]", "out of range"),
        ("[a, b][0.5]", "compile-time integer"),
    ], ids=["negative_exponent", "fractional_exponent", "symbolic_exponent",
            "division_by_variable", "division_by_zero",
            "division_by_folded_zero", "modulo_on_symbols",
            "floor_division_on_symbols", "caret_is_xor", "xor_on_constants",
            "not", "invert", "string_constant", "none_constant",
            "conditional_expression", "lambda", "attribute_call",
            "range_as_value", "binary_call", "symbolic_comparison",
            "chained_comparison", "membership_test", "subscript_of_scalar",
            "negative_index", "fractional_index"])
    def test_rejected_expression(self, expression, message):
        with pytest.raises(FrontendError, match=message):
            extract(f"def f(a, b):\n    return {expression}\n",
                    [SymbolicInput("x"), SymbolicInput("y")],
                    approximations={"exp": taylor("exp", 2)})

    @pytest.mark.parametrize("statement, message", [
        ("b = c = a", "chained assignment"),
        ("b, c = a, a", "tuple unpacking"),
        ("a.b = 1", "cannot assign to Attribute"),
        ("a[0] = 1", "subscript assignment needs an array"),
        ("a += [1]", "arrays cannot be used as scalar values"),
        ("a + 1", "bare expression"),
        ("return", "return must carry a value"),
        ("import math", "unsupported construct Import"),
        ("del a", "unsupported construct Delete"),
        ("assert a", "unsupported construct Assert"),
        ("with a:\n        pass", "unsupported construct With"),
        ("for i in [1, 2]:\n        a = a", r"iterate over range\(\.\.\.\)"),
        ("for i in range():\n        a = a", "range takes 1-3 arguments"),
        ("for i in range(1, 2, 3, 4):\n        a = a", "range takes 1-3 arguments"),
        ("for i in range(2.5):\n        a = a", "compile-time integer"),
        ("for (i, j) in range(2):\n        a = a", "loop target must be a simple name"),
        ("for i in range(2):\n        a = a\n    else:\n        a = b",
         "for/else"),
        ("if b:\n        t = a", "'t' defined as a scalar in both arms"),
        ("if b:\n        t = [a]\n    else:\n        t = [b]",
         "'t' defined as a scalar in both arms"),
    ], ids=["chained_assignment", "tuple_unpacking", "attribute_store",
            "store_into_scalar", "array_added_to_scalar", "bare_expression",
            "bare_return", "import", "delete", "assert", "with",
            "loop_over_a_list", "range_without_arguments",
            "range_with_four_arguments", "fractional_range_bound",
            "tuple_loop_target", "for_else", "one_armed_symbolic_if",
            "array_blended_by_a_symbolic_if"])
    def test_rejected_statement(self, statement, message):
        with pytest.raises(FrontendError, match=message):
            extract(f"def f(a, b):\n    {statement}\n    return a\n",
                    [SymbolicInput("x"), SymbolicInput("y")])

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
