"""Horner scheduling and ``flatten`` against their quadratic reference.

``horner`` nests decoded term lists and ``flatten`` splices children
that are already flat; both must build exactly the trees of the simple
recursive algorithms kept below as the reference: ``_reference_horner``
re-collects coefficient polynomials at every level and
``reference_flatten`` re-queues (and re-flattens) the arguments of a
flattened child.  Trees are compared with ``==``, so the shape, the
argument order and every constant must agree, not only the value.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.symalg import expression
from repro.symalg.expression import (Add, Call, Const, Expression, Mul, Pow,
                                     Var, flatten)
from repro.symalg.horner import horner
from repro.symalg.polynomial import Polynomial

from .strategies import VARIABLES, polynomials


def reference_flatten(expr: Expression) -> Expression:
    if isinstance(expr, Add):
        args: list[Expression] = []
        constant = Fraction(0)
        pending = list(expr.args)
        while pending:
            arg = reference_flatten(pending.pop(0))
            if isinstance(arg, Add):
                pending = list(arg.args) + pending
            elif isinstance(arg, Const):
                constant += arg.value
            else:
                args.append(arg)
        if constant != 0 or not args:
            args.append(Const(constant))
        return args[0] if len(args) == 1 else Add(tuple(args))
    if isinstance(expr, Mul):
        args = []
        constant = Fraction(1)
        pending = list(expr.args)
        while pending:
            arg = reference_flatten(pending.pop(0))
            if isinstance(arg, Mul):
                pending = list(arg.args) + pending
            elif isinstance(arg, Const):
                constant *= arg.value
            else:
                args.append(arg)
        if constant == 0:
            return Const(Fraction(0))
        if constant != 1 or not args:
            args.insert(0, Const(constant))
        return args[0] if len(args) == 1 else Mul(tuple(args))
    if isinstance(expr, Pow):
        base = reference_flatten(expr.base)
        if expr.exponent == 0:
            return Const(Fraction(1))
        if expr.exponent == 1:
            return base
        if isinstance(base, Const):
            return Const(base.value ** expr.exponent)
        return Pow(base, expr.exponent)
    if isinstance(expr, Call):
        return Call(expr.function, tuple(reference_flatten(a) for a in expr.args))
    return expr


def reference_horner(poly: Polynomial, variable_order=None) -> Expression:
    order = _full_order(poly, variable_order)
    return reference_flatten(_reference_horner(poly, order))


def _full_order(poly, variable_order):
    listed = list(variable_order) if variable_order else []
    rest = sorted(set(poly.variables) - set(listed))
    return [v for v in listed if v in poly.variables] + rest


def _reference_horner(poly: Polynomial, order: list[str]) -> Expression:
    if poly.is_constant():
        return Const(poly.constant_value())
    if not order:
        raise AssertionError("variable order exhausted before polynomial became constant")
    var_name, *rest = order
    coeffs = poly.coefficients_in(var_name)
    max_power = max(coeffs)
    if max_power == 0:
        return _reference_horner(poly, rest)

    x = Var(var_name)
    powers = sorted(coeffs, reverse=True)
    acc: Expression | None = None
    previous_power = None
    for power in powers:
        coeff_expr = _reference_horner(coeffs[power], _full_order(coeffs[power], rest))
        if acc is None:
            acc = coeff_expr
        else:
            gap = previous_power - power
            acc = Add((Mul((acc, _reference_power(x, gap))), coeff_expr))
        previous_power = power
    if previous_power:
        acc = Mul((acc, _reference_power(x, previous_power)))
    return acc


def _reference_power(base: Expression, exponent: int) -> Expression:
    if exponent == 1:
        return base
    return Mul(tuple([base] * exponent))


#: Orders may be empty, partial, or name variables the polynomial lacks.
variable_orders = st.one_of(
    st.none(),
    st.lists(st.sampled_from(VARIABLES + ("w",)), unique=True, max_size=4),
)

constants = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]).map(
    lambda v: Const(Fraction(v)))
leaves = st.one_of(constants, st.sampled_from(VARIABLES).map(Var))


def _branches(children):
    args = st.lists(children, min_size=1, max_size=4).map(tuple)
    return st.one_of(
        args.map(Add),
        args.map(Mul),
        st.builds(Pow, children, st.integers(min_value=0, max_value=3)),
        st.builds(Call, st.sampled_from(["f", "g"]),
                  st.lists(children, min_size=1, max_size=2).map(tuple)),
    )


expressions = st.recursive(leaves, _branches, max_leaves=30)


class TestAgainstTheReference:
    @settings(max_examples=300, deadline=None)
    @given(polynomials(max_terms=8), variable_orders)
    def test_horner_builds_the_reference_tree(self, poly, order):
        assert horner(poly, order) == reference_horner(poly, order)

    @settings(max_examples=300, deadline=None)
    @given(expressions)
    def test_flatten_builds_the_reference_tree(self, expr):
        assert flatten(expr) == reference_flatten(expr)

    def test_right_nested_linear_form(self):
        # A lowering row's shape: one term per variable, a right-nested
        # Horner chain of depth n.
        names = [f"v{i}" for i in range(40)]
        poly = Polynomial(names, {tuple(int(i == j) for j in range(40)): i + 1
                                  for i in range(40)}) + 7
        assert horner(poly, names) == reference_horner(poly, names)
        assert horner(poly, names[::-1]) == reference_horner(poly, names[::-1])


def _nodes(expr: Expression) -> int:
    if isinstance(expr, Pow):
        return 1 + _nodes(expr.base)
    return 1 + sum(_nodes(arg) for arg in getattr(expr, "args", ()))


class TestFlattenCallCount:
    """One ``flatten`` call per node: a pin against quadratic regressions
    that needs no timing (the re-queuing reference makes tens of
    thousands of calls on these chains)."""

    def _count_calls(self, monkeypatch, expr: Expression) -> int:
        calls = 0

        def counting(node):
            nonlocal calls
            calls += 1
            return original(node)

        original = expression.flatten
        # The recursion goes through the module-level name.
        monkeypatch.setattr(expression, "flatten", counting)
        result = expression.flatten(expr)
        monkeypatch.undo()
        assert result == reference_flatten(expr)
        return calls

    def test_right_nested_add_chain(self, monkeypatch):
        chain: Expression = Var("x")
        for i in range(300):
            chain = Add((Mul((Const(Fraction(i + 2)), Var(f"v{i}"))), chain, Const(Fraction(1))))
        assert self._count_calls(monkeypatch, chain) == _nodes(chain)

    def test_right_nested_mul_chain(self, monkeypatch):
        chain: Expression = Var("x")
        for i in range(300):
            chain = Mul((Const(Fraction(i + 2)), Add((Var(f"v{i}"), Const(Fraction(1)))), chain))
        assert self._count_calls(monkeypatch, chain) == _nodes(chain)
