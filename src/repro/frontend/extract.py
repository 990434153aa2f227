"""Target code identification: imperative code -> polynomials (Section 3.2).

"Traditional compiler techniques are used in representing the
arithmetic section of the critical functions as polynomials ...  This
can be accomplished by using code transformation techniques such as
loop unrolling, constant and variable propagation, code motion,
conditional expansion and model expansion."

We implement this as *symbolic execution* of a restricted Python
subset.  Executing the code with symbolic inputs performs the paper's
transformations by construction:

* ``for i in range(...)`` loops are executed iteration by iteration —
  **loop unrolling**;
* assignments bind names to symbolic values that flow forward —
  **constant and variable (copy) propagation**;
* arithmetic on symbols is polynomial arithmetic: every symbolic value
  is a canonical :class:`~repro.symalg.polynomial.Polynomial` and every
  constant an exact number, so constants fold as they meet and pure
  computations are hoisted wherever their operands are — **code
  motion** falls out of dataflow;
* ``if`` on a *symbolic* 0/1 condition evaluates both arms and blends
  them as ``cond*then + (1-cond)*else`` — **conditional expansion**
  (of the scalars the arms bind: a ``return`` or an array element
  store inside an arm raises);
* a call to a known nonlinear function is expanded where it is made:
  its Taylor/Chebyshev approximation (a polynomial in ``_arg``) is
  composed with the argument — **model expansion**.

Supported subset: function defs with scalar/array parameters, (aug-)
assignments, tuple-free ``for _ in range(const...)``, constant or
symbolic ``if``, ``return`` of an expression/tuple/list, ``+ - * /
**`` arithmetic, indexing with compile-time-constant indices, and
calls to whitelisted math functions.  Everything else raises
:class:`~repro.errors.FrontendError` with a pointed message — target
code identification is meant for arithmetic kernels, not arbitrary
programs.
"""

from __future__ import annotations

import ast
import inspect
import operator
import textwrap
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from repro.errors import FrontendError
from repro.symalg.polynomial import Polynomial

__all__ = ["SymbolicInput", "ArrayInput", "TargetBlock", "extract_block",
           "MATH_FUNCTIONS"]

#: Calls the frontend expands at the call site with their
#: ``approximations`` entry (model expansion); others are rejected.
MATH_FUNCTIONS = ("exp", "log", "sin", "cos", "tan", "sqrt", "atan",
                  "log1p", "sinh", "cosh")

#: Operators on two exact numbers: constant folding.
_NUMBER_OPS = {ast.Add: operator.add, ast.Sub: operator.sub,
               ast.Mult: operator.mul, ast.Div: operator.truediv,
               ast.Pow: operator.pow, ast.FloorDiv: operator.floordiv,
               ast.Mod: operator.mod}


@dataclass(frozen=True)
class SymbolicInput:
    """A scalar input: bound to the symbolic variable ``name``."""

    name: str


@dataclass(frozen=True)
class ArrayInput:
    """An array input of known shape; elements become ``name_i[_j]``.

    ``values`` optionally pins elements to numeric constants (that is
    how cosine tables enter as constants instead of symbols).
    """

    name: str
    shape: tuple[int, ...]
    values: object | None = None  # nested sequence matching shape


@dataclass
class TargetBlock:
    """The frontend's product: named output polynomials over input vars."""

    name: str
    outputs: dict[str, Polynomial]
    input_variables: tuple[str, ...]

    def polynomial(self, output: str | None = None) -> Polynomial:
        """A single output's polynomial (default: the only one)."""
        if output is None:
            if len(self.outputs) != 1:
                raise FrontendError(
                    f"block {self.name} has {len(self.outputs)} outputs; name one")
            return next(iter(self.outputs.values()))
        return self.outputs[output]


class _Array:
    """A (possibly nested) array of symbolic values."""

    def __init__(self, items: list):
        self.items = items

    def get(self, index: int):
        if not isinstance(index, int):
            raise FrontendError(f"array index must fold to a constant, got {index!r}")
        if not 0 <= index < len(self.items):
            raise FrontendError(f"array index {index} out of range 0..{len(self.items) - 1}")
        return self.items[index]

    def set(self, index: int, value) -> None:
        self.get(index)  # bounds check
        self.items[index] = value


def _build_array(spec: ArrayInput) -> _Array:
    def build(prefix: str, shape: tuple[int, ...], values):
        if len(shape) == 1:
            items = []
            for i in range(shape[0]):
                if values is not None:
                    items.append(Fraction(values[i]))
                else:
                    items.append(Polynomial.variable(f"{prefix}_{i}"))
            return _Array(items)
        return _Array([build(f"{prefix}_{i}", shape[1:],
                             values[i] if values is not None else None)
                       for i in range(shape[0])])
    return build(spec.name, spec.shape, spec.values)


class _Interpreter(ast.NodeVisitor):
    """Symbolically executes one function body.

    Values are exact numbers (``int``/``Fraction``), polynomials, or
    arrays of values.
    """

    def __init__(self, env: dict, approximations: Mapping[str, Polynomial],
                 in_arm: bool = False):
        self.env = env
        self.approximations = approximations
        #: Executing an arm of a data-dependent ``if``: both arms run on
        #: copies of the scalar bindings, which are blended afterwards,
        #: so nothing else may leave the arm.
        self.in_arm = in_arm
        self.returned = None

    # -- statements ----------------------------------------------------
    def execute(self, statements: Sequence[ast.stmt]) -> None:
        for statement in statements:
            if self.returned is not None:
                raise FrontendError("unreachable code after return")
            self.visit(statement)

    def visit_Assign(self, node: ast.Assign) -> None:
        if len(node.targets) != 1:
            raise FrontendError("chained assignment is not supported")
        value = self.eval(node.value)
        self._assign(node.targets[0], value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        current = self.eval(node.target)
        value = self.eval(node.value)
        combined = self._binop(type(node.op), current, value)
        self._assign(node.target, combined)

    def visit_For(self, node: ast.For) -> None:
        if node.orelse:
            raise FrontendError("for/else is not supported")
        bounds = self._range_bounds(node.iter)
        if not isinstance(node.target, ast.Name):
            raise FrontendError("loop target must be a simple name")
        for i in bounds:                       # loop unrolling
            self.env[node.target.id] = i
            self.execute(node.body)

    def visit_If(self, node: ast.If) -> None:
        condition = self.eval(node.test)
        if isinstance(condition, (int, bool, Fraction, float)):
            branch = node.body if condition else node.orelse
            self.execute(branch)
            return
        # Conditional expansion: both arms run on copies, results blend.
        then_env = dict(self.env)
        else_env = dict(self.env)
        _Interpreter(then_env, self.approximations, in_arm=True).execute(node.body)
        if node.orelse:
            _Interpreter(else_env, self.approximations, in_arm=True).execute(node.orelse)
        cond = _as_polynomial(condition)
        for name in set(then_env) | set(else_env):
            a = then_env.get(name)
            b = else_env.get(name)
            if a is b:
                continue
            if a is None or b is None or isinstance(a, _Array) or isinstance(b, _Array):
                raise FrontendError(
                    f"conditional expansion needs {name!r} defined as a scalar in both arms")
            self.env[name] = (cond * _as_polynomial(a)
                              + (1 - cond) * _as_polynomial(b))

    def visit_Return(self, node: ast.Return) -> None:
        if node.value is None:
            raise FrontendError("return must carry a value")
        if self.in_arm:
            raise FrontendError(
                "return inside a data-dependent if is not supported; assign "
                "the value in both arms and return it after the if")
        self.returned = self.eval(node.value)

    def visit_Expr(self, node: ast.Expr) -> None:
        raise FrontendError("bare expression statements have no effect; remove them")

    def visit_Pass(self, node: ast.Pass) -> None:  # noqa: D102
        return

    def generic_visit(self, node: ast.AST) -> None:
        raise FrontendError(
            f"unsupported construct {type(node).__name__} in target code")

    # -- helpers ---------------------------------------------------------
    def _assign(self, target: ast.expr, value) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
            return
        if isinstance(target, ast.Subscript):
            if self.in_arm:
                raise FrontendError(
                    "array element assignment inside a data-dependent if is "
                    "not supported; blend a scalar in both arms and store it "
                    "after the if")
            container = self.eval(target.value)
            if not isinstance(container, _Array):
                raise FrontendError("subscript assignment needs an array")
            index = self.eval(target.slice)
            index = _as_int(index)
            container.set(index, value)
            return
        if isinstance(target, ast.Tuple):
            raise FrontendError("tuple unpacking is not supported")
        raise FrontendError(f"cannot assign to {type(target).__name__}")

    def _range_bounds(self, node: ast.expr) -> range:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "range"):
            raise FrontendError("for loops must iterate over range(...)")
        args = [_as_int(self.eval(a)) for a in node.args]
        if not 1 <= len(args) <= 3:
            raise FrontendError("range takes 1-3 arguments")
        return range(*args)

    # -- expressions -----------------------------------------------------
    def eval(self, node: ast.expr):
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool):
                return int(node.value)
            if isinstance(node.value, (int, float)):
                return Fraction(node.value) if isinstance(node.value, float) else node.value
            raise FrontendError(f"unsupported constant {node.value!r}")
        if isinstance(node, ast.Name):
            if node.id not in self.env:
                raise FrontendError(f"undefined name {node.id!r}")
            return self.env[node.id]
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left)
            right = self.eval(node.right)
            return self._binop(type(node.op), left, right)
        if isinstance(node, ast.UnaryOp):
            value = self.eval(node.operand)
            if isinstance(node.op, ast.USub):
                if isinstance(value, (int, Fraction)):
                    return -value
                return -_as_polynomial(value)
            if isinstance(node.op, ast.UAdd):
                return value
            raise FrontendError("only unary +/- are supported")
        if isinstance(node, ast.Subscript):
            container = self.eval(node.value)
            if not isinstance(container, _Array):
                raise FrontendError("subscript of a non-array value")
            return container.get(_as_int(self.eval(node.slice)))
        if isinstance(node, ast.Call):
            return self._call(node)
        if isinstance(node, ast.Compare):
            return self._compare(node)
        if isinstance(node, (ast.Tuple, ast.List)):
            return _Array([self.eval(e) for e in node.elts])
        raise FrontendError(f"unsupported expression {type(node).__name__}")

    def _call(self, node: ast.Call):
        if not isinstance(node.func, ast.Name):
            raise FrontendError("only plain-name calls are supported")
        name = node.func.id
        if name == "range":
            raise FrontendError("range() only appears as a for-loop iterator")
        if name not in MATH_FUNCTIONS:
            raise FrontendError(
                f"call to unknown function {name!r}; supported: {MATH_FUNCTIONS}")
        # Model expansion: the approximation, a polynomial in ``_arg``,
        # composed with the argument.
        series = self.approximations.get(name)
        if series is None:
            raise FrontendError(
                f"call to {name!r} needs a polynomial approximation: pass "
                f"approximations={{{name!r}: ...}} to extract_block")
        if series.variables and series.variables != ("_arg",):
            raise FrontendError(
                f"approximation for {name!r} must use the variable '_arg'")
        if len(node.args) != 1:
            raise FrontendError(
                f"model expansion supports unary calls; {name!r} got {len(node.args)}")
        return series.substitute({"_arg": _as_polynomial(self.eval(node.args[0]))})

    def _compare(self, node: ast.Compare):
        if len(node.ops) != 1:
            raise FrontendError("chained comparisons are not supported")
        left = self.eval(node.left)
        right = self.eval(node.comparators[0])
        if isinstance(left, (int, Fraction)) and isinstance(right, (int, Fraction)):
            op = node.ops[0]
            table = {ast.Lt: left < right, ast.LtE: left <= right,
                     ast.Gt: left > right, ast.GtE: left >= right,
                     ast.Eq: left == right, ast.NotEq: left != right}
            if type(op) not in table:
                raise FrontendError("unsupported comparison operator")
            return int(table[type(op)])
        raise FrontendError(
            "comparisons must fold to constants; use a 0/1 variable for "
            "data-dependent conditions (conditional expansion)")

    def _binop(self, op_type, left, right):
        # List replication:  [0] * 36  builds an output buffer.
        if op_type is ast.Mult and isinstance(left, _Array) and isinstance(right, int):
            return _Array(list(left.items) * right)
        if op_type is ast.Mult and isinstance(right, _Array) and isinstance(left, int):
            return _Array(list(right.items) * left)
        if op_type is ast.Pow and (not isinstance(right, int) or right < 0):
            raise FrontendError("exponents must be nonnegative integers")
        if op_type is ast.Div:
            # The divisor must fold to a nonzero number; quotients stay exact.
            divisor = _as_polynomial(right)
            if not divisor.is_constant():
                raise FrontendError("division by a non-constant is not polynomial")
            if divisor.is_zero():
                raise FrontendError("division by zero in target code")
            right = divisor.constant_value()
        if isinstance(left, (int, Fraction)) and isinstance(right, (int, Fraction)):
            if op_type not in _NUMBER_OPS:
                raise FrontendError(f"unsupported operator {op_type.__name__}")
            if op_type in (ast.FloorDiv, ast.Mod) and right == 0:
                raise FrontendError("division by zero in target code")
            return _NUMBER_OPS[op_type](left, right)
        left = _as_polynomial(left)
        if op_type is ast.Add:
            return left + _as_polynomial(right)
        if op_type is ast.Sub:
            return left - _as_polynomial(right)
        if op_type is ast.Mult:
            return left * _as_polynomial(right)
        if op_type is ast.Div:
            return left / right
        if op_type is ast.Pow:
            return left ** right
        raise FrontendError(f"unsupported operator {op_type.__name__} on symbols")


def _as_polynomial(value) -> Polynomial:
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    if isinstance(value, _Array):
        raise FrontendError("arrays cannot be used as scalar values")
    raise FrontendError(f"cannot use {value!r} symbolically")


def _as_int(value) -> int:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    raise FrontendError(f"expected a compile-time integer, got {value!r}")


def _function_ast(source_or_callable) -> ast.FunctionDef:
    if callable(source_or_callable):
        try:
            source = inspect.getsource(source_or_callable)
        except (OSError, TypeError) as exc:
            raise FrontendError(
                f"cannot read source of {source_or_callable!r} (defined "
                "interactively?); pass the source text instead") from exc
    else:
        source = source_or_callable
    tree = ast.parse(textwrap.dedent(source))
    functions = [n for n in tree.body if isinstance(n, ast.FunctionDef)]
    if len(functions) != 1:
        raise FrontendError("expected exactly one function definition")
    return functions[0]


def extract_block(source_or_callable,
                  inputs: Sequence[SymbolicInput | ArrayInput],
                  approximations: Mapping[str, Polynomial] | None = None,
                  name: str | None = None) -> TargetBlock:
    """Symbolically execute a kernel into output polynomials.

    The arithmetic is polynomial throughout: each statement updates
    canonical :class:`Polynomial` values, so the returned values are
    the block's outputs as they stand.

    Parameters
    ----------
    source_or_callable:
        A Python function (or its source text) in the supported subset.
    inputs:
        One spec per function parameter, in order.
    approximations:
        Optional ``{function: polynomial in _arg}`` map for nonlinear
        calls (Section 3.2's Taylor/Chebyshev step).  Each call is
        expanded where it is made; a call without an entry raises
        :class:`~repro.errors.FrontendError` there.

    Returns a :class:`TargetBlock` whose outputs are the function's
    returned values (``out0``, ``out1``, ... for tuples).

    >>> def poly(x):
    ...     acc = 0
    ...     for _ in range(2):
    ...         acc = acc * x + 1
    ...     return acc
    >>> block = extract_block(poly, [SymbolicInput("x")])
    >>> str(block.polynomial())
    'x + 1'
    """
    fn = _function_ast(source_or_callable)
    if len(fn.args.args) != len(inputs):
        raise FrontendError(
            f"{fn.name} has {len(fn.args.args)} parameters but {len(inputs)} specs given")
    env: dict = {}
    input_names: list[str] = []
    for arg, spec in zip(fn.args.args, inputs):
        if isinstance(spec, SymbolicInput):
            env[arg.arg] = Polynomial.variable(spec.name)
            input_names.append(spec.name)
        elif isinstance(spec, ArrayInput):
            array = _build_array(spec)
            env[arg.arg] = array
            input_names.extend(_leaf_names(array))
        else:
            raise FrontendError(f"bad input spec {spec!r}")

    interpreter = _Interpreter(env, approximations or {})
    interpreter.execute(fn.body)
    if interpreter.returned is None:
        raise FrontendError(f"{fn.name} never returns a value")

    returned = interpreter.returned
    raw_outputs = (returned.items if isinstance(returned, _Array) else [returned])
    outputs = {"out" if len(raw_outputs) == 1 else f"out{i}": _as_polynomial(value)
               for i, value in enumerate(raw_outputs)}
    return TargetBlock(
        name=name or fn.name,
        outputs=outputs,
        input_variables=tuple(input_names),
    )


def _leaf_names(array: _Array) -> list[str]:
    names: list[str] = []
    for item in array.items:
        if isinstance(item, _Array):
            names.extend(_leaf_names(item))
        elif isinstance(item, Polynomial):
            names.extend(item.variables)
    return names
