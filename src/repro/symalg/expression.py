"""Expression trees: the operational view of arithmetic code.

The symbolic engine has two representations:

* :class:`~repro.symalg.polynomial.Polynomial` — canonical, for algebra
  (Groebner, factor, matching);
* :class:`Expression` — structural, for *code*: it preserves operation
  order and sharing decisions, so it can be costed (operation counts)
  and emitted back as source.

The frontend computes straight into polynomials; expressions appear
where code is scheduled or written.  Horner scheduling returns
expressions whose operation counts feed the platform cost model and
which the code rewriter and the lowering emit; ``to_polynomial``
canonicalizes any of them back to a polynomial.

Nonlinear calls (``exp``, ``log``...) appear as :class:`Call` nodes,
which evaluate through a caller-supplied function table but have no
polynomial form: ``to_polynomial`` rejects them.  The paper's
series-approximation step is the frontend's model expansion, which
substitutes a Taylor polynomial at the call site.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Union

from repro.errors import SymbolicError
from repro.symalg.polynomial import Polynomial, Scalar

__all__ = ["Expression", "Const", "Var", "Add", "Mul", "Pow", "Call",
           "OpCount", "const", "var", "flatten", "to_source"]


@dataclass(frozen=True)
class OpCount:
    """Operation counts of an expression tree (the cost-model currency)."""

    adds: int = 0
    muls: int = 0
    divs: int = 0
    calls: int = 0

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(self.adds + other.adds, self.muls + other.muls,
                       self.divs + other.divs, self.calls + other.calls)

    def total(self) -> int:
        """Total number of arithmetic operations."""
        return self.adds + self.muls + self.divs + self.calls


class Expression:
    """Abstract base of expression-tree nodes (immutable)."""

    __slots__ = ()

    def evaluate(self, env: Mapping[str, Union[float, Fraction]],
                 functions: Mapping[str, Callable] | None = None):
        """Numerically evaluate; ``functions`` supplies Call semantics."""
        raise NotImplementedError

    def children(self) -> tuple["Expression", ...]:
        """Immediate sub-expressions."""
        raise NotImplementedError

    def to_polynomial(self) -> Polynomial:
        """Canonicalize to a polynomial (a :class:`Call` raises
        :class:`~repro.errors.SymbolicError`)."""
        raise NotImplementedError

    def op_count(self) -> OpCount:
        """Count arithmetic operations as written (no re-association)."""
        raise NotImplementedError

    # Operator sugar so expressions compose naturally.
    def __add__(self, other): return Add((self, _as_expr(other)))
    def __radd__(self, other): return Add((_as_expr(other), self))
    def __sub__(self, other): return Add((self, Mul((Const(Fraction(-1)), _as_expr(other)))))
    def __rsub__(self, other): return Add((_as_expr(other), Mul((Const(Fraction(-1)), self))))
    def __mul__(self, other): return Mul((self, _as_expr(other)))
    def __rmul__(self, other): return Mul((_as_expr(other), self))
    def __neg__(self): return Mul((Const(Fraction(-1)), self))

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise SymbolicError("expression exponent must be a nonnegative int")
        return Pow(self, exponent)


def _as_expr(value) -> Expression:
    if isinstance(value, Expression):
        return value
    if isinstance(value, (int, float, Fraction)):
        return Const(Fraction(value))
    raise SymbolicError(f"cannot use {value!r} in an expression")


@dataclass(frozen=True)
class Const(Expression):
    """A rational constant leaf."""

    value: Fraction

    def evaluate(self, env, functions=None):
        return self.value

    def children(self):
        return ()

    def to_polynomial(self):
        return Polynomial.constant(self.value)

    def op_count(self):
        return OpCount()

    def __str__(self):
        return to_source(self)


@dataclass(frozen=True)
class Var(Expression):
    """A variable leaf."""

    name: str

    def evaluate(self, env, functions=None):
        if self.name not in env:
            raise SymbolicError(f"no value bound for variable {self.name!r}")
        return env[self.name]

    def children(self):
        return ()

    def to_polynomial(self):
        return Polynomial.variable(self.name)

    def op_count(self):
        return OpCount()

    def __str__(self):
        return to_source(self)


@dataclass(frozen=True)
class Add(Expression):
    """An n-ary sum (n >= 1); written left-associated when costed."""

    args: tuple[Expression, ...]

    def __post_init__(self):
        if not self.args:
            raise SymbolicError("Add needs at least one argument")

    def evaluate(self, env, functions=None):
        total = self.args[0].evaluate(env, functions)
        for arg in self.args[1:]:
            total = total + arg.evaluate(env, functions)
        return total

    def children(self):
        return self.args

    def to_polynomial(self):
        total = Polynomial.zero()
        for arg in self.args:
            total = total + arg.to_polynomial()
        return total

    def op_count(self):
        count = OpCount(adds=len(self.args) - 1)
        for arg in self.args:
            count = count + arg.op_count()
        return count

    def __str__(self):
        return to_source(self)


@dataclass(frozen=True)
class Mul(Expression):
    """An n-ary product (n >= 1)."""

    args: tuple[Expression, ...]

    def __post_init__(self):
        if not self.args:
            raise SymbolicError("Mul needs at least one argument")

    def evaluate(self, env, functions=None):
        total = self.args[0].evaluate(env, functions)
        for arg in self.args[1:]:
            total = total * arg.evaluate(env, functions)
        return total

    def children(self):
        return self.args

    def to_polynomial(self):
        total = Polynomial.one()
        for arg in self.args:
            total = total * arg.to_polynomial()
        return total

    def op_count(self):
        count = OpCount(muls=len(self.args) - 1)
        for arg in self.args:
            count = count + arg.op_count()
        return count

    def __str__(self):
        return to_source(self)


@dataclass(frozen=True)
class Pow(Expression):
    """Integer power ``base ** exponent`` (exponent >= 0)."""

    base: Expression
    exponent: int

    def evaluate(self, env, functions=None):
        return self.base.evaluate(env, functions) ** self.exponent

    def children(self):
        return (self.base,)

    def to_polynomial(self):
        return self.base.to_polynomial() ** self.exponent

    def op_count(self):
        # Costed as repeated multiplication (exponent - 1 muls), the way
        # a compiler without a pow intrinsic would emit it.
        muls = max(self.exponent - 1, 0)
        return OpCount(muls=muls) + self.base.op_count()

    def __str__(self):
        return to_source(self)


@dataclass(frozen=True)
class Call(Expression):
    """A call to a named (nonlinear) function, e.g. ``exp(x)``."""

    function: str
    args: tuple[Expression, ...]

    def evaluate(self, env, functions=None):
        if functions is None or self.function not in functions:
            raise SymbolicError(f"no implementation bound for function {self.function!r}")
        values = [arg.evaluate(env, functions) for arg in self.args]
        return functions[self.function](*values)

    def children(self):
        return self.args

    def to_polynomial(self):
        raise SymbolicError(
            f"call to {self.function!r} has no polynomial form; expand it "
            "with an approximation when extracting the block")

    def op_count(self):
        count = OpCount(calls=1)
        for arg in self.args:
            count = count + arg.op_count()
        return count

    def __str__(self):
        return to_source(self)


def to_source(expr: Expression) -> str:
    """Render an expression as minimally-parenthesized infix source.

    Uses ``^`` for powers (the Maple convention used throughout the
    paper); the code rewriter converts to the target language's idiom.
    """
    return _format(expr, 0)


_PREC_ADD = 1
_PREC_MUL = 2
_PREC_POW = 3
_PREC_ATOM = 4


def _format(expr: Expression, parent_prec: int) -> str:
    if isinstance(expr, Const):
        if expr.value.denominator == 1:
            text = str(expr.value.numerator)
        else:
            text = f"{expr.value.numerator}/{expr.value.denominator}"
        needs_parens = (expr.value < 0 or expr.value.denominator != 1) and parent_prec > _PREC_ADD
        return f"({text})" if needs_parens else text
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Add):
        parts = [_format(arg, _PREC_ADD + 1) for arg in expr.args]
        body = parts[0]
        for part in parts[1:]:
            if part.startswith("-"):
                body += f" - {part[1:]}"
            else:
                body += f" + {part}"
        return f"({body})" if parent_prec > _PREC_ADD else body
    if isinstance(expr, Mul):
        # Hoist a leading -1 into a prefix minus.
        args = list(expr.args)
        prefix = ""
        if args and isinstance(args[0], Const) and args[0].value == -1 and len(args) > 1:
            prefix = "-"
            args = args[1:]
        body = prefix + " * ".join(_format(arg, _PREC_MUL + 1) for arg in args)
        return f"({body})" if parent_prec > _PREC_MUL else body
    if isinstance(expr, Pow):
        base = _format(expr.base, _PREC_POW + 1)
        text = f"{base}^{expr.exponent}"
        return f"({text})" if parent_prec > _PREC_POW else text
    if isinstance(expr, Call):
        inner = ", ".join(_format(arg, 0) for arg in expr.args)
        return f"{expr.function}({inner})"
    raise SymbolicError(f"unknown expression node {type(expr).__name__}")


def const(value: Scalar) -> Const:
    """Constant-node helper."""
    return Const(Fraction(value))


def var(name: str) -> Var:
    """Variable-node helper."""
    return Var(name)


def flatten(expr: Expression) -> Expression:
    """Flatten nested Add-of-Add and Mul-of-Mul and fold constants.

    Keeps the tree small and makes operation counts honest (no
    double-counted parentheses).  Pure structural simplification — no
    algebraic rewriting beyond constant folding and identity removal.

    One pass, one call per node: each child is flattened once, and the
    arguments of a flattened child of the same type are spliced in as
    they are — they are already flat, and none of them is a same-type
    node — so nothing below a level of a right-nested Horner chain is
    flattened again.
    """
    if isinstance(expr, Add):
        args: list[Expression] = []
        constant = Fraction(0)
        for child in expr.args:
            arg = flatten(child)
            if isinstance(arg, Add):
                # Flat already: only its last argument can be a Const.
                *parts, last = arg.args
                if isinstance(last, Const):
                    constant += last.value
                else:
                    parts.append(last)
                args.extend(parts)
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
        for child in expr.args:
            arg = flatten(child)
            if isinstance(arg, Mul):
                # Flat already: only its first argument can be a Const.
                first, *parts = arg.args
                if isinstance(first, Const):
                    constant *= first.value
                else:
                    args.append(first)
                args.extend(parts)
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
        base = flatten(expr.base)
        if expr.exponent == 0:
            return Const(Fraction(1))
        if expr.exponent == 1:
            return base
        if isinstance(base, Const):
            return Const(base.value ** expr.exponent)
        return Pow(base, expr.exponent)
    if isinstance(expr, Call):
        return Call(expr.function, tuple(flatten(a) for a in expr.args))
    return expr
