"""Expression trees: the operational view of arithmetic code.

The symbolic engine has two representations:

* :class:`~repro.symalg.polynomial.Polynomial` — canonical, for algebra
  (Groebner, factor, matching);
* :class:`Expression` — structural, for *code*: it preserves operation
  order and sharing decisions, so it can be costed (operation counts)
  and lowered to code.

The frontend computes straight into polynomials; expressions appear
where code is scheduled.  Horner scheduling builds them from
``Const``, ``Var``, ``Add`` and ``Mul`` nodes: their operation counts
feed the platform cost model, and :mod:`repro.codegen.lower` turns
them into the three-address IR that every mapped answer runs as.
``to_polynomial`` canonicalizes any of them back to a polynomial.

Nonlinear calls (``exp``, ``log``...) never reach an expression: the
paper's series-approximation step is the frontend's model expansion,
which substitutes a Taylor polynomial at the call site.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.errors import SymbolicError
from repro.symalg.polynomial import Polynomial

__all__ = ["Expression", "Const", "Var", "Add", "Mul", "OpCount",
           "flatten", "to_source"]


@dataclass(frozen=True)
class OpCount:
    """Operation counts of an expression tree (the cost-model currency)."""

    adds: int = 0
    muls: int = 0

    def __add__(self, other: "OpCount") -> "OpCount":
        return OpCount(self.adds + other.adds, self.muls + other.muls)

    def total(self) -> int:
        """Total number of arithmetic operations."""
        return self.adds + self.muls


class Expression:
    """Abstract base of expression-tree nodes (immutable)."""

    __slots__ = ()

    def to_polynomial(self) -> Polynomial:
        """Canonicalize to a polynomial."""
        raise NotImplementedError

    def op_count(self) -> OpCount:
        """Count arithmetic operations as written (no re-association)."""
        raise NotImplementedError

    def __str__(self):
        return to_source(self)


@dataclass(frozen=True)
class Const(Expression):
    """A rational constant leaf."""

    value: Fraction

    def to_polynomial(self):
        return Polynomial.constant(self.value)

    def op_count(self):
        return OpCount()


@dataclass(frozen=True)
class Var(Expression):
    """A variable leaf."""

    name: str

    def to_polynomial(self):
        return Polynomial.variable(self.name)

    def op_count(self):
        return OpCount()


@dataclass(frozen=True)
class Add(Expression):
    """An n-ary sum (n >= 1); written left-associated when costed."""

    args: tuple[Expression, ...]

    def __post_init__(self):
        if not self.args:
            raise SymbolicError("Add needs at least one argument")

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


@dataclass(frozen=True)
class Mul(Expression):
    """An n-ary product (n >= 1)."""

    args: tuple[Expression, ...]

    def __post_init__(self):
        if not self.args:
            raise SymbolicError("Mul needs at least one argument")

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


def to_source(expr: Expression) -> str:
    """Render an expression as minimally-parenthesized infix source."""
    return _format(expr, 0)


_PREC_ADD = 1
_PREC_MUL = 2


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
    raise SymbolicError(f"unknown expression node {type(expr).__name__}")


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
    return expr
