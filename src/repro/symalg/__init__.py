"""``repro.symalg`` — the from-scratch symbolic algebra engine.

This package plays the role Maple V played in the paper: sparse exact
multivariate polynomials, term orders, multivariate division, Groebner
bases, simplification modulo side relations, Horner forms,
factorization, Taylor approximation, and expression trees.

Quick tour:

>>> from repro.symalg import symbols, simplify_modulo
>>> x, y = symbols("x y")
>>> s = x + x**3 * y**2 - 2 * x * y**3
>>> str(simplify_modulo(s, {"p": x**2 - 2*y}, ["x", "y", "p"]))
'p*x*y^2 + x'
"""

from repro.symalg.division import DivisionResult, divide, exact_divide, reduce
from repro.symalg.expression import (Add, Const, Expression, Mul, OpCount,
                                     Var, flatten, to_source)
from repro.symalg.factor import Factorization, factor
from repro.symalg.gcdtools import polynomial_gcd
from repro.symalg.groebner import groebner_basis, is_groebner_basis, s_polynomial
from repro.symalg.horner import horner
from repro.symalg.ideal import SideRelation, simplify_modulo
from repro.symalg.ordering import GREVLEX, GRLEX, LEX, TermOrder
from repro.symalg.polynomial import Polynomial, symbols
from repro.symalg.series import SUPPORTED_TAYLOR, taylor

__all__ = [
    "Polynomial", "symbols",
    "TermOrder", "LEX", "GRLEX", "GREVLEX",
    "divide", "reduce", "exact_divide", "DivisionResult",
    "groebner_basis", "is_groebner_basis", "s_polynomial",
    "SideRelation", "simplify_modulo",
    "polynomial_gcd",
    "factor", "Factorization",
    "horner",
    "taylor", "SUPPORTED_TAYLOR",
    "Expression", "Const", "Var", "Add", "Mul", "OpCount",
    "flatten", "to_source",
]
