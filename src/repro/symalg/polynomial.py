"""Sparse multivariate polynomials over exact rationals.

This module is the heart of the from-scratch symbolic engine that
replaces Maple V in the DAC'02 methodology.  A :class:`Polynomial` is an
immutable sparse polynomial: publicly a mapping from exponent tuples to
nonzero :class:`~fractions.Fraction` coefficients over a sorted tuple of
variable names; internally each monomial is a *packed integer code*
(see :mod:`repro.symalg.monomials`) and integer coefficients stay plain
``int`` until a denominator actually appears.

Design rules
------------
* **Canonical form.**  Variables are stored sorted by name, each term is
  one packed code carrying one exponent field per variable, zero
  coefficients are dropped, and variables that no term uses are pruned.
  Two polynomials are equal iff they represent the same function, so
  ``==`` and ``hash`` are structural.
* **Exact arithmetic.**  Coefficients are rationals; ``float`` inputs
  are converted exactly (every binary float is a rational).  Integral
  coefficients are kept as machine ``int`` — the fast path — and only
  become ``Fraction`` when a division introduces a denominator.  Numeric
  tolerance only appears in :meth:`Polynomial.max_coefficient_distance`,
  which the library matcher uses for the paper's "within an acceptable
  tolerance" test.
* **No hidden term order.**  Leading terms depend on a
  :class:`~repro.symalg.ordering.TermOrder` passed explicitly by the
  division/Groebner layers; per-order leading terms are cached on the
  instance (polynomials are immutable, so the cache never invalidates).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from numbers import Rational
from typing import Iterator, Mapping, Sequence, Union

from repro.errors import SymbolicError
from repro.symalg.monomials import (MASK, MAX_EXPONENT, SHIFT, nonzero_fields,
                                    pack, remap, remap_table, unpack)
from repro.symalg.ordering import GREVLEX, TermOrder

__all__ = ["Polynomial", "symbols", "Coefficient", "Scalar"]

#: Types accepted wherever a coefficient is expected.
Scalar = Union[int, float, Fraction]
Coefficient = Fraction

#: Internal coefficient type: ``int`` on the fast path, else ``Fraction``.
_Coeff = Union[int, Fraction]


def _to_fraction(value: Scalar) -> Fraction:
    """Convert an accepted scalar to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise SymbolicError(f"non-finite coefficient {value!r}")
        return Fraction(value)
    if isinstance(value, Rational):
        return Fraction(value.numerator, value.denominator)
    raise SymbolicError(f"cannot use {type(value).__name__} as a polynomial coefficient")


def _to_coeff(value: Scalar) -> _Coeff:
    """Convert a scalar to the internal coefficient type (int fast path)."""
    if type(value) is int:
        return value
    frac = _to_fraction(value)
    return frac.numerator if frac.denominator == 1 else frac


def _as_fraction(value: _Coeff) -> Fraction:
    """Present an internal coefficient as the public ``Fraction`` type."""
    return value if type(value) is Fraction else Fraction(value)


class Polynomial:
    """An immutable sparse multivariate polynomial with rational coefficients.

    Construct via :meth:`constant`, :meth:`variable`, :func:`symbols`,
    :meth:`from_dict`, or the parser in :mod:`repro.symalg.parser`; then
    combine with ``+ - * **``.

    >>> x, y = symbols("x y")
    >>> p = (x + y) * (x - y)
    >>> p
    Polynomial('x^2 - y^2')
    >>> p.evaluate({"x": 3, "y": 2})
    Fraction(5, 1)
    """

    __slots__ = ("_variables", "_codes", "_hash", "_digest", "_terms_cache",
                 "_lt_cache", "_degree_cache")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], Scalar]):
        """Build a polynomial; prefer the named constructors.

        ``variables`` and ``terms`` are canonicalized: coefficients are
        converted to exact rationals, zero terms dropped, variables
        sorted and pruned.
        """
        variables = tuple(variables)
        n = len(variables)
        cleaned: dict[tuple[int, ...], _Coeff] = {}
        for exps, coeff in terms.items():
            val = _to_coeff(coeff)
            if val == 0:
                continue
            exps = tuple(exps)
            if len(exps) != n:
                raise SymbolicError(
                    f"exponent tuple {exps} does not match variables {variables}")
            for e in exps:
                if e < 0:
                    raise SymbolicError(f"negative exponent in {exps}")
                if e >= MAX_EXPONENT:
                    raise SymbolicError(
                        f"exponent {e} exceeds the supported maximum {MAX_EXPONENT - 1}")
            prev = cleaned.get(exps)
            if prev is not None:
                val = prev + val
                if type(val) is Fraction and val.denominator == 1:
                    val = val.numerator
            cleaned[exps] = val
        cleaned = {e: c for e, c in cleaned.items() if c != 0}

        # Prune unused variables and sort the rest by name.
        used = [i for i in range(n) if any(exps[i] for exps in cleaned)]
        pruned_vars = tuple(variables[i] for i in used)
        order = sorted(range(len(pruned_vars)), key=lambda i: pruned_vars[i])
        self._variables: tuple[str, ...] = tuple(pruned_vars[i] for i in order)
        remap_positions = [used[i] for i in order]
        self._codes: dict[int, _Coeff] = {
            pack([exps[i] for i in remap_positions]): coeff
            for exps, coeff in cleaned.items()
        }
        self._hash: int | None = None
        self._digest: str | None = None
        self._terms_cache: dict[tuple[int, ...], Fraction] | None = None
        self._lt_cache: dict[TermOrder, tuple[int, ...]] | None = None
        self._degree_cache: int | None = None

    # ------------------------------------------------------------------
    # Internal fast constructors (packed representation)
    # ------------------------------------------------------------------
    @classmethod
    def _from_codes(cls, variables: tuple[str, ...],
                    codes: dict[int, _Coeff]) -> "Polynomial":
        """Adopt a packed term dict without re-validation.

        Caller contract: ``variables`` is sorted, coefficients are
        nonzero ``int``/``Fraction``.  Denominator-1 fractions are
        normalized back to ``int`` and unused variables are pruned here.
        """
        for code, coeff in codes.items():
            if type(coeff) is Fraction and coeff.denominator == 1:
                codes[code] = coeff.numerator

        n = len(variables)
        if n:
            if not codes:
                variables = ()
            else:
                or_all = 0
                for code in codes:
                    or_all |= code
                used = [i for i in range(n)
                        if (or_all >> (SHIFT * (n - 1 - i))) & MASK]
                if len(used) != n:
                    kept = tuple(variables[i] for i in used)
                    n_kept = len(kept)
                    table = tuple(
                        (SHIFT * (n - 1 - old_i), SHIFT * (n_kept - 1 - new_i))
                        for new_i, old_i in enumerate(used))
                    codes = {remap(c, table): v for c, v in codes.items()}
                    variables = kept

        self = object.__new__(cls)
        self._variables = variables
        self._codes = codes
        self._hash = None
        self._digest = None
        self._terms_cache = None
        self._lt_cache = None
        self._degree_cache = None
        return self

    @classmethod
    def _from_frame(cls, frame: tuple[str, ...],
                    codes: dict[int, _Coeff]) -> "Polynomial":
        """Like :meth:`_from_codes` for a frame in arbitrary (e.g.
        precedence) order: codes are re-packed onto the sorted frame."""
        ordered = tuple(sorted(frame))
        if ordered != frame:
            table = remap_table(frame, ordered)
            codes = {remap(c, table): v for c, v in codes.items()}
        return cls._from_codes(ordered, codes)

    def _codes_on(self, frame: tuple[str, ...]) -> dict[int, _Coeff]:
        """This polynomial's packed terms re-expressed over ``frame``.

        ``frame`` must contain every variable of the polynomial; it may
        be in any order.  Returns the internal dict itself when the
        frame already matches — callers must not mutate the result.
        """
        if frame == self._variables:
            return self._codes
        table = remap_table(self._variables, frame)
        return {remap(c, table): v for c, v in self._codes.items()}

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, value: Scalar) -> "Polynomial":
        """The constant polynomial ``value``."""
        coeff = _to_coeff(value)
        return cls._from_codes((), {0: coeff} if coeff != 0 else {})

    @classmethod
    def zero(cls) -> "Polynomial":
        """The zero polynomial."""
        return cls._from_codes((), {})

    @classmethod
    def one(cls) -> "Polynomial":
        """The constant polynomial 1."""
        return cls._from_codes((), {0: 1})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        """The polynomial consisting of the single variable ``name``."""
        if not name or not isinstance(name, str):
            raise SymbolicError(f"invalid variable name {name!r}")
        return cls._from_codes((name,), {1: 1})

    @classmethod
    def linear(cls, coefficients: Mapping[str, Scalar]) -> "Polynomial":
        """The linear form ``sum(c * name)`` over ``{name: c}``.

        Each term is one packed code, as in :meth:`variable`, so a form
        costs its nonzero coefficients, not one exponent entry per
        variable per term.

        >>> Polynomial.linear({"y": 0.5, "x": 2, "z": 0})
        Polynomial('2*x + 1/2*y')
        """
        nonzero = {}
        for name, value in coefficients.items():
            coeff = _to_coeff(value)
            if coeff != 0:
                nonzero[name] = coeff
        names = tuple(sorted(nonzero))
        top = len(names) - 1
        shift = {name: SHIFT * (top - i) for i, name in enumerate(names)}
        # Terms keep the mapping's order, as the general constructor's do.
        return cls._from_codes(
            names, {1 << shift[name]: coeff for name, coeff in nonzero.items()})

    @classmethod
    def monomial(cls, powers: Mapping[str, int], coefficient: Scalar = 1) -> "Polynomial":
        """A single term, e.g. ``monomial({'x': 2, 'y': 1}, 3)`` is ``3*x^2*y``."""
        names = tuple(powers)
        exps = tuple(powers[n] for n in names)
        return cls(names, {exps: coefficient})

    @classmethod
    def from_dict(cls, terms: Mapping[tuple[int, ...], Scalar],
                  variables: Sequence[str]) -> "Polynomial":
        """Build from an ``{exponent_tuple: coefficient}`` mapping."""
        return cls(variables, terms)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def variables(self) -> tuple[str, ...]:
        """Variable names actually used, sorted."""
        return self._variables

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only view of the term map (do not mutate).

        Decoded lazily from the packed representation and cached; keys
        are exponent tuples aligned with :attr:`variables`.
        """
        if self._terms_cache is None:
            n = len(self._variables)
            self._terms_cache = {unpack(code, n): _as_fraction(coeff)
                                 for code, coeff in self._codes.items()}
        return self._terms_cache

    def __len__(self) -> int:
        """Number of (nonzero) terms."""
        return len(self._codes)

    def is_zero(self) -> bool:
        """True iff this is the zero polynomial."""
        return not self._codes

    def is_constant(self) -> bool:
        """True iff no variables occur."""
        return not self._variables

    def constant_value(self) -> Fraction:
        """The value of a constant polynomial (raises if non-constant)."""
        if not self.is_constant():
            raise SymbolicError(f"{self} is not constant")
        return _as_fraction(self._codes.get(0, 0))

    def total_degree(self) -> int:
        """Maximum total degree over all terms (zero polynomial: -1).

        Cached on the instance: the multiplication overflow guard asks
        for it on every product.

        >>> x, y = symbols("x y")
        >>> (x**2 * y + y).total_degree()
        3
        """
        if self._degree_cache is not None:
            return self._degree_cache
        if not self._codes:
            self._degree_cache = -1
            return -1
        best = 0
        for code in self._codes:
            total = 0
            while code:
                total += code & MASK
                code >>= SHIFT
            if total > best:
                best = total
        self._degree_cache = best
        return best

    def degree_in(self, var: str) -> int:
        """Maximum exponent of ``var`` (0 if absent, -1 for the zero poly)."""
        if not self._codes:
            return -1
        if var not in self._variables:
            return 0
        shift = self._field_shift(self._variables.index(var))
        return max((code >> shift) & MASK for code in self._codes)

    def coefficient(self, powers: Mapping[str, int]) -> Fraction:
        """Coefficient of the monomial given by ``powers`` (0 if absent)."""
        full = {v: 0 for v in self._variables}
        for name, power in powers.items():
            if power and name not in full:
                return Fraction(0)
            if name in full:
                full[name] = power
        code = pack([full[v] for v in self._variables])
        return _as_fraction(self._codes.get(code, 0))

    def iter_terms(self) -> Iterator[tuple[dict[str, int], Fraction]]:
        """Yield ``({var: exponent}, coefficient)`` pairs, listing the
        variables each term uses (in :attr:`variables` order)."""
        variables = self._variables
        n = len(variables)
        for code, coeff in self._codes.items():
            yield ({variables[i]: e for i, e in nonzero_fields(code, n)},
                   _as_fraction(coeff))

    def _field_shift(self, index: int) -> int:
        """Bit offset of variable ``index``'s exponent field."""
        return SHIFT * (len(self._variables) - 1 - index)

    # ------------------------------------------------------------------
    # Alignment helper
    # ------------------------------------------------------------------
    def _aligned(self, other: "Polynomial") -> tuple[tuple[str, ...],
                                                     dict[int, _Coeff],
                                                     dict[int, _Coeff]]:
        """Re-express both packed term maps over the union variable frame."""
        if self._variables == other._variables:
            return self._variables, self._codes, other._codes
        union = tuple(sorted(set(self._variables) | set(other._variables)))
        return union, self._codes_on(union), other._codes_on(union)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        union, a, b = self._aligned(other)
        out = dict(a)
        get = out.get
        for code, coeff in b.items():
            val = get(code, 0) + coeff
            if val:
                out[code] = val
            else:
                del out[code]
        return Polynomial._from_codes(union, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_codes(
            self._variables, {c: -v for c, v in self._codes.items()})

    def __sub__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        union, a, b = self._aligned(other)
        out = dict(a)
        get = out.get
        for code, coeff in b.items():
            val = get(code, 0) - coeff
            if val:
                out[code] = val
            else:
                del out[code]
        return Polynomial._from_codes(union, out)

    def __rsub__(self, other: Scalar) -> "Polynomial":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other: Union["Polynomial", Scalar]) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        # Degree-bound overflow guard: every exponent field of a product
        # monomial is at most deg(self) + deg(other), so staying under
        # the guard bit keeps packed addition carry-free.  (Same bound
        # __pow__ checks; realistic inputs never get near 2^31.)
        if self._codes and other._codes and \
                self.total_degree() + other.total_degree() >= 1 << (SHIFT - 1):
            raise SymbolicError(
                "product would overflow the packed exponent range")
        union, a, b = self._aligned(other)
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, _Coeff] = {}
        get = out.get
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = e1 + e2
                val = get(key, 0) + c1 * c2
                if val:
                    out[key] = val
                else:
                    del out[key]
        return Polynomial._from_codes(union, out)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "Polynomial":
        """Division by a nonzero scalar only; use :mod:`division` for polynomials."""
        if isinstance(other, Polynomial):
            if other.is_constant():
                other = other.constant_value()
            else:
                raise SymbolicError(
                    "use repro.symalg.division for polynomial/polynomial division")
        value = _to_coeff(other)
        if value == 0:
            raise SymbolicError("division by zero")
        if value == 1:
            return self
        out: dict[int, _Coeff] = {}
        for code, coeff in self._codes.items():
            if type(coeff) is int and type(value) is int:
                q, r = divmod(coeff, value)
                out[code] = q if r == 0 else Fraction(coeff, value)
            else:
                out[code] = coeff / value
        return Polynomial._from_codes(self._variables, out)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise SymbolicError(f"polynomial exponent must be a nonnegative int, got {exponent!r}")
        if exponent and self._codes:
            worst = max(max(unpack(code, len(self._variables)), default=0)
                        for code in self._codes)
            if worst * exponent >= 1 << (SHIFT - 1):
                raise SymbolicError(
                    f"power {exponent} would overflow the packed exponent range")
        result = Polynomial.one()
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # ------------------------------------------------------------------
    # Calculus / evaluation / substitution
    # ------------------------------------------------------------------
    def derivative(self, var: str) -> "Polynomial":
        """Partial derivative with respect to ``var``.

        >>> x, y = symbols("x y")
        >>> (x**3 * y).derivative("x")
        Polynomial('3*x^2*y')
        """
        if var not in self._variables:
            return Polynomial.zero()
        shift = self._field_shift(self._variables.index(var))
        one = 1 << shift
        out: dict[int, _Coeff] = {}
        get = out.get
        for code, coeff in self._codes.items():
            e = (code >> shift) & MASK
            if e == 0:
                continue
            key = code - one
            val = get(key, 0) + coeff * e
            if val:
                out[key] = val
            else:
                del out[key]
        return Polynomial._from_codes(self._variables, out)

    def evaluate(self, env: Mapping[str, Scalar]) -> Union[Fraction, float]:
        """Evaluate at a point.  Missing variables raise.

        Returns a ``Fraction`` when all inputs are exact, otherwise a
        ``float``.
        """
        missing = [v for v in self._variables if v not in env]
        if missing:
            raise SymbolicError(f"no value for variable(s) {missing}")
        exact = all(not isinstance(env[v], float) for v in self._variables)
        values = [env[v] if isinstance(env[v], float) else _to_fraction(env[v])
                  for v in self._variables]
        n = len(self._variables)
        total: Union[Fraction, float] = Fraction(0) if exact else 0.0
        for code, coeff in self._codes.items():
            term: Union[Fraction, float] = (_as_fraction(coeff) if exact
                                            else float(coeff))
            for value, e in zip(values, unpack(code, n)):
                if e:
                    term = term * value ** e
            total = total + term
        return total

    def substitute(self, mapping: Mapping[str, Union["Polynomial", Scalar]]) -> "Polynomial":
        """Replace variables by polynomials (or scalars) simultaneously.

        A mapping that only renames variables (every value a single
        distinct variable) takes the cheap :meth:`rename` path.

        >>> x, y = symbols("x y")
        >>> (x * x + y).substitute({"x": y + 1})
        Polynomial('y^2 + 3*y + 1')
        """
        subs: dict[str, Polynomial] = {}
        for name, value in mapping.items():
            subs[name] = value if isinstance(value, Polynomial) else Polynomial.constant(value)

        relevant = {name: poly for name, poly in subs.items()
                    if name in self._variables}
        if not relevant:
            return self
        rename_map: dict[str, str] = {}
        for name, poly in relevant.items():
            if len(poly._codes) == 1 and poly._codes.get(1) == 1 \
                    and len(poly._variables) == 1:
                rename_map[name] = poly._variables[0]
        if len(rename_map) == len(relevant):
            new_names = [rename_map.get(v, v) for v in self._variables]
            if len(set(new_names)) == len(new_names):
                return self.rename(rename_map)

        n = len(self._variables)
        result = Polynomial.zero()
        for code, coeff in self._codes.items():
            term = Polynomial.constant(coeff)
            for var, e in zip(self._variables, unpack(code, n)):
                if not e:
                    continue
                base = subs.get(var, Polynomial.variable(var))
                term = term * base ** e
            result = result + term
        return result

    def rename(self, mapping: Mapping[str, str]) -> "Polynomial":
        """Rename variables (must stay distinct).

        >>> x, y = symbols("x y")
        >>> (x + 2 * y).rename({"x": "a"})
        Polynomial('a + 2*y')
        """
        new_names = tuple(mapping.get(v, v) for v in self._variables)
        if len(set(new_names)) != len(new_names):
            raise SymbolicError(f"rename {mapping} collapses distinct variables")
        if new_names == self._variables:
            return self
        return Polynomial._from_frame(new_names, dict(self._codes))

    # ------------------------------------------------------------------
    # Term-order-dependent views
    # ------------------------------------------------------------------
    def leading_term(self, order: TermOrder = GREVLEX) -> tuple[tuple[int, ...], Fraction]:
        """``(exponents, coefficient)`` of the leading term under ``order``.

        Cached per order: polynomials are immutable and the Groebner
        layer asks for the same leading term thousands of times.
        """
        if not self._codes:
            raise SymbolicError("zero polynomial has no leading term")
        cache = self._lt_cache
        if cache is None:
            cache = self._lt_cache = {}
        exps = cache.get(order)
        if exps is None:
            # Select directly on packed codes (arranged onto the order's
            # precedence frame) so the full terms dict is never
            # materialized just to find one leading monomial.
            n = len(self._variables)
            frame = order.frame(self._variables)
            ckey = order.code_key(n)
            if frame == self._variables:
                best = max(self._codes) if ckey is None \
                    else max(self._codes, key=ckey)
                exps = unpack(best, n)
            else:
                table = remap_table(self._variables, frame)
                arranged = {remap(c, table): c for c in self._codes}
                best = max(arranged) if ckey is None \
                    else max(arranged, key=ckey)
                exps = unpack(arranged[best], n)
            cache[order] = exps
        return exps, _as_fraction(self._codes[pack(exps)])

    def leading_coefficient(self, order: TermOrder = GREVLEX) -> Fraction:
        """Coefficient of the leading term."""
        return self.leading_term(order)[1]

    def monic(self, order: TermOrder = GREVLEX) -> "Polynomial":
        """Scale so the leading coefficient is 1."""
        if self.is_zero():
            return self
        return self / self.leading_coefficient(order)

    def sorted_terms(self, order: TermOrder = GREVLEX
                     ) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms sorted leading-first."""
        terms = self.terms
        exps_sorted = order.sorted_monomials(terms.keys(), self._variables)
        return [(e, terms[e]) for e in exps_sorted]

    # ------------------------------------------------------------------
    # Univariate views (used by Horner, factorization, GCD)
    # ------------------------------------------------------------------
    def coefficients_in(self, var: str) -> dict[int, "Polynomial"]:
        """View as a univariate polynomial in ``var``: power -> coefficient poly."""
        if var not in self._variables:
            return {0: self} if not self.is_zero() else {}
        i = self._variables.index(var)
        shift = self._field_shift(i)
        rest = tuple(v for j, v in enumerate(self._variables) if j != i)
        low_mask = (1 << shift) - 1
        buckets: dict[int, dict[int, _Coeff]] = {}
        for code, coeff in self._codes.items():
            power = (code >> shift) & MASK
            rest_code = ((code >> (shift + SHIFT)) << shift) | (code & low_mask)
            buckets.setdefault(power, {})[rest_code] = coeff
        return {p: Polynomial._from_codes(rest, t) for p, t in buckets.items()}

    @staticmethod
    def from_univariate(coeffs: Mapping[int, "Polynomial"], var: str) -> "Polynomial":
        """Inverse of :meth:`coefficients_in`."""
        x = Polynomial.variable(var)
        result = Polynomial.zero()
        for power, coeff in coeffs.items():
            result = result + coeff * x ** power
        return result

    def content(self) -> Fraction:
        """Rational content: gcd of numerators over lcm of denominators.

        Sign convention: the content carries the sign of the leading
        (grevlex) coefficient, so the primitive part has positive
        leading coefficient.
        """
        if self.is_zero():
            return Fraction(0)
        from math import gcd, lcm
        g = 0
        m = 1
        for c in self._codes.values():
            g = gcd(g, abs(c.numerator))
            m = lcm(m, c.denominator)
        magnitude = Fraction(g, m)
        sign = 1 if self.leading_coefficient(GREVLEX) > 0 else -1
        return magnitude * sign

    def primitive_part(self) -> "Polynomial":
        """``self / self.content()`` (integer coefficients, positive leading)."""
        if self.is_zero():
            return self
        return self / self.content()

    # ------------------------------------------------------------------
    # Numeric comparison (library matching tolerance)
    # ------------------------------------------------------------------
    def max_coefficient_distance(self, other: "Polynomial") -> float:
        """Max absolute difference between aligned coefficients.

        This is the metric behind the paper's "within an acceptable
        tolerance of the polynomial representation of a library
        element".
        """
        _, a, b = self._aligned(other)
        if not a and not b:
            return 0.0
        worst = 0.0
        for code, coeff in a.items():
            delta = abs(float(coeff) - float(b.get(code, 0)))
            if delta > worst:
                worst = delta
        for code, coeff in b.items():
            if code not in a:
                delta = abs(float(coeff))
                if delta > worst:
                    worst = delta
        return worst

    def almost_equal(self, other: "Polynomial", tolerance: float = 1e-9) -> bool:
        """True iff all aligned coefficients differ by at most ``tolerance``."""
        return self.max_coefficient_distance(other) <= tolerance

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple:
        """Pickle only the canonical core: ``(variables, codes)``.

        The lazy caches (hash, content digest, decoded terms, per-order
        leading terms, degree) are deliberately dropped — they rebuild
        on demand — so pickles are small, stable across sessions, and
        never carry per-process artifacts.  This is the serialization contract the
        batch-mapping engine and the on-disk cache tier rely on.
        """
        return (self._variables, self._codes)

    def __setstate__(self, state: tuple) -> None:
        variables, codes = state
        self._variables = tuple(variables)
        self._codes = dict(codes)
        self._hash = None
        self._digest = None
        self._terms_cache = None
        self._lt_cache = None
        self._degree_cache = None

    # ------------------------------------------------------------------
    # Dunders
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, float, Fraction)):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._variables == other._variables and self._codes == other._codes

    def __hash__(self) -> int:
        # int and denominator-1 Fraction coefficients hash identically,
        # so mixed representations cannot split equal polynomials.
        if self._hash is None:
            self._hash = hash((self._variables, frozenset(self._codes.items())))
        return self._hash

    def content_digest(self) -> str:
        """Hex sha256 of the canonical form, computed once per instance.

        The hashed text is the sorted variables plus the sorted packed
        ``(code, numerator, denominator)`` triples, in hex (linear-time
        for the long exact coefficients of cosine-table elements), so an
        ``int`` and a denominator-1 ``Fraction`` coefficient digest
        alike.  Unlike ``hash`` it is stable across processes
        (``PYTHONHASHSEED``): the mapping caches key memory and disk
        entries by it.

        >>> x, y = symbols("x y")
        >>> (x + y).content_digest() == (y + x).content_digest()
        True
        """
        if self._digest is None:
            terms = []
            for code, coeff in sorted(self._codes.items()):
                if type(coeff) is Fraction:
                    terms.append(f"{code:x} {coeff.numerator:x} {coeff.denominator:x}")
                else:
                    terms.append(f"{code:x} {coeff:x} 1")
            text = json.dumps(self._variables) + "\n" + "\n".join(terms)
            self._digest = hashlib.sha256(text.encode("ascii")).hexdigest()
        return self._digest

    def __bool__(self) -> bool:
        return bool(self._codes)

    def __str__(self) -> str:
        if not self._codes:
            return "0"
        parts: list[tuple[str, str]] = []
        for exps, coeff in self.sorted_terms(GREVLEX):
            factors = []
            for var, e in zip(self._variables, exps):
                if e == 1:
                    factors.append(var)
                elif e > 1:
                    factors.append(f"{var}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            sign = "-" if coeff < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"Polynomial({str(self)!r})"


def _coerce(value: Union[Polynomial, Scalar]) -> Polynomial:
    """Coerce scalars to polynomials; NotImplemented for foreign types."""
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, float, Fraction, Rational)):
        return Polynomial.constant(value)
    return NotImplemented


def symbols(names: str) -> tuple[Polynomial, ...]:
    """Create variable polynomials from a space- or comma-separated string.

    >>> x, y = symbols("x y")
    >>> (x + y).total_degree()
    1
    """
    parts = [n for chunk in names.replace(",", " ").split() for n in [chunk] if n]
    if not parts:
        raise SymbolicError(f"no variable names in {names!r}")
    return tuple(Polynomial.variable(n) for n in parts)
