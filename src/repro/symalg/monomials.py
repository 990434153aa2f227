"""Packed integer monomial encodings — the symalg speed substrate.

A monomial over an ordered variable frame ``(v0, .., v_{n-1})`` is
encoded as a single Python int: ``SHIFT``-bit exponent fields packed
big-endian (``v0`` in the most significant field).  The encoding turns
the three monomial operations the division and Groebner layers hammer
into integer arithmetic:

* **multiply** — ``code_a + code_b`` (fields add without carries while
  every exponent stays below the guard bit);
* **exact divide** — ``code_b - code_a`` once divisibility is known;
* **divisibility** — the *guard-bit trick*: with a mask holding the top
  bit of every field, ``a`` divides ``b`` iff
  ``((b | guard) - a) & guard == guard``.  Borrowing ``2**(SHIFT-1)``
  into each field makes every per-field subtraction self-contained, so
  a cleared guard bit pinpoints a field where ``b``'s exponent was
  smaller.

Packing big-endian means that for a *lex* order whose precedence equals
the frame order, monomial comparison is plain int comparison — no key
function at all.  :meth:`repro.symalg.ordering.TermOrder.code_key`
exploits this.

Exponents must stay below ``MAX_EXPONENT`` (:class:`Polynomial`
enforces this at construction; products may grow fields up to the guard
bit at ``2**(SHIFT-1)``).  Doctest smoke:

>>> code = pack((2, 0, 1))
>>> unpack(code, 3)
(2, 0, 1)
>>> nonzero_fields(code, 3)
[(0, 2), (2, 1)]
>>> degree(code)
3
>>> divides(pack((1, 0, 1)), code, guard_mask(3))
True
>>> divides(pack((0, 1, 0)), code, guard_mask(3))
False
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

__all__ = [
    "SHIFT", "MASK", "MAX_EXPONENT",
    "pack", "unpack", "nonzero_fields", "degree", "guard_mask", "divides",
    "lcm", "coprime",
    "remap_table", "remap",
]

#: Bits per exponent field.  32 bits keeps even 32-variable frames
#: (the polyphase matrixing block) at a 1024-bit int — still fast —
#: while leaving enormous exponent headroom.
SHIFT = 32

#: Mask of one exponent field.
MASK = (1 << SHIFT) - 1

#: Construction-time exponent ceiling.  Far below the ``2**(SHIFT-1)``
#: guard bit so that products of realistic chains never overflow a field.
MAX_EXPONENT = 1 << 20


def pack(exps: Sequence[int]) -> int:
    """Pack an exponent tuple into one int (first variable most significant)."""
    code = 0
    for e in exps:
        code = (code << SHIFT) | e
    return code


def unpack(code: int, n: int) -> tuple[int, ...]:
    """Inverse of :func:`pack` for an ``n``-variable frame."""
    return tuple((code >> (SHIFT * (n - 1 - i))) & MASK for i in range(n))


def nonzero_fields(code: int, n: int) -> list[tuple[int, int]]:
    """``(index, exponent)`` of each nonzero field of an ``n``-variable
    code, by index: :func:`unpack` without the zeros.

    Walks the set fields from the most significant down, finding each
    with ``bit_length``, so a sparse monomial over a wide frame costs
    its own variables, not the width of the frame.
    """
    out = []
    while code:
        field = (code.bit_length() - 1) // SHIFT
        shift = SHIFT * field
        out.append((n - 1 - field, code >> shift))
        code &= (1 << shift) - 1
    return out


def degree(code: int) -> int:
    """Total degree: the sum of all exponent fields."""
    total = 0
    while code:
        total += code & MASK
        code >>= SHIFT
    return total


@lru_cache(maxsize=256)
def guard_mask(n: int) -> int:
    """The guard bits (top bit of each field) for an ``n``-variable frame."""
    mask = 0
    for i in range(n):
        mask |= 1 << (SHIFT * i + SHIFT - 1)
    return mask


def divides(a: int, b: int, guard: int) -> bool:
    """True iff monomial ``a`` divides monomial ``b`` (same frame).

    ``guard`` must be ``guard_mask(n)`` for the shared frame.  The
    quotient monomial, when this returns True, is simply ``b - a``.
    """
    return ((b | guard) - a) & guard == guard


def lcm(a: int, b: int) -> int:
    """Least common multiple: the per-field maximum of two codes."""
    out = 0
    shift = 0
    while a or b:
        fa = a & MASK
        fb = b & MASK
        out |= (fa if fa >= fb else fb) << shift
        a >>= SHIFT
        b >>= SHIFT
        shift += SHIFT
    return out


def coprime(a: int, b: int) -> bool:
    """True iff the two monomials share no variable."""
    while a and b:
        if (a & MASK) and (b & MASK):
            return False
        a >>= SHIFT
        b >>= SHIFT
    return True


@lru_cache(maxsize=4096)
def remap_table(src: tuple[str, ...], dst: tuple[str, ...]
                ) -> tuple[tuple[int, int], ...]:
    """Field-shift pairs that move codes from frame ``src`` into ``dst``.

    ``dst`` must contain every variable of ``src`` (in any order).
    Memoized: polynomial operations re-align the same variable frames
    over and over.
    """
    dst_index = {name: i for i, name in enumerate(dst)}
    n_src = len(src)
    n_dst = len(dst)
    table = []
    for i, name in enumerate(src):
        src_shift = SHIFT * (n_src - 1 - i)
        dst_shift = SHIFT * (n_dst - 1 - dst_index[name])
        table.append((src_shift, dst_shift))
    return tuple(table)


def remap(code: int, table: tuple[tuple[int, int], ...]) -> int:
    """Apply a :func:`remap_table` to one code."""
    out = 0
    for src_shift, dst_shift in table:
        field = (code >> src_shift) & MASK
        if field:
            out |= field << dst_shift
    return out
