"""Library elements: the unit of characterization (Section 3.1).

Each element is labeled with exactly what the paper lists: "the type of
inputs and outputs, performance, accuracy, energy consumption, and
finally the polynomial representation".

The polynomial representation lives over *formal* input names
(``in0``, ``in1``, ...); multi-output elements (IMDCT, subband
synthesis matrixing) carry one polynomial per output.  The mapping
layer instantiates formals against the target's variables.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, fields
from typing import Callable

from repro.errors import LibraryError
from repro.platform.tally import OperationTally
from repro.symalg.polynomial import Polynomial

__all__ = ["LibraryElement", "formal_inputs"]


def formal_inputs(count: int) -> tuple[str, ...]:
    """The canonical formal input names ``in0..in{count-1}``."""
    return tuple(f"in{i}" for i in range(count))


@dataclass(frozen=True)
class LibraryElement:
    """One characterized library element.

    Attributes
    ----------
    name:
        The callable's name (e.g. ``ippsSynthPQMF_MP3_32s16s``).
    library:
        Which library it belongs to: ``LM`` (Linux math), ``IH``
        (in-house), ``IPP`` (Intel primitives) or ``REF`` (the
        open-source reference implementation).
    polynomials:
        Polynomial representation, one per output, over formal inputs
        ``in0..`` (coefficients may be exact rationals of the element's
        numeric constants, e.g. cosine-table entries).
    input_format / output_format:
        Data formats, from the include files ("double", "q5.26", ...).
    accuracy:
        Max absolute error versus exact math on the element's domain.
    cost:
        Per-call operation tally (prices to seconds/Joules on a
        platform via characterization).
    kernel:
        Optional executable implementation.  Nothing in the package
        executes it: ``accuracy`` is the declared label, not measured
        from the kernel.
    """

    name: str
    library: str
    polynomials: tuple[Polynomial, ...]
    input_format: str
    output_format: str
    accuracy: float
    cost: OperationTally
    kernel: Callable | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if not self.polynomials:
            raise LibraryError(f"element {self.name} has no polynomial representation")
        if self.library not in ("LM", "IH", "IPP", "REF"):
            raise LibraryError(f"unknown library tag {self.library!r}")
        if self.accuracy < 0:
            raise LibraryError("accuracy must be nonnegative")

    @property
    def polynomial(self) -> Polynomial:
        """The single polynomial of a scalar element."""
        if len(self.polynomials) != 1:
            raise LibraryError(
                f"{self.name} has {len(self.polynomials)} outputs; use .polynomials")
        return self.polynomials[0]

    @property
    def n_outputs(self) -> int:
        return len(self.polynomials)

    @property
    def formals(self) -> tuple[str, ...]:
        """Formal input names used across the polynomials, sorted by index."""
        names: set[str] = set()
        for poly in self.polynomials:
            names.update(poly.variables)
        return tuple(sorted(names, key=lambda n: (len(n), n)))

    @property
    def arity(self) -> int:
        return len(self.formals)

    def __getstate__(self) -> dict:
        """Serialization contract: everything but an unpicklable kernel.

        The builtin catalogs attach module-level kernels, which pickle
        by reference; ad-hoc elements may carry lambdas or closures,
        which cannot cross a process or disk boundary.  Those kernels
        are replaced by ``None`` — nothing in the package executes a
        kernel (it is excluded from the element fingerprint), so
        mapping results are identical either way; only a caller reading
        ``kernel`` off an unpickled element would notice.
        """
        state = {f.name: getattr(self, f.name) for f in fields(self)}
        kernel = state["kernel"]
        if kernel is not None:
            try:
                pickle.dumps(kernel)
            except Exception:
                state["kernel"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            object.__setattr__(self, name, value)

    # The copy module also routes through __getstate__, which would
    # silently drop closure kernels from plain copies; only *pickles*
    # must shed them, so copying is implemented directly.
    def __copy__(self) -> "LibraryElement":
        return self.__class__(
            **{f.name: getattr(self, f.name) for f in fields(self)})

    def __deepcopy__(self, memo: dict) -> "LibraryElement":
        import copy
        new = object.__new__(self.__class__)
        memo[id(self)] = new     # registered first: shared refs stay shared
        for f in fields(self):
            value = self.kernel if f.name == "kernel" else \
                copy.deepcopy(getattr(self, f.name), memo)
            object.__setattr__(new, f.name, value)
        return new

    def output_symbol(self, index: int = 0) -> str:
        """The fresh symbol the mapper introduces for output ``index``."""
        if self.n_outputs == 1:
            return f"{self.name}_out"
        return f"{self.name}_out{index}"

    def __str__(self) -> str:
        return f"{self.library}:{self.name}"
