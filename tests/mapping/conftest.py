"""Shared fixtures and builders for the mapping-layer test suite."""

from repro.library import Library, LibraryElement
from repro.platform import OperationTally
from repro.symalg import Polynomial


def demo_mapping_library() -> Library:
    """The suite's one-element demo library (``sq2y``: in0^2 - 2*in1)."""
    i0 = Polynomial.variable("in0")
    i1 = Polynomial.variable("in1")
    return Library("demo", [LibraryElement(
        name="sq2y", library="IH", polynomials=(i0 ** 2 - 2 * i1,),
        input_format="q", output_format="q", accuracy=1e-9,
        cost=OperationTally(int_mul=1, int_alu=1))])
