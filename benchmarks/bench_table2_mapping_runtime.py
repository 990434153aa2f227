"""Table 2: the library-mapping algorithm's runtime.

Table 2 is pseudo-code, not data; the paper's claim about it is
"typically, the algorithm takes only a few minutes to execute" (with
Maple V in 2002).  This bench times our Decompose on the paper's own
side-relation example and the Equation-1 block mapping — both should be
orders of magnitude under the paper's minutes on a modern laptop.  Both
run on a memory-only ``MappingSession``, so after the first round the
timing is the memoized (warm) call.
"""

from paper_data import FASTER_THAN_REALTIME_MIN  # noqa: F401  (module smoke)
from repro.api import MappingSession, SessionConfig
from repro.library import Library, LibraryElement, full_library
from repro.mapping.flow import _imdct_block
from repro.platform import OperationTally
from repro.symalg import Polynomial, symbols


def _demo_library():
    i0 = Polynomial.variable("in0")
    i1 = Polynomial.variable("in1")
    return Library("demo", [LibraryElement(
        name="sq2y", library="IH", polynomials=(i0 ** 2 - 2 * i1,),
        input_format="q", output_format="q", accuracy=1e-9,
        cost=OperationTally(int_mul=1, int_alu=1))])


def test_table2_decompose_runtime(benchmark, platform, report):
    x, y = symbols("x y")
    target = x + x ** 3 * y ** 2 - 2 * x * y ** 3
    lib = _demo_library()

    session = MappingSession(SessionConfig())
    result = benchmark(session.decompose, target, lib, platform)
    assert result.mapped
    assert result.best.element_names() == ["sq2y"]
    report(f"\nTable 2 — Decompose on the paper's example: "
           f"{result.nodes_explored} nodes, {result.solutions_found} solutions, "
           f"{result.pruned} pruned (paper: 'a few minutes'; ours: see timing)")


def test_table2_block_mapping_runtime(benchmark, platform, report):
    block = _imdct_block()
    library = full_library()

    session = MappingSession(SessionConfig())
    result = benchmark(session.map, block, library, platform)
    assert result.winner.element.name == "IppsMDCTInv_MP3_32s"
    report(f"\nTable 2 — Equation-1 block mapped to "
           f"{result.winner.element.name} out of {len(result.matches)} "
           f"matching elements")
