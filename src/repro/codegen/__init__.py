"""Fixed-point code generation and numeric verification.

The back half of the paper's flow: once a block is mapped to a library
element, generate executable code for it and *measure* the accuracy
instead of trusting the characterization table.  Four stages:

* :mod:`repro.codegen.lower` — Horner-scheduled three-address IR;
* :mod:`repro.codegen.fixedpt` — numeric-format binding + reference
  interpreter on :mod:`repro.fixedpoint` semantics;
* :mod:`repro.codegen.pysource` — the level-batched NumPy plan that
  runs a whole stimulus per call, and emitted Python source for
  reading, both pinned bit-identical to the interpreter;
* :mod:`repro.codegen.verify` — measured RMS / max error / SNR against
  exact float64 references on deterministic workload stimulus.
"""

from repro.codegen.fixedpt import (
    NumericFormat,
    element_formats,
    interpret,
    interpret_raw,
    parse_format,
)
from repro.codegen.lower import (
    Instr,
    LoweredKernel,
    block_inputs,
    lower_block,
    lower_expressions,
    lower_match,
    lower_polynomials,
    lower_solution,
)
from repro.codegen.pysource import CompiledKernel, compile_kernel, emit_python
from repro.codegen.verify import (
    SNR_CAP_DB,
    BlockMeasurement,
    match_measurer,
    measure_match,
    stimulus_for_block,
)

__all__ = [
    "Instr",
    "LoweredKernel",
    "block_inputs",
    "lower_block",
    "lower_expressions",
    "lower_match",
    "lower_polynomials",
    "lower_solution",
    "NumericFormat",
    "parse_format",
    "element_formats",
    "interpret",
    "interpret_raw",
    "CompiledKernel",
    "emit_python",
    "compile_kernel",
    "SNR_CAP_DB",
    "BlockMeasurement",
    "measure_match",
    "match_measurer",
    "stimulus_for_block",
]
