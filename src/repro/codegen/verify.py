"""Numeric verification: measured accuracy for mapped blocks.

The paper evaluates every mapped decoder against the ISO 11172-4
compliance bands; this module does the same *per block*.  A mapped
block's generated kernel (element arithmetic under the element's
declared formats) runs on deterministic workload stimulus, an exact
float64 lowering of the block's own polynomials runs on the same
vectors, and the difference is reported as RMS / max error / SNR and
classified with :func:`repro.mp3.compliance.check_compliance` — the
loop the Pareto front's static ``accuracy`` estimate never closed.

Stimulus comes from the workload registry: blocks declare a
``stimulus`` hook (the MP3 blocks replay compliance-stream vectors),
everything else gets the seeded fallback, so measurements are
byte-reproducible across machines.

>>> from repro.api import MappingSession, SessionConfig
>>> from repro.library import full_library
>>> from repro.workload import workload_named
>>> block = workload_named("mp3").methodology_blocks()["inv_mdctL"]
>>> matches = MappingSession(SessionConfig()).map(block, full_library()).matches
>>> double = [m for m in matches if m.element.input_format == "double"][0]
>>> measurement = measure_match(block, double)
>>> measurement.compliance
'full'
>>> measurement.snr_db == SNR_CAP_DB  # exact float64 kernel: error-free
True
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.codegen.fixedpt import element_formats, parse_format
from repro.codegen.lower import lower_block, lower_match
from repro.codegen.pysource import CompiledKernel, compile_kernel
from repro.errors import CodegenError
from repro.frontend.extract import TargetBlock
from repro.mapping.match import BlockMatch
from repro.mp3.compliance import check_compliance
from repro.workload.registry import (
    DEFAULT_WORKLOAD_REGISTRY,
    WorkloadRegistry,
    default_stimulus,
)

__all__ = [
    "SNR_CAP_DB",
    "BlockMeasurement",
    "stimulus_for_block",
    "measure_match",
    "match_measurer",
]

#: Reported SNR ceiling: canonical JSON forbids infinities, so an
#: error-free kernel reports this finite cap (far beyond any physical
#: converter).
SNR_CAP_DB = 300.0


@dataclass(frozen=True)
class BlockMeasurement:
    """Measured accuracy of one mapped block's generated kernel."""

    block: str
    element: str
    element_library: str
    input_format: str
    output_format: str
    declared_accuracy: float
    rms_error: float
    max_error: float
    snr_db: float
    compliance: str
    n_vectors: int

    def to_payload(self) -> dict:
        """JSON-shaped measurement summary (used by ``VerifyResult``)."""
        return {
            "element": self.element,
            "element_library": self.element_library,
            "input_format": self.input_format,
            "output_format": self.output_format,
            "declared_accuracy": self.declared_accuracy,
            "rms_error": self.rms_error,
            "max_error": self.max_error,
            "snr_db": self.snr_db,
            "compliance": self.compliance,
            "vectors": self.n_vectors,
        }


def stimulus_for_block(
    block: TargetBlock,
    workload: "str | None" = None,
    registry: WorkloadRegistry = DEFAULT_WORKLOAD_REGISTRY,
) -> tuple[tuple[float, ...], ...]:
    """Deterministic stimulus for a block.

    With ``workload`` given, the block's stimulus comes from that
    ``registry`` entry when the entry declares the block.  Without it,
    the registry's workloads are scanned in registration order (the MP3
    workload first) for a declaration of the block's name.  Blocks no
    workload declares fall back to the seeded default stimulus.
    """
    entries = [registry.get(workload)] if workload is not None else registry
    for entry in entries:
        if block.name in entry.block_names():
            return entry.workload.stimulus(block.name)
    n_inputs = len(dict.fromkeys(block.input_variables))
    return default_stimulus(n_inputs, name=block.name)


def _run_vectors(
    compiled: CompiledKernel,
    inputs: tuple[str, ...],
    output_names: tuple[str, ...],
    stimulus: Sequence[Sequence[float]],
) -> np.ndarray:
    """The kernel's outputs on the whole stimulus in one call: one row
    per vector, one column per name in ``output_names``; each vector's
    values are named by ``inputs``."""
    kernel = compiled.kernel
    columns = [inputs.index(name) for name in kernel.inputs]
    got = compiled.run_vectors(np.asarray(stimulus, dtype=np.float64)[:, columns])
    return got[:, [kernel.output_names.index(name) for name in output_names]]


def _snr_db(reference: np.ndarray, under_test: np.ndarray) -> float:
    signal = float(np.mean(reference * reference))
    noise = float(np.mean((reference - under_test) ** 2))
    if noise == 0.0:
        return SNR_CAP_DB
    if signal == 0.0:
        return 0.0
    return min(10.0 * math.log10(signal / noise), SNR_CAP_DB)


def _checked_stimulus(
    block: TargetBlock, stimulus: "Sequence[Sequence[float]] | None"
) -> tuple:
    vectors = tuple(stimulus) if stimulus is not None else stimulus_for_block(block)
    if not vectors:
        raise CodegenError(f"empty stimulus for block {block.name!r}")
    return vectors


def _reference_rows(block: TargetBlock, stimulus: tuple) -> np.ndarray:
    """The block's own polynomials, exact float64, on ``stimulus`` — the
    yardstick every generated kernel of the block is graded against."""
    double = parse_format("double")
    reference = compile_kernel(lower_block(block), double, double)
    kernel = reference.kernel
    return _run_vectors(reference, kernel.inputs, kernel.output_names, stimulus)


def _grade(
    block: TargetBlock, match: BlockMatch, stimulus: tuple, ref: np.ndarray
) -> BlockMeasurement:
    """Run the match's generated kernel on ``stimulus`` and grade it
    against the reference rows ``ref``."""
    kernel = lower_match(block, match)
    in_fmt, out_fmt = element_formats(match.element)
    compiled = compile_kernel(kernel, in_fmt, out_fmt)
    got = _run_vectors(compiled, kernel.inputs, kernel.output_names, stimulus)
    report = check_compliance(ref, got)
    return BlockMeasurement(
        block=block.name,
        element=match.element.name,
        element_library=match.element.library,
        input_format=match.element.input_format,
        output_format=match.element.output_format,
        declared_accuracy=match.element.accuracy,
        rms_error=report.rms_error,
        max_error=report.max_error,
        snr_db=_snr_db(ref, got),
        compliance=report.level,
        n_vectors=len(stimulus),
    )


def measure_match(
    block: TargetBlock,
    match: BlockMatch,
    stimulus: "Sequence[Sequence[float]] | None" = None,
) -> BlockMeasurement:
    """Measure a mapped block's generated kernel against float64 truth.

    Lowers both the match (element rows, element formats) and the block
    itself (exact double), runs them on the same stimulus, and grades
    the difference.
    """
    vectors = _checked_stimulus(block, stimulus)
    return _grade(block, match, vectors, _reference_rows(block, vectors))


def match_measurer(
    block: TargetBlock,
    stimulus: "Sequence[Sequence[float]] | None" = None,
) -> Callable[[BlockMatch], tuple[float, float]]:
    """A per-match ``(measured_accuracy, snr_db)`` closure for
    :meth:`repro.mapping.pareto.BlockParetoResult.from_matches`.

    The stimulus and the reference kernel's output rows are computed
    once, here, and shared by every match of the block, so measuring a
    whole candidate list costs one reference run plus one
    generated-kernel run per match.  ``measured_accuracy`` is the max
    absolute error — directly comparable to the element's
    characterized ``accuracy`` bound.
    """
    vectors = _checked_stimulus(block, stimulus)
    ref = _reference_rows(block, vectors)

    def measure(match: BlockMatch) -> tuple[float, float]:
        measurement = _grade(block, match, vectors, ref)
        return measurement.max_error, measurement.snr_db

    return measure
