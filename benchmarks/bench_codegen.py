"""Codegen benchmark: the NumPy plan vs the Fixed interpreter, plus
the measured-vs-declared accuracy table the verification loop produces
for every built-in workload block.

Two questions, mirroring the ``repro.codegen`` subsystem's two claims:

* **throughput** — how much faster does the planned kernel run the
  stimulus than the ``Fixed``-object interpreter?  It is timed the way
  :func:`~repro.codegen.verify.measure_match` runs it: one
  ``_run_vectors`` call per pass over the whole stimulus.  (The parity
  suite pins plan and interpreter bit-identical, so the speedup is
  free.)  ``one_vector_run_us`` is the cost of the one-vector view,
  ``CompiledKernel.run(env)``;
* **accuracy** — for each workload block's winning element, what error
  does the generated kernel actually measure on workload stimulus,
  against the element's declared polynomial-level bound?

Results land in ``BENCH_codegen.json`` at the repo root (refreshed by
the nightly benchmark job; ``check_regression.py`` gates the compiled
throughput).
"""

import json
import time
from pathlib import Path

from repro.api import MappingSession, SessionConfig
from repro.codegen.fixedpt import element_formats, interpret
from repro.codegen.lower import lower_match
from repro.codegen.pysource import compile_kernel
from repro.codegen.verify import _run_vectors, measure_match, stimulus_for_block
from repro.library.builtin import full_library
from repro.platform import Badge4
from repro.workload import DEFAULT_WORKLOAD_REGISTRY, get_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_codegen.json"

#: Enough passes over the stimulus that per-call timer noise averages
#: out; the IMDCT kernel runs its 32 vectors in about a millisecond.
PASSES = 40


def _throughput(block, match):
    kernel = lower_match(block, match)
    in_fmt, out_fmt = element_formats(match.element)
    compiled = compile_kernel(kernel, in_fmt, out_fmt)
    stimulus = stimulus_for_block(block)
    envs = [dict(zip(kernel.inputs, vector)) for vector in stimulus]

    start = time.perf_counter()
    for _ in range(PASSES):
        _run_vectors(compiled, kernel.inputs, kernel.output_names, stimulus)
    compiled_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(PASSES):
        for env in envs:
            compiled.run(env)
    one_vector_s = time.perf_counter() - start

    start = time.perf_counter()
    for _ in range(PASSES):
        for env in envs:
            interpret(kernel, in_fmt, out_fmt, env)
    interp_s = time.perf_counter() - start

    n_calls = PASSES * len(envs)
    return {
        "kernel": kernel.name,
        "instructions": len(kernel.instructions),
        "vectors": len(envs),
        "passes": PASSES,
        "compiled_vectors_per_second": n_calls / compiled_s,
        "one_vector_run_us": one_vector_s / n_calls * 1e6,
        "interpreter_vectors_per_second": n_calls / interp_s,
        "compiled_speedup_x": interp_s / compiled_s,
    }


def test_codegen_benchmark(report, bench_output):
    library = full_library()
    platform = Badge4()
    session = MappingSession(SessionConfig())

    def _winner(block):
        return session.map(block, library, platform).winner

    accuracy_rows = []
    for key in DEFAULT_WORKLOAD_REGISTRY.names():
        entry = get_workload(key)
        for name, block in entry.blocks().items():
            winner = _winner(block)
            if winner is None:
                continue
            m = measure_match(
                block, winner, stimulus=entry.workload.stimulus(name))
            accuracy_rows.append({
                "workload": key,
                "block": name,
                "element": m.element,
                "formats": f"{m.input_format}->{m.output_format}",
                "declared_accuracy": m.declared_accuracy,
                "measured_max_error": m.max_error,
                "measured_rms_error": m.rms_error,
                "snr_db": m.snr_db,
                "compliance": m.compliance,
            })

    imdct = get_workload("mp3").blocks()["inv_mdctL"]
    throughput = _throughput(imdct, _winner(imdct))

    payload = {
        "bench": "codegen",
        "platform": "SA-1110",
        "library": "REF+LM+IH+IPP (full)",
        "throughput": throughput,
        "accuracy": accuracy_rows,
    }
    output = bench_output(OUTPUT)
    output.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [f"\nCodegen (NumPy plan vs interpreter) -> {output}",
             f"  {throughput['kernel']}: "
             f"compiled {throughput['compiled_vectors_per_second']:.0f}/s, "
             f"interpreter "
             f"{throughput['interpreter_vectors_per_second']:.0f}/s "
             f"({throughput['compiled_speedup_x']:.1f}x); one-vector run "
             f"{throughput['one_vector_run_us']:.0f} us"]
    for row in accuracy_rows:
        lines.append(
            f"  {row['workload']:<10} {row['block']:<18} "
            f"declared {row['declared_accuracy']:.1e}  "
            f"measured {row['measured_max_error']:.3e}  "
            f"snr {row['snr_db']:6.1f} dB  {row['compliance']}")
    report("\n".join(lines))

    assert throughput["compiled_speedup_x"] > 1.0, (
        "the planned kernel should outrun the Fixed-object interpreter")
