"""Generic conformance checks every registered workload must pass.

The idiom (one reusable checker class, instantiated per subject and
driven by a thin parametrized test file) follows PyBaMM's
``standard_model_tests``: the contract lives here, in one place, and
``test_conformance.py`` holds every entry of
:data:`repro.workload.DEFAULT_WORKLOAD_REGISTRY` to it.  Registering a
new workload automatically enrolls it — there is nothing
workload-specific in this module.

The contract, in check order:

1. metadata is well-formed (key/title/description, declared specs);
2. declared block names/shapes agree with actual frontend extraction;
3. extraction is deterministic (stable ``fingerprint_block`` digests);
4. every block maps on the default platform with the full library;
5. ``decompose`` terminates on each block's leading output;
6. Pareto fronts are mutually non-dominated;
7. a single-platform sweep's canonical JSON is byte-reproducible;
8. each block's generated kernel, run on the workload's own stimulus,
   stays within the mapped element's declared accuracy bound — widened
   by the output format's quantization-noise floor for fixed-point
   elements, whose polynomial-level labels sit below one LSB — unless
   the block is explicitly flagged in :data:`FLAGGED_BLOCKS`.
"""

from repro.api import MappingSession, SessionConfig
from repro.frontend.extract import TargetBlock
from repro.library.builtin import full_library
from repro.mapping import decompose, fingerprint_block
from repro.platform import Badge4
from repro.workload import WorkloadEntry

__all__ = ["FLAGGED_BLOCKS", "WorkloadConformance"]

#: ``(workload_key, block_name)`` pairs exempt from check 8, each with a
#: reason.  idct8x8 maps to an s16->s16 element: full-scale IDCT
#: stimulus drives intermediate sums past Q0.15's [-1, 1) range, so the
#: kernel saturates by design and measured error (~1.1) reflects the
#: format's dynamic range, not the mapping.
FLAGGED_BLOCKS = frozenset({
    ("jpeg_idct", "idct8x8"),
})

#: Check 8's allowance for fixed-point output formats, in output LSBs.
#: Declared accuracy labels characterize the *polynomial* error (often
#: below one LSB); the generated kernel adds rounding noise per
#: operation, so a handful of LSBs is the honest kernel-level floor.
FIXED_NOISE_LSBS = 8


class WorkloadConformance:
    """Runs the generic workload contract against one registry entry.

    Extraction and the library are built lazily and reused across
    checks, so a parametrized test file can call the checks one at a
    time without re-running the frontend per check.
    """

    def __init__(self, entry: WorkloadEntry):
        self.entry = entry
        self.workload = entry.workload
        self._blocks: "dict[str, TargetBlock] | None" = None
        self._library = None
        self._platform = None
        self._session = None

    # -- lazy shared state ----------------------------------------------
    @property
    def blocks(self) -> dict:
        if self._blocks is None:
            self._blocks = self.entry.blocks()
        return self._blocks

    @property
    def library(self):
        if self._library is None:
            self._library = full_library()
        return self._library

    @property
    def platform(self) -> Badge4:
        if self._platform is None:
            self._platform = Badge4()
        return self._platform

    @property
    def session(self) -> MappingSession:
        """One memory-only session, so the checks share cache lines."""
        if self._session is None:
            self._session = MappingSession(SessionConfig())
        return self._session

    def _map(self, block):
        result = self.session.map(block, self.library, self.platform)
        return result.winner, result.matches

    # -- 1: metadata ----------------------------------------------------
    def check_metadata(self) -> None:
        assert self.entry.key, "registry key must be non-empty"
        assert self.workload.title, f"{self.entry.key}: title must be set"
        assert self.workload.description, (
            f"{self.entry.key}: description must be set")
        specs = self.workload.block_specs()
        assert specs, f"{self.entry.key}: must declare at least one block"
        names = [spec.name for spec in specs]
        assert len(set(names)) == len(names), (
            f"{self.entry.key}: duplicate block names {names}")
        for spec in specs:
            assert spec.name, f"{self.entry.key}: unnamed block spec"
            assert spec.description, (
                f"{self.entry.key}/{spec.name}: description must be set")
            assert spec.n_outputs >= 1 and spec.n_inputs >= 1, (
                f"{self.entry.key}/{spec.name}: degenerate shape "
                f"({spec.n_outputs} out, {spec.n_inputs} in)")

    # -- 2: declarations vs extraction ----------------------------------
    def check_declarations_match_extraction(self) -> None:
        names = self.entry.block_names()
        assert tuple(self.blocks) == names, (
            f"{self.entry.key}: extracted keys {tuple(self.blocks)} != "
            f"declared names {names}")
        for spec in self.workload.block_specs():
            block = self.blocks[spec.name]
            assert isinstance(block, TargetBlock)
            assert block.name == spec.name
            assert len(block.outputs) == spec.n_outputs, (
                f"{self.entry.key}/{spec.name}: {len(block.outputs)} "
                f"outputs extracted, {spec.n_outputs} declared")
            assert len(block.input_variables) == spec.n_inputs, (
                f"{self.entry.key}/{spec.name}: "
                f"{len(block.input_variables)} inputs extracted, "
                f"{spec.n_inputs} declared")

    # -- 3: determinism -------------------------------------------------
    def check_extraction_is_deterministic(self) -> None:
        again = self.entry.blocks()
        assert tuple(again) == tuple(self.blocks)
        for name, block in self.blocks.items():
            assert fingerprint_block(again[name]) == fingerprint_block(block), (
                f"{self.entry.key}/{name}: extraction fingerprint drifted "
                f"between two runs")

    # -- 4: every block maps --------------------------------------------
    def check_every_block_maps(self) -> None:
        for name, block in self.blocks.items():
            winner, matches = self._map(block)
            assert winner is not None, (
                f"{self.entry.key}/{name}: no adequate element in the "
                f"full library on the default platform")
            assert winner in matches

    # -- 5: decompose terminates ----------------------------------------
    def check_decompose_terminates(self) -> None:
        # Termination (not coverage) is the contract: multi-output
        # blocks only map whole via the block match, and decompose's scalar
        # search legitimately rejects rows with no scalar covering.
        for name, block in self.blocks.items():
            first = block.outputs[next(iter(block.outputs))]
            result = decompose(first, self.library, self.platform)
            assert result is not None, (
                f"{self.entry.key}/{name}: decompose returned nothing")

    # -- 6: Pareto fronts -----------------------------------------------
    def check_fronts_mutually_non_dominated(self) -> None:
        for name, block in self.blocks.items():
            result = self.session.pareto(block, self.library, self.platform)
            assert result.front, f"{self.entry.key}/{name}: empty front"
            for p in result.front:
                for q in result.front:
                    assert p is q or not p.objectives.dominates(q.objectives), (
                        f"{self.entry.key}/{name}: {p.element_name} "
                        f"dominates {q.element_name} on its own front")

    # -- 7: sweep bytes -------------------------------------------------
    def check_sweep_json_is_byte_reproducible(self) -> None:
        def one_sweep() -> str:
            # A fresh memory-only session per sweep: both run the
            # block-match search cold, so a non-deterministic search
            # shows up as differing bytes.
            session = MappingSession(SessionConfig())
            report = session.sweep(platforms=["SA-1110"],
                                   libraries=[self.library],
                                   blocks=self.blocks,
                                   workload=self.entry.key)
            assert report.workload == self.entry.key
            return report.to_json()

        first, second = one_sweep(), one_sweep()
        assert first == second, (
            f"{self.entry.key}: sweep JSON not byte-reproducible")

    # -- 8: generated kernels meet declared accuracy --------------------
    def check_generated_kernels_meet_declared_accuracy(self) -> None:
        from repro.codegen.fixedpt import element_formats
        from repro.codegen.verify import measure_match

        for name, block in self.blocks.items():
            winner, _matches = self._map(block)
            assert winner is not None  # check 4 owns the mapping contract
            measurement = measure_match(
                block, winner, stimulus=self.workload.stimulus(name))
            if (self.entry.key, name) in FLAGGED_BLOCKS:
                continue
            bound = winner.element.accuracy
            _in_fmt, out_fmt = element_formats(winner.element)
            if out_fmt.is_fixed:
                bound = max(bound,
                            FIXED_NOISE_LSBS / out_fmt.qformat.scale)
            assert measurement.max_error <= bound, (
                f"{self.entry.key}/{name}: generated kernel errs "
                f"{measurement.max_error:.3e} on workload stimulus, above "
                f"element {winner.element.name!r}'s kernel-level bound "
                f"{bound:.3e} (declared {winner.element.accuracy:.3e}); "
                f"fix the mapping or flag the block in FLAGGED_BLOCKS")

    def run(self) -> None:
        """Every check, in contract order (for ad-hoc / REPL use)."""
        self.check_metadata()
        self.check_declarations_match_extraction()
        self.check_extraction_is_deterministic()
        self.check_every_block_maps()
        self.check_decompose_terminates()
        self.check_fronts_mutually_non_dominated()
        self.check_sweep_json_is_byte_reproducible()
        self.check_generated_kernels_meet_declared_accuracy()
