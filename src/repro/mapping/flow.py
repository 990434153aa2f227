"""The full three-step methodology applied to the MP3 decoder (Section 4).

``MethodologyFlow`` runs exactly the paper's loop:

1. **Library characterization** — price every element of the active
   libraries on the Badge4 model.
2. **Target code identification** — decode a stream with the current
   decoder, profile it, pick the critical functions, and formulate
   their polynomials (the complex stages via the frontend on
   reference-style kernel sources).
3. **Library mapping** — match each critical block against the active
   libraries (the block match for the complex elements); rebuild the
   decoder with the chosen elements; verify compliance; re-profile.

Calling :meth:`run_passes` with the paper's library ladder (LM+IH, then
LM+IH+IPP) regenerates Tables 4, 5 and 6 mechanically.

A flow can be session-bound: :meth:`repro.api.MappingSession.flow`
builds one wired to the session's cache tiers, registry and block
catalog, so every pass resolves against session-owned state.
A bare flow owns private memory-only tiers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import MappingError
from repro.frontend.extract import TargetBlock
from repro.library.builtin import (
    inhouse_library,
    ipp_library,
    linux_math_library,
    reference_library,
)
from repro.library.catalog import Library
from repro.mapping.batch import BatchItem, BatchStats, run_batch
from repro.mapping.cache import CacheTiers
from repro.mapping.pareto import BlockParetoResult, ParetoPoint
from repro.mp3.compliance import ComplianceReport, check_compliance
from repro.mp3.decoder import DecoderConfig, Mp3Decoder
from repro.mp3.synth_stream import EncodedStream
from repro.platform.badge4 import Badge4
from repro.platform.profiler import ProfileReport
from repro.platform.registry import DEFAULT_REGISTRY, duplicate_labels
from repro.workload import DEFAULT_WORKLOAD, DEFAULT_WORKLOAD_REGISTRY

__all__ = [
    "MethodologyFlow",
    "MappingPass",
    "FlowReport",
    "SweepEntry",
    "SweepReport",
    "methodology_blocks",
]


def methodology_blocks() -> dict[str, TargetBlock]:
    """Fresh extractions of the methodology's complex target blocks.

    The public handle on the Table 4/5 work set — the IMDCT loop nest
    and the polyphase matrixing core, i.e. the default (``mp3``)
    workload of :mod:`repro.workload`, resolved through the registry.
    Each call re-runs the frontend, so callers own their copies.
    """
    return DEFAULT_WORKLOAD_REGISTRY.blocks(DEFAULT_WORKLOAD)


#: element name -> (DecoderConfig field, variant value)
_ELEMENT_TO_STAGE = {
    "float_IMDCT": ("imdct", "float"),
    "fixed_IMDCT": ("imdct", "fixed"),
    "IppsMDCTInv_MP3_32s": ("imdct", "ipp"),
    "float_SubBandSyn": ("synthesis", "float"),
    "fixed_SubBandSyn": ("synthesis", "fixed_fast"),
    "ippsSynthPQMF_MP3_32s16s": ("synthesis", "ipp"),
}


@dataclass
class MappingPass:
    """One mapping pass: libraries used, choices made, results."""

    name: str
    libraries: tuple[str, ...]
    config: DecoderConfig
    chosen_elements: dict[str, str]
    profile: ProfileReport
    compliance: ComplianceReport
    seconds: float
    energy_j: float


@dataclass
class FlowReport:
    """Everything the flow produced, in pass order."""

    passes: list[MappingPass] = field(default_factory=list)

    def pass_named(self, name: str) -> MappingPass:
        """The pass called ``name`` (raises ``KeyError`` if absent)."""
        for p in self.passes:
            if p.name == name:
                return p
        raise KeyError(name)

    def speedup_ladder(self) -> list[tuple[str, float, float]]:
        """(name, perf factor, energy factor) versus the first pass."""
        base = self.passes[0]
        return [
            (p.name, base.seconds / p.seconds, base.energy_j / p.energy_j)
            for p in self.passes
        ]


@dataclass(frozen=True)
class SweepEntry:
    """One (platform × library × block) cell of a sweep."""

    platform: str  # registry key (or the processor name)
    library: str
    block: str
    result: BlockParetoResult

    @property
    def winner_name(self) -> str | None:
        """The cycles-projection winner's element name (scalar API)."""
        winner = self.result.cycles_winner
        return winner.element.name if winner is not None else None


@dataclass
class SweepReport:
    """Everything a multi-platform sweep produced.

    Entries are ordered (platform, library, block) — the submission
    order — and every front inside obeys the canonical Pareto ordering,
    so two sweeps over the same inputs are comparable byte-for-byte via
    :meth:`to_json` regardless of cache temperature.
    """

    platforms: tuple[str, ...]
    libraries: tuple[str, ...]
    blocks: tuple[str, ...]
    entries: list[SweepEntry]
    stats: BatchStats
    #: The workload-registry key the swept blocks came from (the label
    #: only — explicit ``blocks`` overrides still sweep whatever was
    #: passed, under the flow's workload label).
    workload: str = DEFAULT_WORKLOAD

    def entry(self, platform: str, block: str, library: str) -> SweepEntry:
        """The cell for one (platform, block, library) coordinate."""
        for e in self.entries:
            if (e.platform, e.block, e.library) == (platform, block, library):
                return e
        raise KeyError((platform, block, library))

    def front(
        self, platform: str, block: str, library: str
    ) -> tuple[ParetoPoint, ...]:
        """The Pareto front at one coordinate."""
        return self.entry(platform, block, library).result.front

    def winners(self, platform: str) -> dict[tuple[str, str], str | None]:
        """Cycles-projection winners on one platform, keyed (block, library)."""
        if platform not in self.platforms:
            raise KeyError(
                f"platform {platform!r} not in this sweep; "
                f"swept: {list(self.platforms)}"
            )
        return {
            (e.block, e.library): e.winner_name
            for e in self.entries
            if e.platform == platform
        }

    def to_json(self) -> str:
        """Canonical JSON rendering (the byte-parity comparison form).

        Sorted keys, no whitespace, ``repr``-exact floats; deliberately
        free of timings and cache statistics so that cold and warm runs
        of the same sweep serialize identically.
        """
        payload = {
            "platforms": list(self.platforms),
            "libraries": list(self.libraries),
            "blocks": list(self.blocks),
            "workload": self.workload,
            "entries": [
                {
                    "platform": e.platform,
                    "library": e.library,
                    "block": e.block,
                    "processor": e.result.platform_name,
                    "winner": e.winner_name,
                    "front": [
                        {
                            "element": p.element_name,
                            "element_library": p.library,
                            "cycles": p.objectives.cycles,
                            "energy_j": p.objectives.energy_j,
                            "accuracy": p.objectives.accuracy,
                        }
                        for p in e.result.front
                    ],
                }
                for e in self.entries
            ],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def format_report(self) -> str:
        """Per-platform mapping report: every cell's front, readably."""
        lines: list[str] = []
        for platform in self.platforms:
            lines.append(f"== {platform} ==")
            for e in self.entries:
                if e.platform != platform:
                    continue
                lines.append(
                    f"  {e.block} vs {e.library}: "
                    f"winner={e.winner_name or '<unmapped>'}"
                )
                for p in e.result.front:
                    o = p.objectives
                    lines.append(
                        f"    - {p.element_name:<28} "
                        f"{o.cycles:>12,.0f} cyc  "
                        f"{o.energy_j:>10.3e} J  "
                        f"err {o.accuracy:.1e}"
                    )
        return "\n".join(lines)


def _mapping_ladder() -> list[tuple[str, Library]]:
    """The paper's mapping passes: (pass name, library) rungs.

    The single construction point for the evaluation ladder —
    ``run_passes`` prepends the Original (REF-only) rung, the sweep
    takes the libraries as its defaults — so the two flows cannot
    drift apart.
    """
    base = [reference_library(), linux_math_library(), inhouse_library()]
    return [
        ("LM + IH mapping", Library.union(*base)),
        ("LM + IH + IPP mapping", Library.union(*base, ipp_library())),
    ]


def _sweep_library_ladder() -> list[Library]:
    """The default sweep libraries: the paper's two mapping passes."""
    return [library for _name, library in _mapping_ladder()]


class MethodologyFlow:
    """Drives characterize -> identify -> map on the MP3 decoder.

    Each pass's critical blocks (and each sweep's cells) are submitted
    to :func:`~repro.mapping.batch.run_batch` together, deduplicated
    against both cache tiers, and the cold remainder mapped
    in-process.

    ``blocks`` overrides the extracted complex target blocks; sessions
    inject their shared catalog so frontend extraction happens once
    per process, not once per flow.  ``tiers`` binds the flow to an explicit
    :class:`~repro.mapping.cache.CacheTiers` (a session's); ``None``
    gives the flow its own memory-only tiers.  ``registry`` is the
    processor catalog :meth:`sweep` resolves platform keys against
    (sessions pass their configured one; the default registry
    otherwise); ``workloads`` the workload catalog block sets resolve
    against, and ``workload`` the key naming this flow's default block
    set (``"mp3"`` unless told otherwise — ``blocks`` overrides the
    block *objects* while keeping the label).
    """

    def __init__(
        self,
        platform: Badge4 | None = None,
        critical_threshold_percent: float = 5.0,
        blocks: "Mapping[str, TargetBlock] | None" = None,
        tiers: "CacheTiers | None" = None,
        registry=None,
        workload: str | None = None,
        workloads=None,
    ):
        self.platform = platform or Badge4()
        self.threshold = critical_threshold_percent
        self.tiers = tiers if tiers is not None else CacheTiers()
        self.registry = registry if registry is not None else DEFAULT_REGISTRY
        self.workloads = (
            workloads if workloads is not None else DEFAULT_WORKLOAD_REGISTRY
        )
        self.workload = workload if workload is not None else DEFAULT_WORKLOAD
        if blocks is not None:
            self._blocks = dict(blocks)
        else:
            self._blocks = self.workloads.blocks(self.workload)

    # -- step 2: profiling ------------------------------------------------
    def profile(
        self, config: DecoderConfig, stream: EncodedStream
    ) -> tuple[ProfileReport, np.ndarray]:
        """Decode ``stream`` under ``config`` and profile it.

        Returns the per-function profile report and the decoded PCM
        (kept for compliance checking against the reference pass).
        """
        decoder = Mp3Decoder(config, self.platform.profiler())
        pcm = decoder.decode(stream)
        return decoder.profiler.report(), pcm

    def critical_functions(self, report: ProfileReport) -> list[str]:
        """Functions above the criticality threshold, hottest first."""
        return [row.name for row in report.rows if row.percent >= self.threshold]

    # -- step 3: mapping ---------------------------------------------------
    def map_decoder(
        self,
        library: Library,
        base: DecoderConfig,
        critical: list[str],
        pass_name: str,
    ) -> tuple[DecoderConfig, dict[str, str]]:
        """Choose elements for the critical complex stages.

        Scalar stages (requantization, stereo) follow the best grade the
        active libraries provide: IH libraries carry the fixed-point
        table/kernel replacements for the libm calls.
        """
        chosen: dict[str, str] = {}
        fields = {
            "dequantize": base.dequantize,
            "stereo": base.stereo,
            "antialias": base.antialias,
            "imdct": base.imdct,
            "synthesis": base.synthesis,
        }

        has_ih = any(e.library == "IH" for e in library)
        if has_ih:
            # pow/exp/log family mapped onto fixed kernels: the front-end
            # stages leave double-precision libm behind.
            for stage in ("dequantize", "stereo", "antialias"):
                fields[stage] = "fixed"
            chosen["III_dequantize_sample"] = "fx_pow43_table(IH)"
            chosen["III_stereo"] = "fx_mac(IH)"
            chosen["III_antialias"] = "fx_mac(IH)"

        # Submit every critical block through the batch engine at once:
        # the engine dedups against the cache tiers before computing.
        blocks = [
            (name, block)
            for name, block in self._blocks.items()
            if name in critical or f"{name} " in critical
        ]
        batch = run_batch(
            [
                BatchItem.for_block(block, library, self.platform, tolerance=1e-6)
                for _name, block in blocks
            ],
            tiers=self.tiers,
        )
        for (name, block), (winner, _all) in zip(blocks, batch.results):
            if winner is None:
                continue
            element_name = winner.element.name
            if element_name not in _ELEMENT_TO_STAGE:
                raise MappingError(
                    f"matched element {element_name} has no stage mapping"
                )
            stage_field, variant = _ELEMENT_TO_STAGE[element_name]
            # Never regress: only adopt a cheaper element than current.
            current_variant = fields[stage_field]
            new_cycles = self._variant_cycles(stage_field, variant)
            if new_cycles < self._variant_cycles(stage_field, current_variant):
                fields[stage_field] = variant
                chosen[name] = element_name
        config = DecoderConfig(pass_name, huffman_grade=base.huffman_grade, **fields)
        return config, chosen

    # -- multi-platform sweep ---------------------------------------------
    def sweep(
        self,
        platforms: "Sequence[str | Badge4] | None" = None,
        libraries: "Iterable[Library] | None" = None,
        blocks: "Mapping[str, TargetBlock] | None" = None,
        *,
        workload: "str | None" = None,
        tolerance: float = 1e-6,
        accuracy_budget: float = float("inf"),
    ) -> SweepReport:
        """Map every block against every library on every platform.

        The full (block × library × platform) cross-product goes
        through the batch engine in one submission — deduplicated
        against both cache tiers, cold remainder computed in-process —
        and each cell comes back as a Pareto front over
        (cycles, energy, accuracy), with the scalar cycles winner as
        its projection.

        ``platforms`` accepts registry keys (strings) and/or live
        platform objects; the default is every registered processor
        (SA-1110 first).  ``libraries`` defaults to the paper's ladder
        (LM+IH, then LM+IH+IPP, both over REF); ``workload`` selects a
        workload-registry block set (default: the flow's own, normally
        ``mp3``), and an explicit ``blocks`` mapping overrides the
        block objects while keeping the workload label.  The cache
        tiers and processor registry are the flow's.
        """
        resolved = self.registry.resolve(platforms)
        libs = list(libraries) if libraries is not None else _sweep_library_ladder()
        duplicates = duplicate_labels(lib.name for lib in libs)
        if duplicates:
            # Reports index cells by library name too; a shared name
            # would silently shadow one library's results (same reason
            # the registry rejects duplicate platform labels).
            raise MappingError(
                f"sweep libraries must have unique names; duplicates: {duplicates}"
            )
        workload_key = workload if workload is not None else self.workload
        if workload is not None:
            self.workloads.get(workload_key)  # unknown keys fail fast
        if blocks is not None:
            block_map = dict(blocks)
        elif workload_key == self.workload:
            block_map = dict(self._blocks)
        else:
            block_map = self.workloads.blocks(workload_key)

        coords: list[tuple[str, Badge4, str, str]] = []
        items: list[BatchItem] = []
        for label, platform in resolved:
            for library in libs:
                for block_name, block in block_map.items():
                    coords.append((label, platform, library.name, block_name))
                    items.append(
                        BatchItem.for_block(
                            block,
                            library,
                            platform,
                            tolerance=tolerance,
                            accuracy_budget=accuracy_budget,
                        )
                    )

        batch = run_batch(items, tiers=self.tiers)

        entries: list[SweepEntry] = []
        for (label, platform, lib_name, block_name), (_winner, matches) in zip(
            coords, batch.results
        ):
            entries.append(
                SweepEntry(
                    platform=label,
                    library=lib_name,
                    block=block_name,
                    result=BlockParetoResult.from_matches(
                        block_name, platform, matches
                    ),
                )
            )
        return SweepReport(
            platforms=tuple(label for label, _ in resolved),
            libraries=tuple(lib.name for lib in libs),
            blocks=tuple(block_map),
            entries=entries,
            stats=batch.stats,
            workload=workload_key,
        )

    def _variant_cycles(self, stage_field: str, variant: str) -> float:
        from repro.library.builtin import _imdct_cost, _synthesis_cost

        if stage_field == "imdct":
            return self.platform.cost_model.cycles(_imdct_cost(variant))
        if stage_field == "synthesis":
            return self.platform.cost_model.cycles(_synthesis_cost(variant))
        return float("inf")

    # -- the whole loop ----------------------------------------------------
    def run_passes(
        self, stream: EncodedStream, required_compliance: str = "limited"
    ) -> FlowReport:
        """The paper's evaluation: Original -> LM+IH -> LM+IH+IPP."""
        report = FlowReport()
        reference_pcm: np.ndarray | None = None

        ladder = [("Original", Library.union(reference_library()))]
        ladder += _mapping_ladder()

        config = DecoderConfig("Original")
        for pass_name, library in ladder:
            if pass_name != "Original":
                base_profile, _ = self.profile(config, stream)
                critical = self.critical_functions(base_profile)
                config, chosen = self.map_decoder(
                    library, DecoderConfig("Original"), critical, pass_name
                )
            else:
                chosen = {}
            profile, pcm = self.profile(config, stream)
            if reference_pcm is None:
                reference_pcm = pcm
            compliance = check_compliance(reference_pcm, pcm)
            compliance.require(required_compliance)
            report.passes.append(
                MappingPass(
                    name=pass_name,
                    libraries=tuple(sorted({e.library for e in library})),
                    config=config,
                    chosen_elements=chosen,
                    profile=profile,
                    compliance=compliance,
                    seconds=profile.total_seconds,
                    energy_j=profile.total_energy_j,
                )
            )
        return report
