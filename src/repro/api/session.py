"""The session facade: one typed entry point for the whole methodology.

``MappingSession`` owns every piece of cross-cutting state the mapping
flow reads — cache tiers, platform registry, request defaults —
behind an immutable :class:`~repro.api.SessionConfig`.  All frontends
share it: library code calls the methods directly, the CLI
(``python -m repro``) builds one per invocation, and the HTTP service
holds exactly one for its process lifetime.  Two sessions with
different cache directories coexist in one process with fully isolated
statistics, because each owns its
:class:`~repro.mapping.cache.CacheTiers`.

>>> from repro.api import MappingSession, SessionConfig
>>> session = MappingSession(SessionConfig())
>>> session.config.platform
'SA-1110'
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from repro.api.catalog import ResourceCatalog
from repro.api.config import SessionConfig
from repro.api.types import MapRequest, MapResult, ParetoResult, VerifyResult
from repro.api.types import checked_accuracy_budget, checked_tolerance
from repro.errors import MappingError
from repro.frontend.extract import TargetBlock
from repro.library.catalog import Library
from repro.mapping.batch import BatchItem, BatchReport, run_batch
from repro.mapping.cache import CacheTiers, clear_shared_caches, shared_cache_stats
from repro.mapping.decompose import DecomposeResult
from repro.mapping.flow import (
    MethodologyFlow,
    SweepEntry,
    SweepReport,
    _mapping_ladder,
)
from repro.mapping.pareto import BlockParetoResult
from repro.platform.badge4 import Badge4
from repro.platform.registry import duplicate_labels
from repro.symalg.polynomial import Polynomial

if TYPE_CHECKING:
    from repro.codegen.verify import BlockMeasurement

__all__ = ["MappingSession"]


class MappingSession:
    """A scoped instance of the paper's characterize→identify→map flow.

    Parameters
    ----------
    config:
        The session's :class:`~repro.api.SessionConfig`.  ``None``
        resolves from the environment (:meth:`SessionConfig.from_env`),
        so a bare ``MappingSession()`` honors ``REPRO_CACHE_DIR`` /
        ``REPRO_NO_CACHE``.
    blocks:
        Optional pre-extracted target blocks for the catalog (tests
        and embedders inject cheap blocks).

    The session builds and owns one
    :class:`~repro.mapping.cache.CacheTiers` from its config; that
    private ownership is what isolates two sessions in one process.

    Resource arguments throughout accept *names or live objects*: a
    block is a catalog name or a ``TargetBlock``; a library is a tag
    tuple, a ``"+"``-joined combo string, or a ``Library``; a platform
    is a registry key or a live platform.  Unknown names raise
    :class:`~repro.errors.ServiceError` (the HTTP status is attached
    for transports).
    """

    def __init__(
        self,
        config: "SessionConfig | None" = None,
        *,
        blocks: "Mapping[str, TargetBlock] | None" = None,
    ):
        self.config = config if config is not None else SessionConfig.from_env()
        self.tiers = CacheTiers(cache_dir=self.config.effective_cache_dir)
        self.catalog = ResourceCatalog(
            blocks=blocks,
            registry=self.config.registry,
            workloads=self.config.workloads,
            default_workload=self.config.workload,
        )

    # -- resolution -------------------------------------------------------
    def _resolve_workload(self, workload) -> str:
        key = workload if workload is not None else self.config.workload
        self.catalog.workload(key)  # unknown keys fail fast (404)
        return key

    def _resolve_block(self, block, workload=None) -> tuple[str, TargetBlock]:
        if isinstance(block, TargetBlock):
            return block.name, block
        return block, self.catalog.block(block, workload)

    def _resolve_library(self, library) -> tuple[tuple[str, ...], Library]:
        if library is None:
            library = self.config.library
        if isinstance(library, Library):
            return (library.name,), library
        if isinstance(library, str):
            tags = tuple(t for t in library.replace(",", "+").split("+") if t)
        else:
            tags = tuple(library)
        return tags, self.catalog.library(tags)

    def _resolve_platform(self, platform) -> tuple[str, Badge4]:
        if platform is None:
            platform = self.config.platform
        if isinstance(platform, str):
            return platform, self.catalog.platform(platform)
        return self.config.registry.label_for(platform), platform

    def _knobs(self, tolerance, accuracy_budget) -> tuple[float, float]:
        """Per-call knobs, defaulted from the config and checked with
        the wire's rule: a bad value raises 400, as on ``/v1/*``."""
        if tolerance is None:
            tolerance = self.config.tolerance
        if accuracy_budget is None:
            accuracy_budget = self.config.accuracy_budget
        return checked_tolerance(tolerance), checked_accuracy_budget(accuracy_budget)

    def _request(self, block, library, platform, tolerance, accuracy_budget, workload):
        """Resolve one block-mapping request.

        Returns ``(request, item)``: the typed request and the batch item
        it matches through.  The item's key names the cache line
        :meth:`map`, :meth:`pareto` and :meth:`verify` share.
        """
        tolerance, accuracy_budget = self._knobs(tolerance, accuracy_budget)
        workload_key = self._resolve_workload(workload)
        block_name, block_obj = self._resolve_block(block, workload_key)
        tags, library_obj = self._resolve_library(library)
        label, platform_obj = self._resolve_platform(platform)
        request = MapRequest(
            block=block_name,
            library=tags,
            platform=label,
            tolerance=tolerance,
            accuracy_budget=accuracy_budget,
            workload=workload_key,
        )
        item = BatchItem.for_block(
            block_obj,
            library_obj,
            platform_obj,
            tolerance=tolerance,
            accuracy_budget=accuracy_budget,
        )
        return request, item

    def _stimulus(self, block: TargetBlock, workload: str):
        """The stimulus this session's workload registry declares for
        ``block`` (see :func:`repro.codegen.verify.stimulus_for_block`)."""
        from repro.codegen.verify import stimulus_for_block

        return stimulus_for_block(block, workload, self.config.workloads)

    # -- the methodology --------------------------------------------------
    def map(
        self,
        block,
        library=None,
        platform=None,
        *,
        tolerance: "float | None" = None,
        accuracy_budget: "float | None" = None,
        workload: "str | None" = None,
    ) -> MapResult:
        """Scalar block mapping: the cheapest adequate complex element.

        The paper's one-step block match against session-owned
        tiers, returning a typed
        :class:`~repro.api.MapResult` whose ``to_json()`` is the
        service's ``/v1/map`` wire format.  ``workload`` selects the
        registry entry the block name resolves in (default: the
        session's, normally ``"mp3"``).
        """
        request, item = self._request(
            block, library, platform, tolerance, accuracy_budget, workload
        )
        winner, matches = self.batch([item]).results[0]
        return MapResult(
            request=request,
            platform=item.platform,
            winner=winner,
            matches=tuple(matches),
        )

    def pareto(
        self,
        block,
        library=None,
        platform=None,
        *,
        tolerance: "float | None" = None,
        accuracy_budget: "float | None" = None,
        workload: "str | None" = None,
        measure: bool = False,
    ) -> ParetoResult:
        """Multi-objective mapping: the (cycles, energy, accuracy) front.

        Shares the cached match list with :meth:`map` (same key, same
        value); energy is scored fresh per call — the derived-front
        contract — so fronts can never be served stale across
        energy-model changes.

        ``measure=True`` runs every candidate's generated kernel on
        the workload's deterministic stimulus and attaches
        ``measured_accuracy``/``snr_db`` to each front point (see
        :mod:`repro.codegen.verify`).  Measurement is derived like
        energy — never cached, never part of the cache key — and the
        default (unmeasured) wire bytes are unchanged.
        """
        request, item = self._request(
            block, library, platform, tolerance, accuracy_budget, workload
        )
        _winner, matches = self.batch([item]).results[0]
        block_obj = item.payload
        measure_fn = None
        if measure:
            from repro.codegen.verify import match_measurer

            stimulus = self._stimulus(block_obj, request.workload)
            measure_fn = match_measurer(block_obj, stimulus=stimulus)
        result = BlockParetoResult.from_matches(
            block_obj.name, item.platform, matches, measure=measure_fn
        )
        return ParetoResult(request=request, result=result)

    def verify(
        self,
        block,
        library=None,
        platform=None,
        *,
        tolerance: "float | None" = None,
        accuracy_budget: "float | None" = None,
        workload: "str | None" = None,
        stimulus=None,
    ) -> VerifyResult:
        """Measure the scalar winner's generated kernel (the accuracy loop).

        Maps the block exactly like :meth:`map` (same cache lines),
        generates fixed-point code for the winning element
        (:mod:`repro.codegen`), runs it against the exact float64
        reference on the workload's deterministic stimulus, and reports
        RMS / max error / SNR classified into the ISO 11172-4
        compliance bands.  ``stimulus`` overrides the input vectors.
        Returns a typed :class:`~repro.api.VerifyResult` whose
        ``to_json()`` is the service's ``/v1/verify`` wire format.
        """
        request, item = self._request(
            block, library, platform, tolerance, accuracy_budget, workload
        )
        measurement = self.measure_winner(item, request.workload, stimulus=stimulus)
        return VerifyResult(
            request=request, platform=item.platform, measurement=measurement
        )

    def measure_winner(
        self, item: BatchItem, workload: str, *, stimulus=None
    ) -> "BlockMeasurement | None":
        """Match a block item through :meth:`batch` and measure its
        winner's generated kernel; ``None`` when no element matches.

        The body of :meth:`verify`, for a caller that already holds the
        request's item (the service keys its flight on it).  The
        stimulus defaults to the one ``workload`` declares for the block
        in this session's workload registry.
        """
        winner, _matches = self.batch([item]).results[0]
        if winner is None:
            return None
        from repro.codegen.verify import measure_match

        block = item.payload
        vectors = (
            tuple(stimulus) if stimulus is not None else self._stimulus(block, workload)
        )
        return measure_match(block, winner, stimulus=vectors)

    def decompose(
        self,
        target: Polynomial,
        library=None,
        platform=None,
        *,
        tolerance: float = 1e-9,
        accuracy_budget: float = float("inf"),
        max_depth: int = 3,
        max_nodes: int = 500,
        use_hints: bool = True,
        use_bounding: bool = True,
    ) -> DecomposeResult:
        """The scalar Decompose search (Table 2), session-cached.

        Knob defaults mirror :func:`repro.mapping.decompose.decompose`
        exactly, so session calls and ``BatchItem.for_target`` batch
        submissions share cache lines.
        """
        tolerance, accuracy_budget = self._knobs(tolerance, accuracy_budget)
        _tags, library_obj = self._resolve_library(library)
        _label, platform_obj = self._resolve_platform(platform)
        item = BatchItem.for_target(
            target,
            library_obj,
            platform_obj,
            tolerance=tolerance,
            accuracy_budget=accuracy_budget,
            max_depth=max_depth,
            max_nodes=max_nodes,
            use_hints=use_hints,
            use_bounding=use_bounding,
        )
        return self.batch([item]).results[0]

    def batch(self, items: Iterable[BatchItem]) -> BatchReport:
        """Resolve a batch of work items against this session's tiers,
        computing the cold ones in-process."""
        return run_batch(items, tiers=self.tiers)

    def sweep(
        self,
        platforms: "Sequence[str | Badge4] | None" = None,
        libraries=None,
        blocks=None,
        *,
        tolerance: "float | None" = None,
        accuracy_budget: "float | None" = None,
        workload: "str | None" = None,
    ) -> SweepReport:
        """Map every block against every library on every platform.

        The full (platform × library × block) cross-product goes
        through :meth:`batch` in one submission — deduplicated against
        the session's tiers, cold remainder computed in-process — and
        each cell comes back as a Pareto front over
        (cycles, energy, accuracy), with the scalar cycles winner as
        its projection.

        ``platforms`` accepts registry keys and/or live platforms
        (default: every registered processor, SA-1110 first);
        ``libraries`` accepts ``Library`` objects and/or combo strings
        (``"REF+LM+IH"``; default: the paper's ladder, LM+IH then
        LM+IH+IPP over REF); ``blocks`` accepts block names and/or a
        ``{name: TargetBlock}`` mapping, resolved inside ``workload``
        (default: the session's, whose whole block set is swept).
        Returns the canonical :class:`~repro.mapping.flow.SweepReport`
        (byte-stable ``to_json()``).
        """
        tolerance, accuracy_budget = self._knobs(tolerance, accuracy_budget)
        workload_key = self._resolve_workload(workload)
        # Unknown keys fail fast (404), as in map; live platforms pass.
        self.catalog.platform_keys([p for p in platforms or () if isinstance(p, str)])
        resolved = self.config.registry.resolve(platforms)
        if libraries is None:
            libs = [library for _name, library in _mapping_ladder()]
        else:
            libs = [
                lib if isinstance(lib, Library) else self.catalog.library_combo(lib)
                for lib in libraries
            ]
        duplicates = duplicate_labels(lib.name for lib in libs)
        if duplicates:
            # Reports index cells by library name too; a shared name
            # would silently shadow one library's results (same reason
            # the registry rejects duplicate platform labels).
            raise MappingError(
                f"sweep libraries must have unique names; duplicates: {duplicates}"
            )
        if blocks is None:
            block_map = self.catalog.blocks(workload_key)
        elif isinstance(blocks, Mapping):
            block_map = dict(blocks)
        else:
            block_map = {
                name: self.catalog.block(name, workload_key) for name in blocks
            }

        cells = [
            (label, platform, library, name, block)
            for label, platform in resolved
            for library in libs
            for name, block in block_map.items()
        ]
        batch = self.batch(
            BatchItem.for_block(
                block,
                library,
                platform,
                tolerance=tolerance,
                accuracy_budget=accuracy_budget,
            )
            for _label, platform, library, _name, block in cells
        )
        entries = [
            SweepEntry(
                platform=label,
                library=library.name,
                block=name,
                result=BlockParetoResult.from_matches(name, platform, matches),
            )
            for (label, platform, library, name, _block), (_winner, matches) in zip(
                cells, batch.results
            )
        ]
        return SweepReport(
            platforms=tuple(label for label, _platform in resolved),
            libraries=tuple(lib.name for lib in libs),
            blocks=tuple(block_map),
            entries=entries,
            stats=batch.stats,
            workload=workload_key,
        )

    def flow(self) -> MethodologyFlow:
        """A :class:`~repro.mapping.flow.MethodologyFlow` bound to this
        session: its passes resolve against the session's tiers and
        map the session catalog's blocks."""
        return MethodologyFlow(blocks=self.catalog.blocks(), tiers=self.tiers)

    def cache_counters(self) -> dict:
        """Flat, summable cache counters for cross-worker aggregation.

        The fleet's ``GET /metrics`` endpoint merges one of these per
        worker by elementwise addition, so the dict carries only
        numbers: LRU size/hit/miss/eviction counts per tier and the
        disk tier's hit/miss/write counts (``enabled`` is 0/1 — the
        merged value counts workers with persistence on).  The full,
        non-summable shape (paths, hit rates, breaker state) stays on
        :meth:`stats`.
        """
        stats = self.tiers.stats()
        counters = {}
        for tier in ("decompose", "map_block"):
            counters[tier] = {
                field: stats[tier][field]
                for field in ("size", "hits", "misses", "evictions")
            }
        disk = stats["disk"]
        counters["disk"] = {
            "enabled": 1 if disk.get("enabled") else 0,
            "hits": disk.get("hits", 0),
            "misses": disk.get("misses", 0),
            "writes": disk.get("writes", 0),
        }
        return counters

    # -- observability / lifecycle ----------------------------------------
    def stats(self) -> dict:
        """This session's cache statistics, in the canonical shape.

        The tiers' ``{"decompose", "map_block", "disk"}`` plus a
        ``"shared"`` sub-dict for the process-wide pure-function cache
        (instantiations) every session shares.
        """
        stats = self.tiers.stats()
        stats["shared"] = shared_cache_stats()
        return stats

    def clear_caches(self) -> None:
        """Empty this session's tiers (memory + its disk store) and the
        process-wide memo caches; other sessions' tiers are never
        touched."""
        self.tiers.clear()
        clear_shared_caches()

    def platforms(self) -> list[str]:
        """Registry keys this session resolves platforms against."""
        return self.config.registry.names()

    def platforms_payload(self) -> dict:
        """The platform listing every surface serves, pre-serialization.

        The CLI's ``repro platforms --json`` and the service's
        ``/v1/platforms`` both render exactly this dict through
        :func:`~repro.api.types.canonical_json`, which is what makes
        their bytes comparable with ``==``.  Built from the session's
        registry, so a custom registry lists exactly the keys
        :meth:`map` resolves.
        """
        return {
            "default": self.config.platform,
            "platforms": [
                {
                    "key": entry.key,
                    "processor": entry.spec.name,
                    "clock_hz": entry.spec.clock_hz,
                    "has_fpu": entry.spec.has_fpu,
                }
                for entry in self.config.registry
            ],
        }

    def workloads(self) -> list[str]:
        """Workload keys this session resolves block names against."""
        return list(self.catalog.workload_keys())

    def workloads_payload(self) -> dict:
        """The workload listing every surface serves, pre-serialization.

        The CLI's ``repro workloads --json`` and the service's
        ``/v1/workloads`` both render exactly this dict through
        :func:`~repro.api.types.canonical_json`, which is what makes
        their bytes comparable with ``==``.  Uses the declared block
        names (no extraction), so listing stays cheap.
        """
        return {
            "default": self.config.workload,
            "workloads": [
                {
                    "key": key,
                    "title": self.catalog.workload(key).workload.title,
                    "description": self.catalog.workload(key).workload.description,
                    "blocks": list(self.catalog.workload(key).block_names()),
                }
                for key in self.catalog.workload_keys()
            ],
        }

    def blocks(self, workload: "str | None" = None) -> "dict[str, TargetBlock]":
        """One workload's named target blocks (extracted on first use)."""
        return self.catalog.blocks(workload)

    def __repr__(self) -> str:
        disk = self.config.effective_cache_dir
        return f"MappingSession(platform={self.config.platform!r}, disk={disk!r})"
