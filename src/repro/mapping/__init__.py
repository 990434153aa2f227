"""``repro.mapping`` — the paper's contribution (Section 3.3).

Branch-and-bound decomposition of target polynomials into complex
library elements via simplification modulo side relations, candidate
generation by symbolic manipulation, block matching for multi-output
elements, code rewriting, and the full three-step methodology driver.

:func:`decompose` is the plain Table-2 search.  Memoized mapping — an
in-process LRU and an optional persistent disk store, bundled as a
:class:`~repro.mapping.cache.CacheTiers` — belongs to whoever owns the
tiers; in practice that is :class:`repro.api.MappingSession`, the typed
front door, which exposes the whole methodology with ``stats()`` for
hit rates and ``clear_caches()`` for cold-start measurements.  See
:mod:`repro.mapping.cache` for the fingerprinting and serialization
contracts and :mod:`repro.mapping.batch` (:func:`run_batch`) for
mapping whole (block × library × platform) work sets with dedup, one
cache lookup per unique item and in-process computation of the rest.
"""

from repro.mapping.batch import BatchItem, BatchReport, BatchStats, run_batch
from repro.mapping.cache import (
    CacheTiers,
    clear_shared_caches,
    fingerprint_block,
    fingerprint_library,
    fingerprint_platform,
    shared_cache_stats,
)
from repro.mapping.candidates import (
    CandidateForm,
    all_manipulations,
    structural_hints,
)
from repro.mapping.decompose import (
    DecomposeResult,
    MappingSolution,
    decompose,
    residual_cost,
)
from repro.mapping.flow import (
    FlowReport,
    MappingPass,
    MethodologyFlow,
    SweepEntry,
    SweepReport,
    methodology_blocks,
)
from repro.mapping.match import (
    BlockMatch,
    Instantiation,
    enumerate_instantiations,
    match_block,
)
from repro.mapping.pareto import (
    BlockParetoResult,
    Objectives,
    ParetoPoint,
    pareto_front,
    score_element,
    score_match,
)
from repro.mapping.rewriter import MappedProgram, rewrite

__all__ = [
    "Instantiation",
    "BlockMatch",
    "enumerate_instantiations",
    "match_block",
    "CandidateForm",
    "all_manipulations",
    "structural_hints",
    "decompose",
    "MappingSolution",
    "DecomposeResult",
    "residual_cost",
    "Objectives",
    "ParetoPoint",
    "BlockParetoResult",
    "pareto_front",
    "score_match",
    "score_element",
    "rewrite",
    "MappedProgram",
    "MethodologyFlow",
    "MappingPass",
    "FlowReport",
    "methodology_blocks",
    "SweepEntry",
    "SweepReport",
    "BatchItem",
    "BatchReport",
    "BatchStats",
    "run_batch",
    "CacheTiers",
    "shared_cache_stats",
    "clear_shared_caches",
    "fingerprint_block",
    "fingerprint_library",
    "fingerprint_platform",
]
