"""The batch-mapping engine: many (block × library × platform) work
items, deduplicated and resolved through the cache tiers.

The methodology re-runs library mapping over many critical blocks and
a ladder of libraries (the paper's Tables 4–6).  This module accepts a
whole batch of work items, keys and deduplicates them by content
fingerprint, resolves each from the in-memory LRU and then the
persistent disk tier, and computes the cold remainder in-process —
merging every result into both tiers so later direct calls (and later
processes) hit.

The loop is serial.  Every surface submits block matches (flows,
``repro sweep``, ``/v1/sweep``), which are too cheap to amortize a
process pool: on a 2-vCPU host a 2-process pool made cold sweeps
2.5–9× slower than serial.  The service's multi-core path is the
fleet (``--workers N``), one process per worker.

Cache ownership: ``run_batch(tiers=...)`` resolves and merges against
the caller's :class:`~repro.mapping.cache.CacheTiers` — in practice a
session's — so concurrent owners with different cache directories stay
isolated.  It is the only code that reads or writes a tier bundle:
``MappingSession.map``/``pareto``/``verify``/``decompose`` submit one
item each, so a session call and a batch share every cache line and
count hits, misses and writes the same way.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from typing import Iterable

from repro.frontend.extract import TargetBlock
from repro.library.catalog import Library
from repro.mapping.cache import CacheTiers, stable_digest
from repro.mapping.decompose import (
    _decompose_key,
    _decompose_uncached,
    _map_block_key,
    _map_block_uncached,
    decompose,
)
from repro.platform.badge4 import Badge4
from repro.symalg.polynomial import Polynomial

__all__ = ["BatchItem", "BatchStats", "BatchReport", "run_batch"]


#: Read from the live signature so the batch engine can never drift
#: from the search it prewarms — identical knobs mean identical keys.
_DECOMPOSE_DEFAULTS = {
    name: p.default
    for name, p in inspect.signature(decompose).parameters.items()
    if p.kind is inspect.Parameter.KEYWORD_ONLY
}


@dataclass(frozen=True, eq=False)
class BatchItem:
    """One unit of mapping work: a payload against a library.

    Build via :meth:`for_block` (multi-output block matching) or
    :meth:`for_target` (scalar Decompose search); both normalize the
    knobs with the searches' own defaults, and resolve an omitted
    platform to the default ``Badge4()``, so batch submissions and
    direct session calls share cache lines.
    """

    kind: str  # "map_block" | "decompose"
    payload: object  # TargetBlock | Polynomial
    library: Library
    platform: Badge4
    knobs: tuple[tuple[str, object], ...]

    @classmethod
    def for_block(
        cls,
        block: TargetBlock,
        library: Library,
        platform: Badge4 | None = None,
        *,
        tolerance: float = 1e-6,
        accuracy_budget: float = math.inf,
    ) -> "BatchItem":
        """A block-matching item (the block-match work unit)."""
        knobs = (("accuracy_budget", accuracy_budget), ("tolerance", tolerance))
        platform = platform if platform is not None else Badge4()
        return cls("map_block", block, library, platform, knobs)

    @classmethod
    def for_target(
        cls,
        target: Polynomial,
        library: Library,
        platform: Badge4 | None = None,
        **knobs,
    ) -> "BatchItem":
        """A Decompose-search item (the ``decompose`` work unit)."""
        unknown = set(knobs) - set(_DECOMPOSE_DEFAULTS)
        if unknown:
            raise TypeError(f"unknown decompose knob(s): {sorted(unknown)}")
        merged = tuple(sorted({**_DECOMPOSE_DEFAULTS, **knobs}.items()))
        platform = platform if platform is not None else Badge4()
        return cls("decompose", target, library, platform, merged)


@dataclass
class BatchStats:
    """What one :func:`run_batch` call did, for observability/benches."""

    submitted: int = 0  # items passed in
    unique: int = 0  # after fingerprint dedup
    memory_hits: int = 0  # resolved from the LRU tier
    disk_hits: int = 0  # resolved from the persistent tier
    computed: int = 0  # actually searched (cold)


@dataclass
class BatchReport:
    """Results (in submission order) plus the run's statistics.

    ``map_block`` items yield ``(winner_or_None, [matches...])``;
    ``decompose`` items yield a ``DecomposeResult``.
    """

    results: list = field(default_factory=list)
    stats: BatchStats = field(default_factory=BatchStats)


def _item_key(item: BatchItem) -> tuple:
    knobs = dict(item.knobs)
    if item.kind == "map_block":
        return _map_block_key(
            item.payload,
            item.library,
            item.platform,
            knobs["tolerance"],
            knobs["accuracy_budget"],
        )
    return _decompose_key(
        item.payload,
        item.library,
        item.platform,
        knobs["tolerance"],
        knobs["accuracy_budget"],
        knobs["max_depth"],
        knobs["max_nodes"],
        knobs["use_hints"],
        knobs["use_bounding"],
    )


def _compute(item: BatchItem) -> object:
    """The cold search for one item, as its LRU-shaped cache value.

    The caller has already keyed the item and missed both tiers, so
    this goes directly to the uncached search.
    """
    knobs = dict(item.knobs)
    if item.kind == "map_block":
        return _map_block_uncached(
            item.payload,
            item.library,
            item.platform,
            knobs["tolerance"],
            knobs["accuracy_budget"],
        )
    return _decompose_uncached(item.payload, item.library, item.platform, **knobs)


def _present(kind: str, value):
    """The caller-facing shape of one result (fresh list per caller)."""
    if kind == "map_block":
        winner, matches = value
        return winner, list(matches)
    return value


def run_batch(items: Iterable[BatchItem], *, tiers: CacheTiers) -> BatchReport:
    """Resolve a batch of mapping work items through ``tiers``.

    Parameters
    ----------
    items:
        Any iterable of :class:`BatchItem` (duplicates welcome — they
        are deduplicated by content fingerprint, not identity).
    tiers:
        The :class:`~repro.mapping.cache.CacheTiers` to resolve and
        merge against (sessions pass their own).

    Each unique item costs one LRU ``get``; a miss costs one disk
    ``get`` (when the tier is configured), and a disk miss runs the
    search in-process.  Returns a :class:`BatchReport` whose
    ``results`` align with the submission order.  Every disk hit is
    promoted into the LRU, and every computed value is merged into the
    LRU and (when configured) the disk tier, so later calls against
    the same tiers hit.
    """
    items = list(items)
    stats = BatchStats(submitted=len(items))
    tier = tiers.disk()
    keys = [_item_key(item) for item in items]
    resolved: dict[tuple, object] = {}
    for key, item in zip(keys, items):
        if key in resolved:
            continue
        stats.unique += 1
        cache = tiers.map_block if item.kind == "map_block" else tiers.decompose
        value = cache.get(key)
        if value is not None:
            stats.memory_hits += 1
            resolved[key] = value
            continue
        # Digested once, for the disk lookup and (on a miss) its write.
        digest = stable_digest(key) if tier is not None else None
        value = tier.get(digest) if tier is not None else None
        if value is not None:
            stats.disk_hits += 1
            cache.put(key, value)
        else:
            value = _compute(item)
            stats.computed += 1
            cache.put(key, value)
            if tier is not None:
                tier.put(digest, value)
        resolved[key] = value

    results = [_present(item.kind, resolved[key]) for key, item in zip(keys, items)]
    return BatchReport(results=results, stats=stats)
