"""The batch-mapping engine: many (block × library × platform) work
items, deduplicated and fanned out across processes.

The methodology re-runs library mapping over many critical blocks and
a ladder of libraries (the paper's Tables 4–6).  Each individual
search is already memoized in its owner's cache tiers; what was missing
is how the calls are *driven*: a pass that maps its blocks one at a
time in a single process pays every cold search sequentially.  This
module accepts a whole batch of work items, resolves what it can from
the in-memory LRU and the persistent disk tier, and fans only the
genuinely cold remainder out across a ``ProcessPoolExecutor`` —
merging every result back into both cache tiers so later direct calls
(and later processes) hit.

Work items must cross a process boundary, which is why the engine
leans on the serialization contract: ``Polynomial`` pickles its
canonical core, ``LibraryElement`` drops unpicklable kernels (matching
never executes them), and a platform travels as its ``ProcessorSpec``
(the only part the mapper reads — see ``fingerprint_platform``).

Degradation is graceful by design:

* ``workers`` absent/0/1 — everything runs serially in-process;
* an item that fails to pickle — runs serially, counted in
  ``stats.pickle_fallbacks``;
* a failed job (worker raised, unpicklable result) — the affected item
  is recomputed serially in the parent (``stats.worker_retries``);
* a *dead pool* (a worker OOM-killed or crashed hard, breaking the
  whole ``ProcessPoolExecutor``) — the items that never ran get one
  fresh pool (``stats.pool_respawns``) before the serial fallback, so
  a single crashed worker does not serialize the entire remainder.
  Caller-owned executors are never respawned; their broken items go
  straight to the serial path.

Parallel and serial runs produce identical results: the work functions
are pure, and every value is derived from the same fingerprinted
inputs (asserted in ``tests/mapping/test_batch.py``).

Cache ownership: ``run_batch(tiers=...)`` resolves and merges against
the caller's :class:`~repro.mapping.cache.CacheTiers` — in practice a
session's — so concurrent owners with different cache directories stay
isolated.
"""

from __future__ import annotations

import inspect
import math
import pickle
from concurrent.futures import BrokenExecutor, Executor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Sequence

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
from repro.resilience import inject
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
    knobs with the searches' own defaults so batch submissions and
    direct session calls share cache lines.
    """

    kind: str  # "map_block" | "decompose"
    payload: object  # TargetBlock | Polynomial
    library: Library
    platform: Badge4 | None
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
        return cls("decompose", target, library, platform, merged)


@dataclass
class BatchStats:
    """What one :func:`run_batch` call did, for observability/benches."""

    submitted: int = 0  # items passed in
    unique: int = 0  # after fingerprint dedup
    memory_hits: int = 0  # resolved from the LRU tier
    disk_hits: int = 0  # resolved from the persistent tier
    computed: int = 0  # actually searched (cold)
    parallel_jobs: int = 0  # cold items executed in worker processes
    serial_jobs: int = 0  # cold items executed in-process
    pickle_fallbacks: int = 0  # items that could not cross the boundary
    worker_retries: int = 0  # worker failures recomputed serially
    pool_respawns: int = 0  # dead pools replaced with a fresh one
    workers: int = 1  # effective worker count


@dataclass
class BatchReport:
    """Results (in submission order) plus the run's statistics.

    ``map_block`` items yield ``(winner_or_None, [matches...])``;
    ``decompose`` items yield a ``DecomposeResult``.
    """

    results: list = field(default_factory=list)
    stats: BatchStats = field(default_factory=BatchStats)


def _item_key(item: BatchItem, default_platform: Badge4) -> tuple:
    platform = item.platform or default_platform
    knobs = dict(item.knobs)
    if item.kind == "map_block":
        return _map_block_key(
            item.payload,
            item.library,
            platform,
            knobs["tolerance"],
            knobs["accuracy_budget"],
        )
    return _decompose_key(
        item.payload,
        item.library,
        platform,
        knobs["tolerance"],
        knobs["accuracy_budget"],
        knobs["max_depth"],
        knobs["max_nodes"],
        knobs["use_hints"],
        knobs["use_bounding"],
    )


def _pack_job(item: BatchItem, lib_blobs: dict[int, bytes]) -> bytes:
    """Serialize one work item for a worker process.

    Pre-pickling (instead of letting the executor do it) makes
    unpicklable corner cases catchable per item, so one bad item can
    never poison the pool.  ``lib_blobs`` memoizes the pickled element
    tuple per library *object* (items hold the references, so ids are
    stable for the duration): a batch over one shared ladder serializes
    each library once, not once per item.
    """
    blob = lib_blobs.get(id(item.library))
    if blob is None:
        blob = pickle.dumps(tuple(item.library), protocol=pickle.HIGHEST_PROTOCOL)
        lib_blobs[id(item.library)] = blob
    spec = item.platform.processor if item.platform is not None else None
    return pickle.dumps(
        (item.kind, item.payload, item.library.name, blob, spec, dict(item.knobs)),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def _execute_job(blob: bytes):
    """Worker-side execution: rebuild the inputs, run the cold search.

    Goes straight to the uncached internals: the parent only ships
    items that already missed both cache tiers, so worker-side lookups
    could only miss too, and the parent merges every returned value
    into the LRU *and* the disk tier exactly once (a worker-side
    write-through would store the same payload twice).  The return
    value is the LRU-shaped cache value for the item's kind.

    The ``batch.worker`` fault site fires here — in the worker, never
    on the serial fallback path — so chaos tests can kill or fail
    workers while the parent-side recovery always has a clean retry.
    """
    inject("batch.worker")
    kind, payload, lib_name, lib_blob, spec, knobs = pickle.loads(blob)
    library = Library(lib_name, pickle.loads(lib_blob))
    platform = Badge4(processor=spec) if spec is not None else Badge4()
    if kind == "map_block":
        return _map_block_uncached(
            payload, library, platform, knobs["tolerance"], knobs["accuracy_budget"]
        )
    return _decompose_uncached(payload, library, platform, **knobs)


def _compute_cold(
    item: BatchItem,
    key: tuple,
    digest,
    tier,
    tiers: CacheTiers,
    default_platform: Badge4,
) -> object:
    """In-process cold execution, merging straight into the tiers.

    The caller has already keyed the item and missed both tiers, so
    this goes directly to the uncached search — re-entering the public
    entry points would redo the key/digest/lookup work and double-count
    the misses in :meth:`~repro.mapping.cache.CacheTiers.stats`.
    """
    platform = item.platform or default_platform
    knobs = dict(item.knobs)
    if item.kind == "map_block":
        value = _map_block_uncached(
            item.payload,
            item.library,
            platform,
            knobs["tolerance"],
            knobs["accuracy_budget"],
        )
    else:
        value = _decompose_uncached(item.payload, item.library, platform, **knobs)
    _merge(item.kind, key, digest, value, tier, tiers)
    return value


def _merge(kind: str, key: tuple, digest, value, tier, tiers: CacheTiers) -> None:
    """Install a computed value into both cache tiers.

    ``digest`` is the key's :func:`~repro.mapping.cache.stable_digest`,
    computed once during cold detection and threaded through so the
    store never re-canonicalizes the key.
    """
    cache = tiers.map_block if kind == "map_block" else tiers.decompose
    cache.put(key, value)
    if tier is not None:
        tier.put(digest, value)


def _present(kind: str, value):
    """The caller-facing shape of one result (fresh list per caller)."""
    if kind == "map_block":
        winner, matches = value
        return winner, list(matches)
    return value


def run_batch(
    items: Iterable[BatchItem],
    *,
    workers: int | None = None,
    executor: "Executor | None" = None,
    tiers: CacheTiers,
) -> BatchReport:
    """Resolve a batch of mapping work items, fanning cold ones out.

    Parameters
    ----------
    items:
        Any iterable of :class:`BatchItem` (duplicates welcome — they
        are deduplicated by content fingerprint, not identity).
    workers:
        Worker processes for the cold remainder.  ``None``/0/1 runs
        serially in-process; higher values use a process pool.
    executor:
        An injectable :class:`concurrent.futures.Executor` for the
        cold fan-out.  When given, it is used instead of forking a
        fresh ``ProcessPoolExecutor`` per call and is *never* shut
        down here — the owner (a long-running service, a test
        harness) controls its lifetime.  Jobs still cross the
        executor boundary pre-pickled, so process and thread pools
        behave identically.
    tiers:
        The :class:`~repro.mapping.cache.CacheTiers` to resolve and
        merge against (sessions pass their own).

    Returns a :class:`BatchReport` whose ``results`` align with the
    submission order.  Every computed value is merged back into the
    in-memory LRU and (when configured) the disk tier, so subsequent
    cached calls against the same tiers hit.
    """
    items = list(items)
    stats = BatchStats(submitted=len(items))
    effective = max(1, int(workers or 1))
    if executor is not None:
        # An injected pool parallelizes regardless of `workers`; its
        # own max_workers governs the real fan-out width.
        effective = max(effective, getattr(executor, "_max_workers", None) or 2)
    default_platform = Badge4()
    tier = tiers.disk()

    keys = [_item_key(item, default_platform) for item in items]
    resolved: dict[tuple, object] = {}
    cold: list[tuple[tuple, object, BatchItem]] = []
    seen: set[tuple] = set()
    for key, item in zip(keys, items):
        if key in seen:
            continue
        seen.add(key)
        stats.unique += 1
        cache = tiers.map_block if item.kind == "map_block" else tiers.decompose
        value = cache.get(key)
        if value is not None:
            stats.memory_hits += 1
            resolved[key] = value
            continue
        digest = stable_digest(key) if tier is not None else None
        if tier is not None:
            stored = tier.get(digest)
            if stored is not None:
                stats.disk_hits += 1
                cache.put(key, stored)
                resolved[key] = stored
                continue
        cold.append((key, digest, item))

    stats.computed = len(cold)
    stats.workers = min(effective, len(cold)) if cold else 1

    if cold and effective > 1 and len(cold) > 1:
        _run_parallel(cold, resolved, stats, tier, tiers, default_platform, executor)
    else:
        for key, digest, item in cold:
            resolved[key] = _compute_cold(
                item, key, digest, tier, tiers, default_platform
            )
            stats.serial_jobs += 1

    report = BatchReport(stats=stats)
    report.results = [
        _present(item.kind, resolved[key]) for key, item in zip(keys, items)
    ]
    return report


def _run_parallel(
    cold: "Sequence[tuple[tuple, object, BatchItem]]",
    resolved: dict,
    stats: BatchStats,
    tier,
    tiers: CacheTiers,
    default_platform: Badge4,
    executor: "Executor | None" = None,
) -> None:
    """Fan the cold items out, falling back serially where needed."""
    jobs: list[tuple[tuple, object, BatchItem, bytes]] = []
    lib_blobs: dict[int, bytes] = {}
    for key, digest, item in cold:
        try:
            jobs.append((key, digest, item, _pack_job(item, lib_blobs)))
        except Exception:
            stats.pickle_fallbacks += 1
            resolved[key] = _compute_cold(
                item, key, digest, tier, tiers, default_platform
            )
            stats.serial_jobs += 1

    if not jobs:
        return
    if len(jobs) == 1:
        key, digest, item, _ = jobs[0]
        resolved[key] = _compute_cold(item, key, digest, tier, tiers, default_platform)
        stats.serial_jobs += 1
        return

    if executor is not None:
        # Caller-owned pool: submit straight into it, never shut it
        # down, never respawn it (its lifetime belongs to the owner) —
        # items a broken injected pool orphans degrade serially like
        # any other worker failure.
        serial, respawn = _collect_jobs(executor, jobs, resolved, stats, tier, tiers)
        serial.extend(job[:3] for job in respawn)
    else:
        serial = _run_private_pool(jobs, resolved, stats, tier, tiers)

    for key, digest, item in serial:
        stats.worker_retries += 1
        resolved[key] = _compute_cold(item, key, digest, tier, tiers, default_platform)
        stats.serial_jobs += 1


def _run_private_pool(
    jobs: "Sequence[tuple[tuple, object, BatchItem, bytes]]",
    resolved: dict,
    stats: BatchStats,
    tier,
    tiers: CacheTiers,
) -> "list[tuple[tuple, object, BatchItem]]":
    """Run packed jobs in a fresh process pool, respawning it once.

    A worker that dies hard (OOM-killed, segfaulted, ``os._exit``)
    breaks the *whole* ``ProcessPoolExecutor``: every outstanding
    future raises ``BrokenProcessPool`` even though those items never
    ran and are not individually at fault.  They get one fresh pool —
    counted in ``stats.pool_respawns`` — before falling back serially;
    a second breakage (the culprit item rode along, or the host really
    is out of memory) sends the remainder to the serial path, whose
    items are returned for the caller to recompute.
    """
    serial: list[tuple[tuple, object, BatchItem]] = []
    pending = list(jobs)
    for round_index in range(2):
        workers = min(stats.workers, len(pending))
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                round_serial, respawn = _collect_jobs(
                    pool, pending, resolved, stats, tier, tiers
                )
        except Exception:
            # The pool itself failed wholesale (e.g. fork refused):
            # everything not yet resolved runs serially.
            serial.extend(job[:3] for job in pending if job[0] not in resolved)
            return serial
        serial.extend(round_serial)
        if not respawn:
            return serial
        if round_index == 0:
            stats.pool_respawns += 1
            pending = respawn
        else:
            serial.extend(job[:3] for job in respawn)
    return serial


def _collect_jobs(
    pool: Executor,
    jobs: "Sequence[tuple[tuple, object, BatchItem, bytes]]",
    resolved: dict,
    stats: BatchStats,
    tier,
    tiers: CacheTiers,
) -> "tuple[list, list]":
    """Submit packed jobs to ``pool``; classify what needs retrying.

    Returns ``(serial, respawn)``: ``serial`` holds items whose *job*
    failed (the work itself raised — rerun it in-process, where a
    deterministic failure will surface to the caller), ``respawn``
    holds items (with their packed blobs) whose *pool* died under them
    (``BrokenExecutor`` — the work may never have run, so a fresh pool
    is worth one try).  Submission is guarded too: a pool that breaks
    mid-batch refuses every later ``submit`` with the same exception.
    """
    serial: list[tuple[tuple, object, BatchItem]] = []
    respawn: list[tuple[tuple, object, BatchItem, bytes]] = []
    futures = []
    for key, digest, item, blob in jobs:
        try:
            futures.append((key, digest, item, blob, pool.submit(_execute_job, blob)))
        except BrokenExecutor:
            respawn.append((key, digest, item, blob))
        except Exception:
            serial.append((key, digest, item))
    for key, digest, item, blob, future in futures:
        try:
            value = future.result()
        except BrokenExecutor:
            respawn.append((key, digest, item, blob))
            continue
        except Exception:
            serial.append((key, digest, item))
            continue
        _merge(item.kind, key, digest, value, tier, tiers)
        resolved[key] = value
        stats.parallel_jobs += 1
    return serial, respawn
