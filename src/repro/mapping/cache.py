"""Memoization for the mapping flow: repeated decompositions are free.

The mapping searches (:func:`~repro.mapping.decompose.decompose`'s
Table-2 search and the block match) and the candidate generators are
pure functions of their arguments, but their arguments are not all
hashable: a :class:`~repro.library.catalog.Library` is a mutable
collection, a :class:`~repro.platform.tally.OperationTally` carries a
``dict``, and a :class:`~repro.platform.badge4.Badge4` owns live model
objects.  This module supplies the missing pieces:

* **Fingerprints** — small hashable tuples of content digests that
  capture exactly the inputs the algorithms read (element polynomials,
  formats, costs, cycle prices), so semantically equal
  libraries/platforms hit the same cache line even when they are
  distinct objects rebuilt per pass.  Each immutable value is hashed
  once: a :class:`~repro.symalg.polynomial.Polynomial` caches its
  ``content_digest``, an element its :func:`element_digest`, a library
  fingerprint is the sorted tuple of its element digests, and a block
  fingerprint carries its output polynomials' digests.
* **LRU caches** — bounded, with hit/miss/eviction counters.
* **A persistent disk tier** — an sqlite-backed store under a cache
  directory, keyed by a *stable* digest of the same fingerprints plus
  :data:`SCHEMA_VERSION`.  The cached searches consult it on LRU miss
  and write through on store, so a second process (a CI re-run, a
  fresh benchmark) starts warm.
* **:class:`CacheTiers`** — the one owner of the mapping caches: the
  two mapping LRUs plus zero or one disk tier, fixed at construction.
  A :class:`~repro.api.MappingSession` builds one from its
  :class:`~repro.api.SessionConfig`, which is how two sessions with
  different cache directories coexist in one process with fully
  isolated statistics.
* **Shared memo caches** — the ``instantiations`` cache holds bound
  polynomials, platform-independent derivations keyed by exact inputs,
  so every session shares it; :func:`shared_cache_stats` and
  :func:`clear_shared_caches` are its one process-wide surface.

A cache directory holds one sqlite file, ``mapping_cache.sqlite``.
Disk keys cannot use Python ``hash`` (randomized per process); they
are sha256 digests of a canonical text encoding of the fingerprint key
(see :func:`stable_digest`) joined with the schema version, so bumping
:data:`SCHEMA_VERSION` invalidates every stale entry at once.  Because
the key is already made of content digests, that text is a few
kilobytes, not the megabytes of polynomial coefficients it stands for.  A
corrupted or unreadable store trips a circuit breaker (every lookup
misses, every write is dropped, and the store is re-probed after a
cooldown) — the cache must never break the computation.

Caching contract
----------------
Cached values are treated as immutable: callers receive either frozen
dataclasses or fresh shallow copies of list results, never an aliased
mutable structure that a later hit would observe mutated.  Correctness
therefore only requires that fingerprints cover every input the
algorithms depend on — a fingerprint collision between semantically
different inputs would be a bug in the fingerprint, not in the cache.
Values that reach the disk tier additionally rely on the serialization
contract (``Polynomial.__getstate__``, ``LibraryElement.__getstate__``):
pickles carry only canonical state, and unpicklable kernels are
dropped because the mapping algorithms never execute them.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import sqlite3
import threading
from fractions import Fraction
from pathlib import Path
from typing import Any, Hashable

from repro.frontend.extract import TargetBlock
from repro.library.catalog import Library
from repro.library.element import LibraryElement
from repro.platform.badge4 import Badge4
from repro.platform.tally import OperationTally
from repro.resilience import CircuitBreaker, inject
from repro.symalg.gcdtools import clear_gcd_caches
from repro.symalg.ideal import clear_ideal_caches
from repro.symalg.polynomial import Polynomial

__all__ = [
    "LRUCache",
    "DiskCache",
    "CacheTiers",
    "SCHEMA_VERSION",
    "shared_cache_stats",
    "clear_shared_caches",
    "stable_digest",
    "fingerprint_tally",
    "fingerprint_element",
    "element_digest",
    "fingerprint_library",
    "fingerprint_block",
    "fingerprint_platform",
]

_MISS = object()

#: Bump when a change alters what cached mapping results mean: new
#: fields on DecomposeResult/BlockMatch, fingerprint coverage changes,
#: algorithm changes that affect outputs.  Entries written under any
#: other version are treated as absent.
#:
#: History: 1 — the PR-2 disk tier; 2 — the multi-platform sweep era
#: (pluggable processor registry + Pareto fronts derived from cached
#: match lists; platform identity has keyed every entry since v1, but
#: v1 entries predate the registry's non-SA-1110 specs and the
#: derived-front contract, so they are retired wholesale); 3 — element
#: input/output formats join the element fingerprint (verification
#: reads both from the cached match, so v2 entries could answer with a
#: stale format); 4 — content-addressed keys: polynomials, elements
#: and libraries enter disk keys as sha256 content digests instead of
#: inline coefficients, so every disk key changed format; 5 —
#: DecomposeResult gains ``truncated`` and ``candidates_dropped`` (a v4
#: pickle would read ``truncated=False`` for a cut-off search).
SCHEMA_VERSION = 5


class LRUCache:
    """A bounded mapping-layer cache with least-recently-used eviction.

    Thread-safe: the service front-end resolves requests on a worker
    thread pool, so ``get``'s pop-and-reinsert recency update and
    ``put``'s eviction must be atomic across threads, not just across
    bytecodes.

    >>> cache = LRUCache(maxsize=2, name="doc")
    >>> cache.put("a", 1); cache.put("b", 2); cache.put("c", 3)
    >>> cache.get("a") is None          # evicted: capacity 2
    True
    >>> cache.get("c")
    3
    >>> stats = cache.stats()
    >>> stats["hits"], stats["misses"], stats["evictions"]
    (1, 1, 1)
    """

    def __init__(self, maxsize: int = 256, name: str = ""):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self._data: dict[Hashable, Any] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value for ``key`` (marking it recently used)."""
        with self._lock:
            value = self._data.pop(key, _MISS)
            if value is _MISS:
                self.misses += 1
                return default
            self._data[key] = value  # re-insert: now most recently used
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``key -> value``, evicting the LRU entry when full."""
        with self._lock:
            self._data.pop(key, None)
            self._data[key] = value
            if len(self._data) > self.maxsize:
                # dicts iterate in insertion order: first key is the LRU.
                self._data.pop(next(iter(self._data)))
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> dict[str, int]:
        """``{"size", "maxsize", "hits", "misses", "evictions"}``."""
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


# ----------------------------------------------------------------------
# Fingerprints: hashable digests of the unhashable inputs
# ----------------------------------------------------------------------
def fingerprint_tally(tally: OperationTally) -> tuple:
    """Hashable digest of an operation tally (all counts + libm calls)."""
    return (
        tally.int_alu,
        tally.int_mul,
        tally.int_mac,
        tally.int_div,
        tally.shift,
        tally.fp_add,
        tally.fp_mul,
        tally.fp_div,
        tally.load,
        tally.store,
        tally.branch,
        tally.call,
        tuple(sorted(tally.libm_calls.items())),
    )


def fingerprint_element(element: LibraryElement) -> tuple:
    """Hashable digest of everything the mapper reads from an element.

    Covers the polynomial representation (as content digests), the
    data formats (verification reads them from the cached match),
    accuracy, and the cost tally; the ``kernel`` callable and the
    free-text ``description`` are deliberately excluded because
    matching and decomposition never read them.  This is the one list
    of read fields: :func:`element_digest` hashes exactly this tuple.
    """
    return (
        element.name,
        element.library,
        tuple(poly.content_digest() for poly in element.polynomials),
        element.input_format,
        element.output_format,
        element.accuracy,
        fingerprint_tally(element.cost),
    )


def element_digest(element: LibraryElement) -> str:
    """Hex sha256 of :func:`fingerprint_element`, computed once per element.

    Elements are frozen, so the digest is memoized on the instance on
    first use (lazily: a library build never pays for it).  It is not a
    dataclass field, so equality, ``dataclasses.replace``, copies and
    pickles never carry it.
    """
    digest = element.__dict__.get("_content_digest")
    if digest is None:
        digest = _sha256(_canonical(fingerprint_element(element)))
        object.__setattr__(element, "_content_digest", digest)
    return digest


def fingerprint_library(library: Library) -> tuple:
    """Order-independent digest of a library's mapped-against content:
    its sorted element digests.

    Two libraries with the same elements fingerprint identically even
    when assembled by different :meth:`~repro.library.catalog.Library.union`
    calls, so every pass of a benchmark ladder shares cache lines.
    """
    return tuple(sorted(element_digest(e) for e in library))


def fingerprint_block(block: TargetBlock) -> tuple:
    """Digest of a target block: name, ``(output, polynomial digest)``
    pairs, input frame."""
    return (
        block.name,
        tuple(
            sorted((out, poly.content_digest()) for out, poly in block.outputs.items())
        ),
        block.input_variables,
    )


def fingerprint_platform(platform: Badge4) -> tuple:
    """Digest of the cost-model inputs of a platform.

    This is the *platform identity* that keys every mapping cache
    entry: the processor's name, clock, and full cycle/libm price
    tables — two registry entries with different cost tables can never
    share a cache line, and editing a spec's table retires its old
    entries.  The energy model and DVFS state are deliberately
    excluded: cached values (match lists, decompose results) are priced
    in cycles only, and the Pareto layer derives energy scores fresh in
    the calling process (see :mod:`repro.mapping.pareto`), so they can
    never be served stale.
    """
    spec = platform.cost_model.spec
    return (
        spec.name,
        spec.clock_hz,
        spec.has_fpu,
        tuple(sorted(spec.cycle_costs.items())),
        tuple(sorted(spec.libm_costs.items())),
        spec.libm_default,
    )


# ----------------------------------------------------------------------
# Stable digests: process-independent keys for the disk tier
# ----------------------------------------------------------------------
def _stable(obj: Any):
    """A JSON-able canonical form of a fingerprint key component.

    Python ``hash`` is randomized per process (``PYTHONHASHSEED``), so
    disk keys are built from this encoding instead.  A polynomial
    enters as its :meth:`~repro.symalg.polynomial.Polynomial.content_digest`,
    the one canonical polynomial encoding.  Every type a fingerprint
    tuple can contain is covered; anything else is a bug in the
    caller's key, surfaced loudly.
    """
    if isinstance(obj, (tuple, list)):  # first: keys are mostly tuples
        return ["t", [_stable(x) for x in obj]]
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return ["f", repr(obj)]  # repr round-trips exactly
    if isinstance(obj, Fraction):
        return ["q", obj.numerator, obj.denominator]
    if isinstance(obj, Polynomial):
        return ["P", obj.content_digest()]
    raise TypeError(f"cannot build a stable disk-cache key from {type(obj).__name__}")


def _canonical(obj: Any) -> str:
    """Canonical JSON text of :func:`_stable`'s form of ``obj``."""
    return json.dumps(_stable(obj), separators=(",", ":"), ensure_ascii=True)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def stable_digest(key: tuple) -> str:
    """Hex sha256 of the canonical encoding of ``key`` + schema version.

    Stable across processes and Python sessions; changes whenever the
    key's semantic content or :data:`SCHEMA_VERSION` changes.  Keys
    are built from content digests (libraries, blocks, targets), so
    the hashed text is small: a few kilobytes for a full-ladder map key.
    """
    return _sha256(f"{SCHEMA_VERSION}\x00{_canonical(key)}")


# ----------------------------------------------------------------------
# The persistent tier
# ----------------------------------------------------------------------
class DiskCache:
    """An sqlite-backed pickle store: the mapping layer's warm tier.

    One table of ``(key, schema, payload)`` rows.  Every operation is
    failure-tolerant by design: a locked database skips the operation,
    failures never raise, and :meth:`clear` deletes the file — which
    also repairs a broken store.  Connections are opened lazily and
    re-opened after a ``fork`` (sqlite connections must not cross
    process boundaries).

    Failure policy is a :class:`~repro.resilience.CircuitBreaker`
    rather than a permanent "broken" flag: a store that cannot even be
    opened (corrupt file) trips the circuit immediately, and
    ``failure_threshold`` consecutive operation failures (locked,
    I/O-error, corruption discovered mid-read) open it too.  While the
    circuit is open every lookup misses and every write drops — the
    mapping layer serves memory-only — and after ``cooldown`` seconds
    the next access probes the store (half-open) and closes the
    circuit again on success.  A transiently-locked or repaired store
    therefore heals without operator action; breaker state is visible
    in :meth:`stats` and on every stats surface above it.

    The ``disk_cache.read`` / ``disk_cache.write`` fault sites
    (:func:`repro.resilience.inject`) sit inside the sqlite error
    handling, so chaos tests drive exactly the degradation paths real
    corruption would.

    Thread-safe: one connection is shared under an instance lock
    (``check_same_thread=False``), because the service front-end's
    worker threads all consult the same tier — sqlite would otherwise
    raise ``ProgrammingError`` (a ``DatabaseError`` subclass) from any
    non-opening thread.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        *,
        failure_threshold: int = 3,
        cooldown: float = 5.0,
        clock=None,
    ):
        self.path = Path(path)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None
        breaker_kwargs = {} if clock is None else {"clock": clock}
        self.breaker = CircuitBreaker(
            failure_threshold=failure_threshold,
            cooldown=cooldown,
            name=str(self.path),
            **breaker_kwargs,
        )
        self._lock = threading.RLock()

    # -- connection management -----------------------------------------
    def _connection(self) -> sqlite3.Connection | None:
        if not self.breaker.allow():
            return None
        pid = os.getpid()
        if self._conn is not None and self._pid == pid:
            return self._conn
        if self._conn is not None:
            # Inherited across fork: abandon without closing (closing
            # would checkpoint the parent's WAL from the child).
            self._conn = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=5.0, check_same_thread=False)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " key TEXT PRIMARY KEY,"
                " schema INTEGER NOT NULL,"
                " payload BLOB NOT NULL)"
            )
            conn.commit()
        except sqlite3.OperationalError:
            # Locked / transiently unopenable: count toward the
            # threshold, it may clear on its own.
            self.breaker.record_failure()
            return None
        except sqlite3.DatabaseError:
            # The file is not (or no longer) a database: open the
            # circuit now — counting to the threshold against a store
            # that cannot even be opened is pointless retries.
            self.breaker.trip()
            return None
        except (sqlite3.Error, OSError):
            self.breaker.record_failure()
            return None
        self._conn, self._pid = conn, pid
        return conn

    # -- the store -------------------------------------------------------
    def get(self, digest: str) -> Any:
        """The stored value for ``digest``, or ``None`` on any miss.

        Misses include: no row, a row written under a different
        :data:`SCHEMA_VERSION`, an unreadable payload, a locked or
        corrupted database.  None of these raise.
        """
        with self._lock:
            conn = self._connection()
            if conn is None:
                self.misses += 1
                return None
            try:
                inject("disk_cache.read")
                row = conn.execute(
                    "SELECT schema, payload FROM entries WHERE key = ?",
                    (digest,),
                ).fetchone()
            except sqlite3.DatabaseError:  # locked, busy, or corrupted
                self.breaker.record_failure()
                self.misses += 1
                return None
            self.breaker.record_success()
            if row is None or row[0] != SCHEMA_VERSION:
                self.misses += 1
                return None
            try:
                value = pickle.loads(row[1])
            except Exception:  # stale/garbled payload
                self.misses += 1
                return None
            self.hits += 1
            return value

    def put(self, digest: str, value: Any) -> None:
        """Write-through ``digest -> value``; silently drops on failure."""
        with self._lock:
            conn = self._connection()
            if conn is None:
                return
            try:
                payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:  # unpicklable value: skip (not a store fault)
                return
            try:
                inject("disk_cache.write")
                conn.execute(
                    "INSERT OR REPLACE INTO entries (key, schema, payload)"
                    " VALUES (?, ?, ?)",
                    (digest, SCHEMA_VERSION, payload),
                )
                conn.commit()
            except sqlite3.DatabaseError:  # locked, busy, or corrupted
                self.breaker.record_failure()
                return
            self.breaker.record_success()
            self.writes += 1

    def clear(self) -> None:
        """Delete the store file (also repairs a broken store)."""
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
            self._conn = None
            self._pid = None
            self.breaker.reset()
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.unlink(f"{self.path}{suffix}")
                except OSError:
                    pass
            self.hits = 0
            self.misses = 0
            self.writes = 0

    def __len__(self) -> int:
        with self._lock:
            conn = self._connection()
            if conn is None:
                return 0
            try:
                count = conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
            except sqlite3.Error:
                self.breaker.record_failure()
                return 0
            self.breaker.record_success()
            return count

    def stats(self) -> dict:
        """Disk-tier statistics, including the observed hit rate."""
        lookups = self.hits + self.misses
        return {
            "enabled": True,
            "path": str(self.path),
            "size": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "broken": self.breaker.state != CircuitBreaker.CLOSED,
            "breaker": self.breaker.stats(),
        }


# ----------------------------------------------------------------------
# Tier bundles: the cache-ownership unit
# ----------------------------------------------------------------------
#: Filename of the store inside a cache directory.
_DB_NAME = "mapping_cache.sqlite"


class CacheTiers:
    """The two mapping LRUs plus zero or one disk tier, as one object.

    This is the only owner of mapping cache state: a
    :class:`~repro.api.MappingSession` builds exactly one from its
    config, so two sessions in one process can point at different
    cache directories (or none) with fully isolated hit/miss/write
    counters.  ``cache_dir`` is fixed at construction — a directory
    puts the disk tier under it, ``None`` (the default) keeps
    persistence off.  Environment variables are never read here; that
    is :meth:`repro.api.SessionConfig.from_env`'s job.

    >>> tiers = CacheTiers()
    >>> tiers.disk() is None
    True
    >>> sorted(tiers.stats())
    ['decompose', 'disk', 'map_block']
    """

    def __init__(
        self,
        *,
        cache_dir: "str | os.PathLike[str] | None" = None,
        decompose_lru: int = 512,
        map_block_lru: int = 256,
    ):
        self.decompose = LRUCache(decompose_lru, name="decompose")
        self.map_block = LRUCache(map_block_lru, name="map_block")
        self._disk = (
            None
            if cache_dir is None
            else DiskCache(Path(cache_dir).expanduser() / _DB_NAME)
        )

    def disk(self) -> DiskCache | None:
        """The disk tier, or ``None`` when persistence is off."""
        return self._disk

    # -- observability / lifecycle ---------------------------------------
    def stats(self) -> dict:
        """The canonical per-tiers statistics shape.

        ``{"decompose": ..., "map_block": ..., "disk": ...}`` — the two
        LRU caches' counters plus the disk tier's (or
        ``{"enabled": False}`` when persistence is off).
        """
        return {
            "decompose": self.decompose.stats(),
            "map_block": self.map_block.stats(),
            "disk": {"enabled": False} if self._disk is None else self._disk.stats(),
        }

    def clear_memory(self) -> None:
        """Drop both LRU caches (counters included)."""
        self.decompose.clear()
        self.map_block.clear()

    def clear(self) -> None:
        """Drop the LRUs *and* delete the disk store, if any.

        A fresh process (``repro cache clear``) therefore wipes the
        on-disk store its directory points at, not just entries this
        process happened to open.
        """
        self.clear_memory()
        if self._disk is not None:
            self._disk.clear()

    def __repr__(self) -> str:
        where = "off" if self._disk is None else self._disk.path.parent
        return f"CacheTiers(disk={where})"


# ----------------------------------------------------------------------
# Shared memo caches: pure-function derivations every session reuses
# ----------------------------------------------------------------------
#: Bound polynomials per ``(element digest, binding, output index)``
#: (:meth:`repro.mapping.match.Instantiation.bound_polynomial`) — the
#: innermost loop of the Decompose search.
INSTANTIATIONS_CACHE = LRUCache(maxsize=8192, name="instantiations")

_SHARED_CACHES = (INSTANTIATIONS_CACHE,)


def shared_cache_stats() -> dict[str, dict]:
    """Statistics of the pure-function caches every session shares.

    They are keyed by exact inputs and hold platform-independent
    derivations, so they are process-wide rather than session state.
    """
    return {cache.name: cache.stats() for cache in _SHARED_CACHES}


def clear_shared_caches() -> None:
    """Empty every process-wide memo: the shared mapping caches plus
    symalg's Gröbner-basis and GCD memos, so one call makes a process
    cold (session-owned tiers are cleared by their owner)."""
    for cache in _SHARED_CACHES:
        cache.clear()
    clear_ideal_caches()
    clear_gcd_caches()
