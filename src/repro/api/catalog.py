"""Named-resource resolution: blocks, workloads, library tags, platforms.

A session (and through it, the HTTP service) addresses resources by
short stable names — ``"inv_mdctL"``, ``("REF", "IH")``,
``"SA-1110"``, ``"jpeg_idct"`` — and the catalog turns those into
live objects, memoized per instance:

* **blocks** belong to a workload
  (:class:`~repro.workload.WorkloadRegistry` entries); each workload's
  set is extracted once (frontend symbolic execution is the expensive
  part of a cold start) and the *same* ``TargetBlock`` objects reused
  for every request.  The default workload is the session's
  (``"mp3"`` unless configured otherwise), so pre-registry callers
  see exactly the set they always did;
* **libraries** are assembled once per tag combination and reused, so
  the elements' cached content digests
  (:func:`~repro.mapping.cache.element_digest`) and the batch engine's
  per-object pickle memo both stay hot;
* **platforms** come from the session's
  :class:`~repro.platform.registry.ProcessorRegistry` and are
  instantiated once per key.

Unknown names raise :class:`~repro.errors.ServiceError` carrying the
HTTP status a transport should answer (404 unknown resource, 400
malformed combination) — library callers can treat it as an ordinary
:class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

from repro.api.types import LIBRARY_TAGS
from repro.errors import ServiceError
from repro.frontend.extract import TargetBlock
from repro.library.builtin import (
    inhouse_library,
    ipp_library,
    linux_math_library,
    reference_library,
)
from repro.library.catalog import Library
from repro.platform.badge4 import Badge4
from repro.platform.registry import DEFAULT_REGISTRY, ProcessorRegistry
from repro.workload import (
    DEFAULT_WORKLOAD,
    DEFAULT_WORKLOAD_REGISTRY,
    WorkloadEntry,
    WorkloadRegistry,
)

__all__ = ["ResourceCatalog"]

_BUILDERS = {
    "REF": reference_library,
    "LM": linux_math_library,
    "IH": inhouse_library,
    "IPP": ipp_library,
}


class ResourceCatalog:
    """Named resources one session serves, memoized per instance.

    ``blocks`` (when given) pre-seeds the *default workload's* block
    set — the test/service injection seam — while other workloads
    still resolve through the workload registry on first use.
    """

    def __init__(
        self,
        blocks: "dict[str, TargetBlock] | None" = None,
        registry: "ProcessorRegistry | None" = None,
        workloads: "WorkloadRegistry | None" = None,
        default_workload: "str | None" = None,
    ):
        self._registry = registry if registry is not None else DEFAULT_REGISTRY
        self._workloads = (
            workloads if workloads is not None else DEFAULT_WORKLOAD_REGISTRY
        )
        self._default_workload = (
            default_workload if default_workload is not None else DEFAULT_WORKLOAD
        )
        self._blocks: dict[str, dict[str, TargetBlock]] = {}
        if blocks is not None:
            self._blocks[self._default_workload] = dict(blocks)
        self._libraries: dict[tuple, Library] = {}
        self._platforms: dict[str, Badge4] = {}

    # -- workloads ------------------------------------------------------
    def workload(self, key: "str | None" = None) -> WorkloadEntry:
        """The workload entry for ``key`` (``None`` = the default)."""
        key = key if key is not None else self._default_workload
        if key not in self._workloads:
            raise ServiceError(
                404, f"unknown workload {key!r}; known: {self._workloads.names()}"
            )
        return self._workloads.get(key)

    def workload_keys(self) -> tuple:
        """Registered workload keys, in registration order."""
        return tuple(self._workloads.names())

    # -- blocks ---------------------------------------------------------
    def blocks(self, workload: "str | None" = None) -> "dict[str, TargetBlock]":
        """One workload's named blocks (extracted lazily on first use).

        ``workload=None`` means the catalog's default workload, which
        keeps every pre-registry call site — service warm-up included —
        on the MP3 set it always served.
        """
        key = workload if workload is not None else self._default_workload
        cached = self._blocks.get(key)
        if cached is None:
            cached = self.workload(key).blocks()
            self._blocks[key] = cached
        return cached

    def block(self, name: str, workload: "str | None" = None) -> TargetBlock:
        blocks = self.blocks(workload)
        if name not in blocks:
            key = workload if workload is not None else self._default_workload
            raise ServiceError(
                404,
                f"unknown block {name!r} in workload {key!r}; known: {sorted(blocks)}",
            )
        return blocks[name]

    # -- libraries ------------------------------------------------------
    def library(self, tags: tuple) -> Library:
        """The (memoized) union library of catalog ``tags``."""
        tags = tuple(tags)
        unknown = sorted(set(tags) - set(_BUILDERS))
        if unknown:
            raise ServiceError(
                404,
                f"unknown library tag(s) {unknown}; known: {list(LIBRARY_TAGS)}",
            )
        if len(set(tags)) != len(tags):
            raise ServiceError(400, f"duplicate library tag in {list(tags)}")
        library = self._libraries.get(tags)
        if library is None:
            library = Library.union(*(_BUILDERS[tag]() for tag in tags))
            self._libraries[tags] = library
        return library

    def library_combo(self, combo: str) -> Library:
        """A library from a ``"+"``-joined combo string (sweep form)."""
        return self.library(tuple(combo.split("+")))

    # -- platforms ------------------------------------------------------
    def platform(self, key: str) -> Badge4:
        """The (memoized) platform registered under ``key``."""
        if key not in self._registry:
            raise ServiceError(
                404, f"unknown platform {key!r}; known: {self._registry.names()}"
            )
        platform = self._platforms.get(key)
        if platform is None:
            platform = self._registry.platform(key)
            self._platforms[key] = platform
        return platform

    def platform_keys(self, keys) -> tuple:
        """Validated registry keys (``None`` = every registered one)."""
        if keys is None:
            return tuple(self._registry.names())
        for key in keys:
            self.platform(key)
        return tuple(keys)
