"""Typed, immutable session configuration.

One frozen dataclass holds every cross-cutting setting, with a single
precedence rule applied once, at construction:

    explicit ``SessionConfig`` field  >  environment  >  built-in default

``SessionConfig(...)`` is fully explicit: the environment is ignored.
``SessionConfig.from_env(...)`` reads the environment first and lets
keyword overrides win; it is what :class:`~repro.api.MappingSession`
builds when no config is passed, and the only code that reads the
``REPRO_*`` variables.  The full precedence table lives in
``docs/architecture.md`` ("Public API & sessions").

Recognized environment variables:

==================  ====================================================
``REPRO_CACHE_DIR``  directory of the persistent disk cache tier
``REPRO_NO_CACHE``   any non-empty value disables the disk tier
``REPRO_WORKERS``    default worker-process count for batch fan-out
==================  ====================================================
"""

from __future__ import annotations

import math
import os
from concurrent.futures import Executor
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.api.types import DEFAULT_LIBRARY, DEFAULT_PLATFORM
from repro.platform.registry import DEFAULT_REGISTRY, ProcessorRegistry
from repro.workload.registry import (
    DEFAULT_WORKLOAD,
    DEFAULT_WORKLOAD_REGISTRY,
    WorkloadRegistry,
)

__all__ = ["SessionConfig"]


@dataclass(frozen=True)
class SessionConfig:
    """Everything cross-cutting a :class:`~repro.api.MappingSession` owns.

    Immutable by design: a session's behaviour is fixed at construction
    and cannot drift under it mid-request.  Derive variants with
    :meth:`with_options` (or :func:`dataclasses.replace`).

    ``cache_dir``/``disk_cache`` govern the persistent tier;
    ``decompose_lru``/``map_block_lru`` size the session's in-memory
    caches; ``workers``/``executor`` set batch fan-out
    (``executor`` wins when both are set — see
    :func:`~repro.mapping.batch.run_batch`); ``registry`` is the
    platform catalog requests resolve against and ``workloads`` the
    workload catalog block names resolve in; ``library``/
    ``platform``/``workload``/``tolerance``/``accuracy_budget`` are
    the request defaults ``session.map()`` and friends fall back to.
    """

    cache_dir: "str | os.PathLike[str] | None" = None
    disk_cache: bool = True
    decompose_lru: int = 512
    map_block_lru: int = 256
    workers: int | None = None
    executor: Executor | None = None
    registry: ProcessorRegistry = field(default=DEFAULT_REGISTRY, repr=False)
    workloads: WorkloadRegistry = field(default=DEFAULT_WORKLOAD_REGISTRY, repr=False)
    library: tuple[str, ...] = DEFAULT_LIBRARY
    platform: str = DEFAULT_PLATFORM
    workload: str = DEFAULT_WORKLOAD
    tolerance: float = 1e-6
    accuracy_budget: float = math.inf

    def __post_init__(self) -> None:
        if self.decompose_lru <= 0 or self.map_block_lru <= 0:
            raise ValueError(
                f"LRU sizes must be positive, got decompose_lru="
                f"{self.decompose_lru}, map_block_lru={self.map_block_lru}"
            )
        if self.workers is not None and self.workers < 0:
            raise ValueError(f"workers must be >= 0 or None, got {self.workers}")
        if not self.library:
            raise ValueError("library must name at least one catalog tag")
        if not self.workload:
            raise ValueError("workload must be a non-empty registry key")
        if not (self.tolerance > 0):
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")
        # Tags arrive as any iterable of strings; store canonically.
        object.__setattr__(self, "library", tuple(self.library))

    @classmethod
    def from_env(
        cls, environ: "Mapping[str, str] | None" = None, **overrides
    ) -> "SessionConfig":
        """A config resolved as *explicit overrides > environment > defaults*.

        ``environ`` defaults to ``os.environ`` (injectable for tests).
        ``REPRO_NO_CACHE`` beats ``REPRO_CACHE_DIR`` within the
        environment layer; an explicit ``disk_cache=True`` override
        beats both.  An override replaces its field even when its value
        is ``None`` — ``from_env(cache_dir=None)`` disables the
        environment's directory — so callers pass ``cache_dir`` only
        when one was given.
        """
        env = os.environ if environ is None else environ
        values: dict = {}
        cache_dir = env.get("REPRO_CACHE_DIR")
        if cache_dir:
            values["cache_dir"] = cache_dir
        if env.get("REPRO_NO_CACHE"):
            values["disk_cache"] = False
        workers = env.get("REPRO_WORKERS")
        if workers:
            try:
                values["workers"] = int(workers)
            except ValueError:
                raise ValueError(
                    f"REPRO_WORKERS must be an integer, got {workers!r}"
                ) from None
        values.update(overrides)
        return cls(**values)

    def with_options(self, **overrides) -> "SessionConfig":
        """A copy with ``overrides`` applied (the config itself is frozen)."""
        return replace(self, **overrides)

    @property
    def effective_cache_dir(self) -> "str | os.PathLike[str] | None":
        """The disk-tier directory after the off-switch: ``None`` when
        persistence is disabled or no directory is configured."""
        return self.cache_dir if self.disk_cache else None
