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
==================  ====================================================
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from typing import Mapping

from repro.api.types import (
    DEFAULT_LIBRARY,
    DEFAULT_PLATFORM,
    checked_accuracy_budget,
    checked_tolerance,
)
from repro.errors import ServiceError
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

    ``cache_dir``/``disk_cache`` govern the persistent tier (the
    in-memory LRUs have fixed sizes, see
    :class:`~repro.mapping.cache.CacheTiers`); ``registry`` is the
    platform catalog requests resolve against and ``workloads`` the
    workload catalog block names resolve in;
    ``library``/``platform``/``workload``/``tolerance``/
    ``accuracy_budget`` are the request defaults ``session.map()`` and
    friends fall back to; the wire's rule applies to the last two
    (tolerance finite and >= 0, budget >= 0 and not NaN).  Batches run
    serially in-process; a service scales across cores with its fleet
    (``--workers N``), not through the session.
    """

    cache_dir: "str | os.PathLike[str] | None" = None
    disk_cache: bool = True
    registry: ProcessorRegistry = field(default=DEFAULT_REGISTRY, repr=False)
    workloads: WorkloadRegistry = field(default=DEFAULT_WORKLOAD_REGISTRY, repr=False)
    library: tuple[str, ...] = DEFAULT_LIBRARY
    platform: str = DEFAULT_PLATFORM
    workload: str = DEFAULT_WORKLOAD
    tolerance: float = 1e-6
    accuracy_budget: float = math.inf

    def __post_init__(self) -> None:
        if not self.library:
            raise ValueError("library must name at least one catalog tag")
        if not self.workload:
            raise ValueError("workload must be a non-empty registry key")
        try:
            checked_tolerance(self.tolerance)
            checked_accuracy_budget(self.accuracy_budget)
        except ServiceError as err:
            raise ValueError(err.message) from None
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
