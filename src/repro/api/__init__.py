"""``repro.api`` — the public session facade.

One typed entry point for the whole methodology: build a
:class:`MappingSession` (optionally from an explicit, immutable
:class:`SessionConfig`) and call ``map`` / ``pareto`` / ``batch`` /
``sweep`` / ``flow`` on it.  Sessions own all cross-cutting state —
cache tiers, platform registry, request defaults — so two sessions
with different cache directories coexist in one process, and every
frontend (library use, the ``python -m repro`` CLI, the
batch engine, the HTTP service) shares this one surface.

The wire format is defined here too: :class:`MapResult` /
:class:`ParetoResult` render the exact canonical JSON the HTTP service
serves, so answers from any surface can be compared byte-for-byte.

>>> from repro.api import MappingSession
>>> session = MappingSession()
>>> "SA-1110" in session.platforms()
True
"""

from repro.api.catalog import ResourceCatalog
from repro.api.config import SessionConfig
from repro.api.session import MappingSession
from repro.api.types import (
    DEFAULT_LIBRARY,
    DEFAULT_PLATFORM,
    DEFAULT_WORKLOAD,
    LIBRARY_TAGS,
    MapRequest,
    MapResult,
    ParetoResult,
    SweepRequest,
    VerifyResult,
    canonical_json,
)
from repro.mapping.batch import BatchItem, BatchReport
from repro.mapping.cache import CacheTiers
from repro.mapping.flow import SweepReport

__all__ = [
    "MappingSession",
    "SessionConfig",
    "MapRequest",
    "MapResult",
    "ParetoResult",
    "SweepRequest",
    "VerifyResult",
    "SweepReport",
    "ResourceCatalog",
    "CacheTiers",
    "BatchItem",
    "BatchReport",
    "canonical_json",
    "LIBRARY_TAGS",
    "DEFAULT_LIBRARY",
    "DEFAULT_PLATFORM",
    "DEFAULT_WORKLOAD",
]
