"""``repro.service`` — mapping-as-a-service.

The long-running front-end over the memoized mapping flow: a
stdlib-only asyncio HTTP/JSON server (`python -m repro.service`)
exposing scalar mapping, Pareto fronts and the multi-platform sweep,
with single-flight request coalescing and write-through into the
LRU/disk cache tiers.  ``--workers N`` scales it out as a pre-forked
fleet behind one port (:mod:`repro.service.fleet`: any worker serves
any request over one shared disk tier, fleet-wide ``/metrics``,
rolling restarts).  See
:mod:`repro.service.server` for the request lifecycle and
``docs/architecture.md`` ("Service layer" / "Fleet front") for how it
sits on the batch engine.  The wire types (requests, results,
:func:`~repro.api.canonical_json`) are :mod:`repro.api`'s; import them
from there.
"""

from repro.errors import ServiceError
from repro.service.client import ServiceClient
from repro.service.fleet import FleetSupervisor, FleetWorker
from repro.service.server import DEFAULT_PORT, MappingService, ServiceThread
from repro.service.singleflight import SingleFlight

__all__ = [
    "MappingService", "ServiceThread", "ServiceClient", "SingleFlight",
    "FleetSupervisor", "FleetWorker", "ServiceError", "DEFAULT_PORT",
]
