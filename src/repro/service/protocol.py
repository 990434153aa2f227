"""Wire protocol of the mapping service, re-derived from ``repro.api``.

Since the session facade landed, the canonical wire format lives in
:mod:`repro.api.types` — :func:`canonical_json`, the request
dataclasses (:class:`~repro.api.MapRequest`,
:class:`~repro.api.SweepRequest`) and the result payload builders
(:meth:`~repro.api.MapResult.to_payload`,
:meth:`~repro.api.ParetoResult.to_payload`) — and the named-resource
catalog in :mod:`repro.api.catalog`.  This module is the HTTP-facing
remainder: body parsing plus thin response-shaping wrappers, all
delegating to the api layer so a service response and a
``session.map(...).to_json()`` can never drift apart.

The historic names (``ServiceCatalog``, ``map_response``, ...) are
re-exported unchanged for existing imports.

Canonical JSON is also what makes a fleet's answers independent of
the worker that served them: every worker renders the same value to
the same bytes, whether it computed the value or read it from the
shared disk tier (pinned by the fleet parity tests).
"""

from __future__ import annotations

import json

from repro.api.catalog import ResourceCatalog
from repro.api.types import (
    DEFAULT_LIBRARY,
    DEFAULT_PLATFORM,
    LIBRARY_TAGS,
    MapRequest,
    MapResult,
    ParetoResult,
    SweepRequest,
    canonical_json,
)
from repro.errors import ServiceError
from repro.platform.badge4 import Badge4

__all__ = [
    "canonical_json",
    "parse_json_body",
    "MapRequest",
    "SweepRequest",
    "ServiceCatalog",
    "map_response",
    "pareto_response",
    "sweep_response",
    "LIBRARY_TAGS",
    "DEFAULT_LIBRARY",
    "DEFAULT_PLATFORM",
]

#: The service's resource catalog is the session facade's, verbatim.
ServiceCatalog = ResourceCatalog


def parse_json_body(body: bytes):
    """Decode a request body, mapping every failure to a 400."""
    if not body:
        raise ServiceError(400, "request body must be a JSON object")
    try:
        return json.loads(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServiceError(400, f"malformed JSON body: {exc}") from None


# ----------------------------------------------------------------------
# Response payloads (dicts ready for canonical_json) — thin wrappers
# over the api result types, kept for the transport layer's call shape.
# ----------------------------------------------------------------------
def map_response(request: MapRequest, platform: Badge4, winner, matches) -> dict:
    """The ``/v1/map`` payload: exactly ``MapResult.to_payload()``."""
    result = MapResult(
        request=request, platform=platform, winner=winner, matches=tuple(matches)
    )
    return result.to_payload()


def pareto_response(request: MapRequest, result) -> dict:
    """The ``/v1/pareto`` payload: exactly ``ParetoResult.to_payload()``."""
    return ParetoResult(request=request, result=result).to_payload()


def sweep_response(report) -> dict:
    """The ``/v1/sweep`` payload: exactly the sweep's canonical JSON.

    Round-tripping through ``to_json()`` keeps the byte-parity
    guarantee :mod:`repro.mapping.flow` already proves for sweeps.
    """
    return json.loads(report.to_json())
