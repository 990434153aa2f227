"""Request-body parsing for the mapping service.

The wire format itself lives in :mod:`repro.api.types` —
:func:`~repro.api.canonical_json`, the request dataclasses
(:class:`~repro.api.MapRequest`, :class:`~repro.api.SweepRequest`) and
the result types whose ``to_payload()`` is each endpoint's body — and
the named-resource catalog in :mod:`repro.api.catalog`.  The server
and the client import those from :mod:`repro.api` directly, so a
service response and a ``session.map(...).to_json()`` can never drift
apart.  What is left here is the HTTP-facing step before validation:
turning body bytes into JSON, with every failure answered 400.
"""

from __future__ import annotations

import json

from repro.errors import ServiceError

__all__ = ["parse_json_body"]


def parse_json_body(body: bytes):
    """Decode a request body, mapping every failure to a 400."""
    if not body:
        raise ServiceError(400, "request body must be a JSON object")
    try:
        return json.loads(body)
    except (ValueError, UnicodeDecodeError) as exc:
        raise ServiceError(400, f"malformed JSON body: {exc}") from None
