"""Typed requests and results: the one wire format every surface shares.

The canonical JSON shapes the HTTP service serves are *derived from*
these dataclasses, not the other way around: ``MapResult.to_json()``
is byte-for-byte the ``/v1/map`` response body, ``ParetoResult`` the
``/v1/pareto`` body, and a sweep's canonical form remains
:meth:`~repro.mapping.flow.SweepReport.to_json`.  The CLI prints the
same bytes.  One source of truth means session, CLI and
service answers to the same request can be compared with ``==`` on
bytes — and the test suite does exactly that.

* **Canonical JSON** — :func:`canonical_json` renders sorted keys, no
  whitespace, ``repr``-exact floats, NaN/Infinity rejected.
* **Request dataclasses** — :class:`MapRequest` and
  :class:`SweepRequest` parse and validate JSON payloads, raising
  :class:`~repro.errors.ServiceError` with the HTTP status a transport
  should answer (400 malformed, 404 unknown resource).
* **Result dataclasses** — :class:`MapResult` and :class:`ParetoResult`
  pair a request with its mapping outcome and render the wire payload.
  Deliberately free of timings and cache statistics, so cold, warm and
  coalesced answers to the same request are byte-identical.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from repro.errors import ServiceError
from repro.mapping.match import BlockMatch
from repro.mapping.pareto import BlockParetoResult
from repro.platform.badge4 import Badge4
from repro.workload.registry import DEFAULT_WORKLOAD

__all__ = [
    "LIBRARY_TAGS",
    "DEFAULT_LIBRARY",
    "DEFAULT_PLATFORM",
    "DEFAULT_WORKLOAD",
    "ACCURACY_BUDGET_MESSAGE",
    "TOLERANCE_MESSAGE",
    "checked_accuracy_budget",
    "checked_tolerance",
    "canonical_json",
    "MapRequest",
    "SweepRequest",
    "MapResult",
    "ParetoResult",
    "VerifyResult",
]

#: Library tags a request may combine, in canonical order.
LIBRARY_TAGS = ("REF", "LM", "IH", "IPP")

#: The default mapping ladder: everything the paper's final pass uses.
DEFAULT_LIBRARY = ("REF", "LM", "IH", "IPP")

#: The paper's processor, and the registry's first entry.
DEFAULT_PLATFORM = "SA-1110"

#: The one wording for a negative accuracy budget, shared verbatim by
#: the service (HTTP 400), the CLI (argparse error) and the session
#: (``ServiceError``; ``ValueError`` from ``SessionConfig``) so every
#: surface refuses identically instead of silently returning an empty
#: front.
ACCURACY_BUDGET_MESSAGE = "field 'accuracy_budget' must be a nonnegative number"

#: The one wording for a bad coefficient-match tolerance, shared the
#: same way.  A NaN or infinite tolerance accepts every coefficient, so
#: the cheapest element of any arity would "match" every block.
TOLERANCE_MESSAGE = "field 'tolerance' must be a finite nonnegative number"


def checked_tolerance(value: float) -> float:
    """``value`` if it is finite and >= 0, else a 400 — the one tolerance
    rule the service, the CLI and the session all apply."""
    if not (math.isfinite(value) and value >= 0):
        raise ServiceError(400, TOLERANCE_MESSAGE)
    return value


def checked_accuracy_budget(value: float) -> float:
    """``value`` if it is >= 0 (NaN fails), else a 400 — the one budget
    rule, shared the same way."""
    if not value >= 0:
        raise ServiceError(400, ACCURACY_BUDGET_MESSAGE)
    return value


def canonical_json(payload) -> bytes:
    """The one JSON encoding responses use: sorted, compact, ASCII.

    ``allow_nan=False`` turns an accidental NaN/Infinity in a payload
    into a loud ``ValueError`` instead of invalid JSON on the wire —
    canonical responses must parse everywhere.
    """
    return json.dumps(
        payload,
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=True,
        allow_nan=False,
    ).encode("ascii")


def _require_object(payload) -> dict:
    if not isinstance(payload, dict):
        raise ServiceError(400, "request body must be a JSON object")
    return payload


def _reject_unknown(payload: dict, known: tuple) -> None:
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ServiceError(400, f"unknown request field(s): {unknown}")


def _string(payload: dict, key: str, default=None) -> str:
    value = payload.get(key, default)
    if not isinstance(value, str) or not value:
        raise ServiceError(400, f"field {key!r} must be a non-empty string")
    return value


def _number(payload: dict, key: str, default: float) -> float:
    value = payload.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ServiceError(400, f"field {key!r} must be a number")
    return float(value)


def _string_tuple(payload: dict, key: str, default) -> tuple:
    value = payload.get(key, default)
    if value is default:
        return default
    if (
        not isinstance(value, (list, tuple))
        or not value
        or not all(isinstance(v, str) and v for v in value)
    ):
        raise ServiceError(400, f"field {key!r} must be a non-empty list of strings")
    duplicates = sorted({v for v in value if list(value).count(v) > 1})
    if duplicates:
        # Every list field names a set of resources; a duplicate would
        # either conflate report cells (sweep labels) or silently
        # collapse — reject it here, before any heavy work runs,
        # instead of letting the registry raise deep in a worker.
        raise ServiceError(400, f"field {key!r} has duplicate entries: {duplicates}")
    return tuple(value)


@dataclass(frozen=True)
class MapRequest:
    """One block-mapping request (``/v1/map`` / ``/v1/pareto``), validated.

    ``library`` is a tuple of catalog tags (subset of
    :data:`LIBRARY_TAGS`) combined with
    :meth:`~repro.library.catalog.Library.union`; ``platform`` a
    processor-registry key; ``workload`` the workload-registry key the
    block name resolves in (default ``"mp3"``, so pre-registry clients
    keep their wire format).  The tolerance/accuracy knobs mirror
    :meth:`~repro.api.MappingSession.map` exactly, so a service
    request, a session call, and a batch submission share cache lines.
    """

    block: str
    library: tuple = DEFAULT_LIBRARY
    platform: str = DEFAULT_PLATFORM
    tolerance: float = 1e-6
    accuracy_budget: float = math.inf
    workload: str = DEFAULT_WORKLOAD

    _FIELDS = (
        "block",
        "library",
        "platform",
        "tolerance",
        "accuracy_budget",
        "workload",
    )

    @classmethod
    def from_payload(cls, payload) -> "MapRequest":
        payload = _require_object(payload)
        _reject_unknown(payload, cls._FIELDS)
        return cls(
            block=_string(payload, "block"),
            library=_string_tuple(payload, "library", DEFAULT_LIBRARY),
            platform=_string(payload, "platform", DEFAULT_PLATFORM),
            tolerance=checked_tolerance(_number(payload, "tolerance", 1e-6)),
            accuracy_budget=checked_accuracy_budget(
                _number(payload, "accuracy_budget", math.inf)
            ),
            workload=_string(payload, "workload", DEFAULT_WORKLOAD),
        )

    def to_payload(self) -> dict:
        """The JSON form a client sends (defaults elided)."""
        payload: dict = {"block": self.block}
        if self.library != DEFAULT_LIBRARY:
            payload["library"] = list(self.library)
        if self.platform != DEFAULT_PLATFORM:
            payload["platform"] = self.platform
        if self.tolerance != 1e-6:
            payload["tolerance"] = self.tolerance
        if not math.isinf(self.accuracy_budget):
            payload["accuracy_budget"] = self.accuracy_budget
        if self.workload != DEFAULT_WORKLOAD:
            payload["workload"] = self.workload
        return payload


@dataclass(frozen=True)
class SweepRequest:
    """One multi-platform sweep request (``/v1/sweep``), validated.

    ``platforms``/``blocks`` default to ``None`` — "everything the
    catalog knows": all registered processors, every block of the
    selected ``workload`` (default ``"mp3"``).  ``libraries`` holds
    ``"+"``-joined tag combos (e.g. ``"REF+LM+IH"``), defaulting to
    the paper's ladder.
    """

    platforms: "tuple | None" = None
    libraries: "tuple | None" = None
    blocks: "tuple | None" = None
    tolerance: float = 1e-6
    accuracy_budget: float = math.inf
    workload: str = DEFAULT_WORKLOAD

    _FIELDS = (
        "platforms",
        "libraries",
        "blocks",
        "tolerance",
        "accuracy_budget",
        "workload",
    )

    @classmethod
    def from_payload(cls, payload) -> "SweepRequest":
        payload = _require_object(payload)
        _reject_unknown(payload, cls._FIELDS)
        return cls(
            platforms=_string_tuple(payload, "platforms", None),
            libraries=_string_tuple(payload, "libraries", None),
            blocks=_string_tuple(payload, "blocks", None),
            tolerance=checked_tolerance(_number(payload, "tolerance", 1e-6)),
            accuracy_budget=checked_accuracy_budget(
                _number(payload, "accuracy_budget", math.inf)
            ),
            workload=_string(payload, "workload", DEFAULT_WORKLOAD),
        )

    def to_payload(self) -> dict:
        payload: dict = {}
        if self.platforms is not None:
            payload["platforms"] = list(self.platforms)
        if self.libraries is not None:
            payload["libraries"] = list(self.libraries)
        if self.blocks is not None:
            payload["blocks"] = list(self.blocks)
        if self.tolerance != 1e-6:
            payload["tolerance"] = self.tolerance
        if not math.isinf(self.accuracy_budget):
            payload["accuracy_budget"] = self.accuracy_budget
        if self.workload != DEFAULT_WORKLOAD:
            payload["workload"] = self.workload
        return payload


@dataclass(frozen=True)
class MapResult:
    """A scalar block-mapping outcome, bound to its request.

    ``platform`` is the live platform object the matches were priced
    on, kept so :meth:`to_payload` can render per-match cycles without
    re-resolving anything.  ``to_json()`` is the service's ``/v1/map``
    wire format, byte for byte.
    """

    request: MapRequest
    platform: Badge4
    winner: BlockMatch | None
    matches: tuple[BlockMatch, ...]

    @property
    def mapped(self) -> bool:
        """True iff some adequate element covers the block."""
        return self.winner is not None

    @property
    def winner_name(self) -> str | None:
        """The winning element's name, or ``None`` when unmapped."""
        return self.winner.element.name if self.winner is not None else None

    def to_payload(self) -> dict:
        """The wire payload: scalar winner plus every match, priced."""
        cycles = self.platform.cost_model.cycles
        return {
            "block": self.request.block,
            "platform": self.request.platform,
            "processor": self.platform.processor.name,
            "library": "+".join(self.request.library),
            "workload": self.request.workload,
            "mapped": self.mapped,
            "winner": self.winner_name,
            "matches": [
                {
                    "element": m.element.name,
                    "element_library": m.element.library,
                    "cycles": cycles(m.element.cost),
                    "accuracy": m.element.accuracy,
                }
                for m in self.matches
            ],
        }

    def to_json(self) -> bytes:
        """Canonical bytes — identical to the ``/v1/map`` response body."""
        return canonical_json(self.to_payload())


@dataclass(frozen=True)
class ParetoResult:
    """A multi-objective block-mapping outcome, bound to its request.

    Wraps the derived :class:`~repro.mapping.pareto.BlockParetoResult`
    (fronts are computed fresh per call — the derived-front contract);
    ``to_json()`` is the service's ``/v1/pareto`` wire format.
    """

    request: MapRequest
    result: BlockParetoResult

    @property
    def front(self):
        """The non-dominated (cycles, energy, accuracy) points."""
        return self.result.front

    @property
    def cycles_winner(self) -> BlockMatch | None:
        """The scalar projection: ``MapResult.winner`` for this block."""
        return self.result.cycles_winner

    @property
    def winner_name(self) -> str | None:
        winner = self.result.cycles_winner
        return winner.element.name if winner is not None else None

    def to_payload(self) -> dict:
        """The wire payload: the front of the shared cached match list.

        ``measured_accuracy``/``snr_db`` appear on a front entry only
        when the underlying point carries a measurement (sessions pass
        ``measure=True``), so unmeasured responses stay byte-identical
        to the pre-codegen wire format.
        """
        front = []
        for p in self.front:
            entry = {
                "element": p.element_name,
                "element_library": p.library,
                "cycles": p.objectives.cycles,
                "energy_j": p.objectives.energy_j,
                "accuracy": p.objectives.accuracy,
            }
            if p.objectives.measured_accuracy is not None:
                entry["measured_accuracy"] = p.objectives.measured_accuracy
            if p.objectives.snr_db is not None:
                entry["snr_db"] = p.objectives.snr_db
            front.append(entry)
        return {
            "block": self.request.block,
            "platform": self.request.platform,
            "processor": self.result.platform_name,
            "library": "+".join(self.request.library),
            "workload": self.request.workload,
            "winner": self.winner_name,
            "front": front,
        }

    def to_json(self) -> bytes:
        """Canonical bytes — identical to the ``/v1/pareto`` response body."""
        return canonical_json(self.to_payload())


@dataclass(frozen=True)
class VerifyResult:
    """A measured-accuracy outcome for one mapped block.

    Pairs the request with the scalar winner's
    :class:`~repro.codegen.verify.BlockMeasurement` (or ``None`` for
    an unmapped block).  ``to_json()`` is the service's ``/v1/verify``
    wire format, byte for byte — same contract as the other results.
    """

    request: MapRequest
    platform: Badge4
    measurement: "object | None"

    @property
    def mapped(self) -> bool:
        """True iff some adequate element covers the block."""
        return self.measurement is not None

    def to_payload(self) -> dict:
        payload = {
            "block": self.request.block,
            "platform": self.request.platform,
            "processor": self.platform.processor.name,
            "library": "+".join(self.request.library),
            "workload": self.request.workload,
            "mapped": self.mapped,
        }
        if self.measurement is not None:
            payload.update(self.measurement.to_payload())
        else:
            payload["element"] = None
        return payload

    def to_json(self) -> bytes:
        """Canonical bytes — identical to the ``/v1/verify`` response body."""
        return canonical_json(self.to_payload())
