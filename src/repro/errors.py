"""Exception hierarchy shared across the ``repro`` package.

Every subsystem raises exceptions derived from :class:`ReproError` so
callers can distinguish library failures from programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SymbolicError(ReproError):
    """Error inside the symbolic algebra engine (``repro.symalg``)."""


class DivisionError(SymbolicError):
    """Invalid polynomial division request (e.g. division by zero)."""


class GroebnerExplosion(SymbolicError):
    """Buchberger's algorithm exceeded its configured work limits.

    Groebner basis computation is worst-case doubly exponential; the
    engine bounds basis size and pair count and raises this instead of
    running away.  Callers (the mapping search) treat it as "this side
    relation set is too hard" and prune the branch.
    """


class FrontendError(ReproError):
    """Target-code identification failed (unsupported construct, etc.)."""


class LibraryError(ReproError):
    """Library characterization / catalog errors."""


class MappingError(ReproError):
    """Library-mapping search errors."""


class PlatformError(ReproError):
    """Platform (cost/energy model) configuration errors."""


class WorkloadError(ReproError):
    """Workload registry / catalog errors (unknown key, bad declaration)."""


class FixedPointError(ReproError):
    """Fixed-point format violations (overflow in saturating mode, etc.)."""


class ServiceError(ReproError):
    """A mapping-service request that cannot be served.

    Carries the HTTP status the service front-end should answer with
    (400 for malformed requests, 404 for unknown resources, 429/503
    for shed load, ...), so validation code raises one exception type
    and the transport layer owns the wire encoding.

    ``retry_after`` (seconds) rides along on retryable refusals and
    becomes the response's ``Retry-After`` header.  ``attempts`` is
    filled by the *client* when it exhausts its retry budget: one
    human-readable string per attempt (``"connection refused"``,
    ``"503 after 0.05s"``, ...), so the terminal error tells the whole
    story instead of just the last symptom.
    """

    def __init__(self, status: int, message: str, *,
                 retry_after: "float | None" = None, attempts=None):
        super().__init__(message)
        self.status = status
        self.message = message
        self.retry_after = retry_after
        self.attempts = tuple(attempts or ())


class CodegenError(ReproError):
    """Fixed-point code generation errors (``repro.codegen``): an
    expression the lowerer cannot handle, an unsupported numeric
    format, or an overflow policy emitted code cannot honor."""


class Mp3Error(ReproError):
    """MP3 decoder substrate errors (bad bitstream, bad frame, ...)."""


class ComplianceError(Mp3Error):
    """Raised when a decoder variant fails the conformance check."""
