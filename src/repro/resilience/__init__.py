"""``repro.resilience`` — failure engineering for the mapping system.

The paper's methodology is a long-running compiler service in spirit:
minutes-scale symbolic work per cold block, milliseconds warm.  That
cold/warm asymmetry is exactly where overload and partial failure must
degrade gracefully — a corrupt cache tier, a crashed fleet worker or a
queue pile-up should cost throughput, never correctness or hung
connections.  This package holds the shared mechanisms; the policies
live where the failures do:

* :mod:`repro.resilience.faults` — the deterministic fault-injection
  registry (:class:`FaultPlan` / :func:`inject` at named sites), so
  every failure path below has a reproducible chaos test.
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker`, wrapped
  around the sqlite disk tier by :class:`~repro.mapping.cache.DiskCache`.
* :mod:`repro.resilience.retry` — :class:`RetryPolicy`, driving
  :class:`~repro.service.client.ServiceClient`'s capped, jittered
  backoff.
* :mod:`repro.resilience.admission` — :class:`AdmissionController`,
  the service front-end's bounded in-flight gate (429 + ``Retry-After``
  past ``max_inflight``).

Stdlib-only and dependency-free within the repo: every other layer may
import it, it imports none of them.
"""

from repro.resilience.admission import AdmissionController
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.faults import (
    FAULT_SITES,
    FaultPlan,
    FaultRule,
    active_plan,
    inject,
)
from repro.resilience.retry import DEFAULT_RETRY_POLICY, RetryPolicy

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "DEFAULT_RETRY_POLICY",
    "FAULT_SITES",
    "FaultPlan",
    "FaultRule",
    "RetryPolicy",
    "active_plan",
    "inject",
]
