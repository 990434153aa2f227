"""Deterministic fault injection: reproducible chaos for every tier.

The resilience policies this package carries (circuit breaker, admission
control, retries, graceful degradation) are only trustworthy if their
failure paths are *exercised* — and real failures (a corrupt sqlite
file, a crashed fleet worker, a stalled dispatch) are rare and flaky to
stage.  This module turns them into first-class test inputs: code that
can fail declares a **named fault site** and calls :func:`inject` at
it; a chaos test activates a :class:`FaultPlan` describing which sites
fail, how, and how often — seeded, so a failing chaos run replays
bit-for-bit from its seed.

The compiled-in sites (one per failure domain the resilience layer
defends):

======================  ================================================
``disk_cache.read``     a :meth:`~repro.mapping.cache.DiskCache.get`
                        about to touch sqlite
``disk_cache.write``    a :meth:`~repro.mapping.cache.DiskCache.put`
                        about to touch sqlite
``service.dispatch``    the service's heavy work, on its executor thread
``service.accept``      a service connection handler, before reading
``fleet.worker``        a fleet worker accepting a public connection;
                        any raise here kills the worker process
                        (``os._exit``), exercising crashed-worker
                        respawn
======================  ================================================

With no plan active, :func:`inject` is one module-global read and a
``None`` check — the warm path pays nothing measurable (benchmarked in
``benchmarks/bench_resilience.py``).

>>> plan = FaultPlan([FaultRule("service.dispatch", error=RuntimeError,
...                             times=1)], seed=7)
>>> with plan.activate():
...     try:
...         inject("service.dispatch")
...     except RuntimeError:
...         print("fault fired")
...     inject("service.dispatch")      # times=1: second hit passes
fault fired
>>> plan.counts()["fired"]["service.dispatch"]
1
"""

from __future__ import annotations

import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = ["FAULT_SITES", "FaultRule", "FaultPlan", "inject", "active_plan"]

#: The compiled-in fault sites.  A rule naming any other site is a bug
#: in the plan (rejected at construction), and so is an ``inject`` call
#: from an unregistered site (rejected at fire time) — chaos coverage
#: must not silently rot when code moves.
FAULT_SITES = (
    "disk_cache.read",
    "disk_cache.write",
    "service.dispatch",
    "service.accept",
    "fleet.worker",
)


@dataclass(frozen=True)
class FaultRule:
    """One site's failure behaviour inside a :class:`FaultPlan`.

    Parameters
    ----------
    site:
        The fault site this rule arms (one of :data:`FAULT_SITES`).
    error:
        What to raise when the rule fires: an exception class, a
        zero-argument factory, or a pre-built instance.  ``None`` means
        the rule only delays.
    delay:
        Seconds to sleep when the rule fires, before raising (if
        ``error`` is also set).  This is how slow-dispatch faults are
        staged.
    probability:
        Chance a hit fires, drawn from the plan's seeded stream —
        deterministic for a given ``(seed, rule index)``.
    after:
        Let the first ``after`` hits pass untouched (arm the fault
        mid-run).
    times:
        Fire at most this many times (``None`` = unbounded); a
        transient fault is ``times=1``.
    """

    site: str
    error: object = None
    delay: float = 0.0
    probability: float = 1.0
    after: int = 0
    times: "int | None" = None

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; sites are {FAULT_SITES}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if self.error is None and not self.delay:
            raise ValueError("a rule must raise, delay, or both")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")


class FaultPlan:
    """A seeded set of :class:`FaultRule`\\ s, activatable as *the*
    process-wide plan.

    Determinism contract: two plans built from equal rules and the same
    seed fire identically for identical sequences of :func:`inject`
    calls — each rule draws from a private ``random.Random`` seeded
    with ``(seed, rule index)``, so sites cannot perturb each other's
    streams.  All bookkeeping is lock-protected: service worker
    threads and the event loop may hit sites concurrently.
    """

    def __init__(self, rules, *, seed: int = 0):
        self.rules = tuple(rules)
        self.seed = seed
        self._lock = threading.Lock()
        self._rngs = [
            random.Random(f"{seed}/{index}") for index in range(len(self.rules))
        ]
        self._rule_hits = [0] * len(self.rules)
        self._rule_fired = [0] * len(self.rules)
        self._hits = dict.fromkeys(FAULT_SITES, 0)
        self._fired = dict.fromkeys(FAULT_SITES, 0)

    def fire(self, site: str) -> None:
        """One hit on ``site``: sleep and/or raise per the first armed
        rule that fires; silently pass otherwise."""
        if site not in self._hits:
            raise ValueError(
                f"unknown fault site {site!r}; sites are {FAULT_SITES}"
            )
        delay, error = 0.0, None
        with self._lock:
            self._hits[site] += 1
            for index, rule in enumerate(self.rules):
                if rule.site != site:
                    continue
                self._rule_hits[index] += 1
                if self._rule_hits[index] <= rule.after:
                    continue
                if rule.times is not None and self._rule_fired[index] >= rule.times:
                    continue
                if (
                    rule.probability < 1.0
                    and self._rngs[index].random() >= rule.probability
                ):
                    continue
                self._rule_fired[index] += 1
                self._fired[site] += 1
                delay, error = rule.delay, rule.error
                break  # first firing rule wins; later rules stay armed
        if delay:
            time.sleep(delay)  # outside the lock: a slow fault must not
            # serialize every other site behind it
        if error is not None:
            if isinstance(error, BaseException):
                raise error
            raise error()

    def counts(self) -> dict:
        """``{"hits": {site: n}, "fired": {site: n}}`` so far."""
        with self._lock:
            return {"hits": dict(self._hits), "fired": dict(self._fired)}

    @contextmanager
    def activate(self):
        """Install this plan process-wide for the ``with`` body.

        Nestable: the previous plan (usually ``None``) is restored on
        exit, so chaos fixtures compose without leaking state into
        later tests.
        """
        global _ACTIVE
        with _ACTIVE_LOCK:
            previous, _ACTIVE = _ACTIVE, self
        try:
            yield self
        finally:
            with _ACTIVE_LOCK:
                _ACTIVE = previous


_ACTIVE: "FaultPlan | None" = None
_ACTIVE_LOCK = threading.Lock()


def active_plan() -> "FaultPlan | None":
    """The currently installed plan, or ``None`` (the normal state)."""
    return _ACTIVE


def inject(site: str) -> None:
    """Fire ``site`` against the active plan; a no-op without one.

    This is the hook production code compiles in.  The inactive path is
    deliberately just a global load and a ``None`` test — cheap enough
    for the warmest loops the mapping layer has.
    """
    plan = _ACTIVE
    if plan is not None:
        plan.fire(site)
