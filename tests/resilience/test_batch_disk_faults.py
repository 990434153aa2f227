"""The serial batch engine under disk-tier faults.

``run_batch`` is the only reader and writer of a session's tiers, so
the two disk fault sites (``disk_cache.read``/``disk_cache.write``) are
the faults a batch can meet.  A failing store must cost speed, never
answers: a read that fails is a miss and the item is computed, a write
that fails is dropped and the value still reaches the caller and the
LRU.
"""

import sqlite3

import pytest

from repro.mapping import BatchItem, CacheTiers, run_batch
from repro.platform import Badge4
from repro.resilience import FaultPlan, FaultRule
from repro.symalg import symbols

from .conftest import demo_library

x, y = symbols("x y")
PLATFORM = Badge4()


def _items():
    target = x + x ** 3 * y ** 2 - 2 * x * y ** 3
    return [
        BatchItem.for_target(x ** 2 - 2 * y, demo_library(), PLATFORM),
        BatchItem.for_target(target, demo_library(), PLATFORM),
        # A content duplicate of the first item: folded by the dedup.
        BatchItem.for_target(x ** 2 - 2 * y, demo_library(), PLATFORM),
    ]


def _names(report):
    return [r.best.element_names() for r in report.results]


def _fault(site, seed, **kwargs):
    return FaultPlan([FaultRule(site, error=lambda: sqlite3.OperationalError(
        "injected: disk I/O error"), **kwargs)], seed=seed)


@pytest.fixture(autouse=True)
def _cold(isolated_cache_env):
    yield


@pytest.fixture
def expected():
    """Fault-free answers, from private memory-only tiers."""
    return _names(run_batch(_items(), tiers=CacheTiers()))


@pytest.fixture
def warm_dir(tmp_path):
    """A cache directory already holding every item of :func:`_items`."""
    report = run_batch(_items(), tiers=CacheTiers(cache_dir=tmp_path))
    assert report.stats.computed == 2
    return tmp_path


class TestReadFaults:
    def test_failed_reads_recompute_every_item(self, warm_dir, expected,
                                               chaos_seed):
        tiers = CacheTiers(cache_dir=warm_dir)
        plan = _fault("disk_cache.read", chaos_seed)
        with plan.activate():
            report = run_batch(_items(), tiers=tiers)
        assert _names(report) == expected
        assert report.stats.disk_hits == 0
        assert report.stats.computed == report.stats.unique == 2
        # The recomputed values are written back over the stored rows.
        assert tiers.disk().writes == 2

    def test_one_failed_read_recomputes_only_that_item(self, warm_dir,
                                                       expected, chaos_seed):
        tiers = CacheTiers(cache_dir=warm_dir)
        plan = _fault("disk_cache.read", chaos_seed, times=1)
        with plan.activate():
            report = run_batch(_items(), tiers=tiers)
        assert _names(report) == expected
        assert report.stats.computed == 1
        assert report.stats.disk_hits == 1
        assert tiers.disk().breaker.state == "closed"


class TestWriteFaults:
    def test_failed_writes_still_answer_and_fill_the_lru(self, tmp_path,
                                                         expected,
                                                         chaos_seed):
        tiers = CacheTiers(cache_dir=tmp_path)
        plan = _fault("disk_cache.write", chaos_seed)
        with plan.activate():
            report = run_batch(_items(), tiers=tiers)
            assert _names(report) == expected
            assert tiers.disk().writes == 0
            again = run_batch(_items(), tiers=tiers)
        assert again.stats.memory_hits == again.stats.unique == 2
        assert again.stats.computed == 0

    def test_dropped_writes_leave_a_later_process_cold(self, tmp_path,
                                                       expected, chaos_seed):
        plan = _fault("disk_cache.write", chaos_seed)
        with plan.activate():
            run_batch(_items(), tiers=CacheTiers(cache_dir=tmp_path))
        later = run_batch(_items(), tiers=CacheTiers(cache_dir=tmp_path))
        assert _names(later) == expected
        assert later.stats.disk_hits == 0
        assert later.stats.computed == 2


class TestOpenBreaker:
    def test_open_breaker_skips_the_store_and_keeps_answering(
            self, warm_dir, expected, chaos_seed):
        """An open circuit neither reads nor writes sqlite: the fault
        sites see no traffic, and every item is computed."""
        tiers = CacheTiers(cache_dir=warm_dir)
        tiers.disk().breaker.trip()
        plan = _fault("disk_cache.read", chaos_seed)
        with plan.activate():
            report = run_batch(_items(), tiers=tiers)
        assert _names(report) == expected
        assert report.stats.computed == 2
        assert plan.counts()["hits"]["disk_cache.read"] == 0
        assert plan.counts()["hits"]["disk_cache.write"] == 0
        assert tiers.stats()["disk"]["broken"] is True


class TestSiteTraffic:
    def test_one_read_and_one_write_per_unique_cold_item(self, tmp_path,
                                                         chaos_seed):
        """Duplicates are folded before the store is touched: a cold
        batch reads each unique key once and writes each computed value
        once (a rule armed too late to fire just counts the traffic)."""
        plan = FaultPlan([
            FaultRule("disk_cache.read", error=RuntimeError, after=10 ** 6),
            FaultRule("disk_cache.write", error=RuntimeError, after=10 ** 6),
        ], seed=chaos_seed)
        with plan.activate():
            report = run_batch(_items(), tiers=CacheTiers(cache_dir=tmp_path))
        assert report.stats.submitted == 3
        hits = plan.counts()["hits"]
        assert hits["disk_cache.read"] == report.stats.unique == 2
        assert hits["disk_cache.write"] == report.stats.computed == 2
