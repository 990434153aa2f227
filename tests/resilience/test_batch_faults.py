"""The batch engine under worker faults: serial retry, pool respawn."""

import os

import pytest
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import repro.mapping.batch as batch_mod
from repro.mapping import BatchItem, CacheTiers, run_batch
from repro.platform import Badge4
from repro.resilience import FaultPlan, FaultRule
from repro.symalg import symbols

from .conftest import demo_library

x, y = symbols("x y")
PLATFORM = Badge4()


def _items():
    return [
        BatchItem.for_target(x ** 2 - 2 * y, demo_library(), PLATFORM),
        BatchItem.for_target(x + x ** 3 * y ** 2 - 2 * x * y ** 3,
                             demo_library(), PLATFORM),
    ]


@pytest.fixture(autouse=True)
def _cold(isolated_cache_env):
    yield


def _baseline():
    """Fault-free results to compare every chaos run against.  Its tiers
    are private, so the chaos run starts cold and must actually
    exercise the worker pool."""
    report = run_batch(_items(), workers=1, tiers=CacheTiers())
    return [r.best.element_names() for r in report.results]


class TestWorkerJobFaults:
    def test_raising_workers_fall_back_serially(self, chaos_seed):
        """Every worker job raises -> every item is recomputed in the
        parent (whose serial path has no fault site), results intact."""
        expected = _baseline()
        plan = FaultPlan([FaultRule("batch.worker", error=RuntimeError)],
                         seed=chaos_seed)
        with plan.activate():
            report = run_batch(_items(), tiers=CacheTiers(), workers=2)
        assert [r.best.element_names() for r in report.results] == expected
        assert report.stats.worker_retries == report.stats.unique
        assert report.stats.serial_jobs == report.stats.unique
        assert report.stats.parallel_jobs == 0
        assert report.stats.pool_respawns == 0   # pool alive, jobs failed

    def test_dead_workers_break_the_pool_results_still_correct(
            self, chaos_seed):
        """os._exit in a worker kills the pool itself.  The engine
        respawns once (workers die again: children inherit the armed
        plan) and then degrades serially — the caller still gets every
        result, the report records the whole story."""
        expected = _baseline()
        plan = FaultPlan([FaultRule("batch.worker",
                                    error=lambda: os._exit(17))],
                         seed=chaos_seed)
        with plan.activate():
            report = run_batch(_items(), tiers=CacheTiers(), workers=2)
        assert [r.best.element_names() for r in report.results] == expected
        assert report.stats.pool_respawns == 1
        assert report.stats.serial_jobs == report.stats.unique
        assert report.stats.worker_retries == report.stats.unique


class _DeadPool:
    """A stand-in ProcessPoolExecutor whose workers are already dead."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False

    def submit(self, fn, *args):
        raise BrokenProcessPool("a child process terminated abruptly")


class _ThreadBackedPool(ThreadPoolExecutor):
    """A working 'process pool' for deterministic respawn tests: the
    packed-job protocol (pre-pickled blobs) runs identically on
    threads, without fork cost or fork-inherited fault-plan state."""

    def __init__(self, max_workers=None):
        super().__init__(max_workers=max_workers or 2)

    def __exit__(self, *exc_info):
        self.shutdown(wait=True)
        return False


class TestPoolRespawn:
    def test_first_pool_broken_respawn_succeeds(self, monkeypatch):
        pools = []

        def factory(*args, **kwargs):
            pool = (_DeadPool if not pools else _ThreadBackedPool)(
                *args, **kwargs)
            pools.append(pool)
            return pool

        monkeypatch.setattr(batch_mod, "ProcessPoolExecutor", factory)
        report = run_batch(_items(), tiers=CacheTiers(), workers=2)
        assert len(pools) == 2
        assert report.stats.pool_respawns == 1
        assert report.stats.parallel_jobs == report.stats.unique
        assert report.stats.worker_retries == 0
        assert report.results[0].best.element_names() == ["sq2y"]

    def test_twice_broken_pool_degrades_serially(self, monkeypatch):
        pools = []

        def factory(*args, **kwargs):
            pool = _DeadPool()
            pools.append(pool)
            return pool

        monkeypatch.setattr(batch_mod, "ProcessPoolExecutor", factory)
        report = run_batch(_items(), tiers=CacheTiers(), workers=2)
        assert len(pools) == 2                  # respawned exactly once
        assert report.stats.pool_respawns == 1
        assert report.stats.serial_jobs == report.stats.unique
        assert report.stats.worker_retries == report.stats.unique
        assert report.results[0].best.element_names() == ["sq2y"]

    def test_caller_owned_executor_is_never_respawned(self):
        pool = _DeadPool()
        report = run_batch(_items(), tiers=CacheTiers(), workers=2, executor=pool)
        assert report.stats.pool_respawns == 0
        assert report.stats.serial_jobs == report.stats.unique
        assert report.results[0].best.element_names() == ["sq2y"]
