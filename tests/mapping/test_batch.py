"""Tests for the batch-mapping engine (repro.mapping.batch)."""

from dataclasses import fields, replace

import pytest

import repro.mapping.batch as batch_mod
from repro.api import MappingSession, SessionConfig
from repro.library import Library, full_library
from repro.library.builtin import (inhouse_library, linux_math_library,
                                   reference_library)
from repro.mapping import (BatchItem, BatchStats, CacheTiers,
                           MethodologyFlow, run_batch)
from repro.platform import Badge4, platform_named
from repro.symalg import symbols
from repro.workload.mp3 import imdct_block, matrixing_block

x, y = symbols("x y")
PLATFORM = Badge4()


from .conftest import demo_mapping_library as _demo_library


def _work_items():
    lm_ih = Library.union(reference_library(), linux_math_library(),
                          inhouse_library())
    return [
        BatchItem.for_block(imdct_block(), lm_ih, PLATFORM),
        BatchItem.for_block(matrixing_block(), lm_ih, PLATFORM),
        BatchItem.for_target(x + x ** 3 * y ** 2 - 2 * x * y ** 3,
                             _demo_library(), PLATFORM),
        BatchItem.for_target(x ** 2 - 2 * y, _demo_library(), PLATFORM),
        # Duplicate of item 0 through an independently-built library:
        # fingerprint dedup must fold it.
        BatchItem.for_block(imdct_block(),
                            Library.union(reference_library(),
                                          linux_math_library(),
                                          inhouse_library()), PLATFORM),
    ]


def _comparable(result):
    """A value-comparison view of one batch result."""
    if isinstance(result, tuple):          # map_block: (winner, matches)
        winner, matches = result
        return ("block", None if winner is None else winner.element.name,
                [(m.element.name, m.max_coefficient_error) for m in matches])
    return ("decompose", result.best.element_names(),
            result.best.total_cycles, result.best.residual)


@pytest.fixture(autouse=True)
def _isolated_caches(isolated_cache_env):
    yield


def _session(**config) -> MappingSession:
    return MappingSession(SessionConfig(**config))


class TestSerialBatch:
    def test_results_align_with_submission_order(self):
        items = _work_items()
        report = _session().batch(items)
        assert len(report.results) == len(items)
        winner, matches = report.results[0]
        assert winner.element.name == "fixed_IMDCT"
        assert report.results[2].mapped
        assert report.results[2].best.element_names() == ["sq2y"]

    def test_dedup_by_fingerprint(self):
        report = _session().batch(_work_items())
        assert report.stats.submitted == 5
        assert report.stats.unique == 4
        assert report.stats.computed == 4
        # The duplicate still gets a full result.
        assert _comparable(report.results[0]) == _comparable(report.results[4])

    def test_second_run_is_all_memory_hits(self):
        session = _session()
        session.batch(_work_items())
        report = session.batch(_work_items())
        assert report.stats.memory_hits == report.stats.unique
        assert report.stats.computed == 0

    def test_merges_into_lru_for_direct_calls(self):
        session = _session()
        session.batch(_work_items())
        before = session.stats()["map_block"]["hits"]
        lm_ih = Library.union(reference_library(), linux_math_library(),
                              inhouse_library())
        session.map(imdct_block(), lm_ih, PLATFORM)
        assert session.stats()["map_block"]["hits"] == before + 1

    def test_empty_batch_is_an_empty_report(self):
        report = run_batch([], tiers=CacheTiers())
        assert report.results == []
        assert report.stats == BatchStats()

    def test_dedup_does_not_lean_on_the_lru(self):
        """Duplicates fold inside one batch before the LRU is read: a
        repeat that reached the LRU would count as a memory hit."""
        session = _session()
        a = BatchItem.for_target(x ** 2 - 2 * y, _demo_library(), PLATFORM)
        b = BatchItem.for_target(x + x ** 3 * y ** 2 - 2 * x * y ** 3,
                                 _demo_library(), PLATFORM)
        report = session.batch([a, b, a, b])
        assert report.stats.unique == report.stats.computed == 2
        assert report.stats.memory_hits == 0
        assert _comparable(report.results[2]) == \
            _comparable(report.results[0])
        assert _comparable(report.results[3]) == \
            _comparable(report.results[1])

    def test_a_failing_search_propagates_and_keeps_earlier_results(
            self, monkeypatch):
        """The loop raises the search's own error; the items computed
        before it are already merged, so a retry only computes the
        rest."""
        real = batch_mod._compute
        calls = []

        def second_call_fails(item):
            calls.append(item)
            if len(calls) == 2:
                raise RuntimeError("search failed")
            return real(item)

        monkeypatch.setattr(batch_mod, "_compute", second_call_fails)
        session = _session()
        items = [
            BatchItem.for_target(x ** 2 - 2 * y, _demo_library(), PLATFORM),
            BatchItem.for_target(x + x ** 3 * y ** 2 - 2 * x * y ** 3,
                                 _demo_library(), PLATFORM),
        ]
        with pytest.raises(RuntimeError, match="search failed"):
            session.batch(items)
        retry = session.batch(items)
        assert retry.stats.memory_hits == 1
        assert retry.stats.computed == 1
        assert retry.results[1].best.element_names() == ["sq2y"]


class TestSerialOnly:
    def test_no_layer_takes_a_workers_knob(self):
        items = [BatchItem.for_target(x ** 2 - 2 * y, _demo_library())]
        with pytest.raises(TypeError):
            run_batch(items, tiers=CacheTiers(), workers=2)
        with pytest.raises(TypeError):
            _session().batch(items, workers=2)
        with pytest.raises(TypeError):
            MethodologyFlow(workers=2)

    def test_stats_count_only_what_the_loop_does(self):
        assert [f.name for f in fields(BatchStats)] == [
            "submitted", "unique", "memory_hits", "disk_hits", "computed"]


class TestCacheMerge:
    def test_results_reach_the_lru(self):
        items = _work_items()
        session = _session()
        session.batch(items)
        report = session.batch(items)
        assert report.stats.memory_hits == report.stats.unique
        # ... and direct (non-batch) calls hit too.
        result = session.decompose(x + x ** 3 * y ** 2 - 2 * x * y ** 3,
                                   _demo_library(), PLATFORM)
        assert result.best.element_names() == ["sq2y"]
        assert session.stats()["decompose"]["hits"] >= 1

    def test_results_land_in_the_callers_cache_dir(
            self, tmp_path, monkeypatch):
        """Computed values are written to the caller's tier exactly
        once each, an env-configured directory is not touched when the
        config names one, and a later direct call on a fresh session
        over the same directory hits the disk."""
        configured = tmp_path / "configured-tier"
        decoy = tmp_path / "decoy-tier"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(decoy))
        items = [
            BatchItem.for_target(x ** 2 - 2 * y, _demo_library(), PLATFORM),
            BatchItem.for_target(x + x ** 3 * y ** 2 - 2 * x * y ** 3,
                                 _demo_library(), PLATFORM),
        ]
        session = _session(cache_dir=configured)
        report = session.batch(items)
        assert report.stats.computed == 2
        assert (configured / "mapping_cache.sqlite").exists()
        assert not decoy.exists()
        assert session.tiers.disk().writes == len(items)  # once each

        later = _session(cache_dir=configured)
        result = later.decompose(x ** 2 - 2 * y, _demo_library(), PLATFORM)
        assert result.best.element_names() == \
            report.results[0].best.element_names()
        assert later.stats()["disk"]["hits"] == 1
        assert later.tiers.disk().writes == 0

    def test_omitted_platform_resolves_to_the_default_badge4(self):
        """An item built without a platform keys (and caches) exactly
        like one that names the default ``Badge4()``."""
        session = _session()
        session.batch([BatchItem.for_target(x ** 2 - 2 * y,
                                            _demo_library())])
        report = session.batch([BatchItem.for_target(x ** 2 - 2 * y,
                                                     _demo_library(),
                                                     Badge4())])
        assert report.stats.memory_hits == 1
        assert isinstance(BatchItem.for_block(imdct_block(),
                                              full_library()).platform,
                          Badge4)

    def test_block_item_without_platform_shares_the_direct_calls_line(self):
        """A block item built without a platform lands on the line a
        direct ``session.map`` on the default platform reads."""
        lm_ih = Library.union(reference_library(), linux_math_library(),
                              inhouse_library())
        session = _session()
        session.batch([BatchItem.for_block(imdct_block(), lm_ih)])
        before = session.stats()["map_block"]["hits"]
        result = session.map(imdct_block(), lm_ih)
        assert result.winner.element.name == "fixed_IMDCT"
        assert session.stats()["map_block"]["hits"] == before + 1


class TestBatchItemValidation:
    def test_unknown_knob_rejected(self):
        with pytest.raises(TypeError):
            BatchItem.for_block(imdct_block(), full_library(),
                                PLATFORM, bogus_knob=1)

    def test_key_is_derived_from_the_items_fields(self):
        """No item can carry another's key: one rebuilt with another
        platform or knob names that item's cache line."""
        item = BatchItem.for_block(imdct_block(), full_library(), PLATFORM)
        dsp = platform_named("DSP")
        moved = replace(item, platform=dsp)
        assert moved.key != item.key
        assert moved.key == BatchItem.for_block(imdct_block(), full_library(),
                                                dsp).key
        target = BatchItem.for_target(x ** 2 - 2 * y, _demo_library(), PLATFORM)
        deeper = replace(target, knobs=BatchItem.for_target(
            x ** 2 - 2 * y, _demo_library(), PLATFORM, max_depth=4).knobs)
        assert deeper.key == BatchItem.for_target(
            x ** 2 - 2 * y, _demo_library(), PLATFORM, max_depth=4).key
        assert deeper.key != target.key
        with pytest.raises(TypeError):
            BatchItem("map_block", imdct_block(), full_library(), PLATFORM,
                      item.knobs, item.key)

    def test_knob_defaults_match_entry_points(self):
        """Batch submissions must share cache lines with direct calls."""
        item = BatchItem.for_block(imdct_block(), full_library(), PLATFORM)
        knobs = dict(item.knobs)
        assert knobs["tolerance"] == 1e-6
        item = BatchItem.for_target(x, full_library(), PLATFORM)
        knobs = dict(item.knobs)
        assert knobs["tolerance"] == 1e-9
        assert knobs["max_depth"] == 3
