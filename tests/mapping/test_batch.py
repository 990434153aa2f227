"""Tests for the batch-mapping engine (repro.mapping.batch)."""

import pytest

import repro.mapping.batch as batch_mod
from repro.api import MappingSession, SessionConfig
from repro.library import Library, full_library
from repro.library.builtin import (inhouse_library, linux_math_library,
                                   reference_library)
from repro.mapping import BatchItem
from repro.mapping.flow import _imdct_block, _matrixing_block
from repro.platform import Badge4
from repro.symalg import symbols

x, y = symbols("x y")
PLATFORM = Badge4()


from .conftest import demo_mapping_library as _demo_library


def _work_items():
    lm_ih = Library.union(reference_library(), linux_math_library(),
                          inhouse_library())
    return [
        BatchItem.for_block(_imdct_block(), lm_ih, PLATFORM),
        BatchItem.for_block(_matrixing_block(), lm_ih, PLATFORM),
        BatchItem.for_target(x + x ** 3 * y ** 2 - 2 * x * y ** 3,
                             _demo_library(), PLATFORM),
        BatchItem.for_target(x ** 2 - 2 * y, _demo_library(), PLATFORM),
        # Duplicate of item 0 through an independently-built library:
        # fingerprint dedup must fold it.
        BatchItem.for_block(_imdct_block(),
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
        report = _session().batch(items, workers=1)
        assert len(report.results) == len(items)
        winner, matches = report.results[0]
        assert winner.element.name == "fixed_IMDCT"
        assert report.results[2].mapped
        assert report.results[2].best.element_names() == ["sq2y"]

    def test_dedup_by_fingerprint(self):
        report = _session().batch(_work_items(), workers=1)
        assert report.stats.submitted == 5
        assert report.stats.unique == 4
        assert report.stats.computed == 4
        # The duplicate still gets a full result.
        assert _comparable(report.results[0]) == _comparable(report.results[4])

    def test_second_run_is_all_memory_hits(self):
        session = _session()
        session.batch(_work_items(), workers=1)
        report = session.batch(_work_items(), workers=1)
        assert report.stats.memory_hits == report.stats.unique
        assert report.stats.computed == 0

    def test_merges_into_lru_for_direct_calls(self):
        session = _session()
        session.batch(_work_items(), workers=1)
        before = session.stats()["map_block"]["hits"]
        lm_ih = Library.union(reference_library(), linux_math_library(),
                              inhouse_library())
        session.map(_imdct_block(), lm_ih, PLATFORM)
        assert session.stats()["map_block"]["hits"] == before + 1


class TestParallelBatch:
    def test_parallel_equals_serial(self):
        """The acceptance bar: identical winners/costs for every item."""
        items = _work_items()
        serial = _session().batch(items, workers=1)
        parallel = _session().batch(items, workers=2)
        assert parallel.stats.parallel_jobs > 0
        for s, p in zip(serial.results, parallel.results):
            assert _comparable(s) == _comparable(p)

    def test_parallel_results_reach_the_lru(self):
        items = _work_items()
        session = _session()
        session.batch(items, workers=2)
        report = session.batch(items, workers=2)
        assert report.stats.memory_hits == report.stats.unique
        # ... and direct (non-batch) calls hit too.
        result = session.decompose(x + x ** 3 * y ** 2 - 2 * x * y ** 3,
                                   _demo_library(), PLATFORM)
        assert result.best.element_names() == ["sq2y"]
        assert session.stats()["decompose"]["hits"] >= 1

    def test_single_cold_item_stays_serial(self):
        report = _session().batch(
            [BatchItem.for_target(x ** 2 - 2 * y, _demo_library(),
                                  PLATFORM)], workers=4)
        assert report.stats.serial_jobs == 1
        assert report.stats.parallel_jobs == 0

    def test_parallel_results_land_in_the_callers_cache_dir(
            self, tmp_path, monkeypatch):
        """Worker-computed values are merged into the caller's tier by
        the parent (exactly once — workers never write disk), and an
        env-configured directory is not touched when the config names
        one."""
        configured = tmp_path / "configured-tier"
        decoy = tmp_path / "decoy-tier"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(decoy))
        items = [
            BatchItem.for_target(x ** 2 - 2 * y, _demo_library(), PLATFORM),
            BatchItem.for_target(x + x ** 3 * y ** 2 - 2 * x * y ** 3,
                                 _demo_library(), PLATFORM),
        ]
        session = _session(cache_dir=configured)
        report = session.batch(items, workers=2)
        assert report.stats.parallel_jobs == 2
        assert (configured / "mapping_cache.sqlite").exists()
        assert not decoy.exists()
        assert session.tiers.disk().writes == len(items)  # once each

    def test_unpicklable_item_falls_back_to_serial(self, monkeypatch):
        def refuse(item, lib_blobs):
            raise TypeError("cannot pickle this work item")
        monkeypatch.setattr(batch_mod, "_pack_job", refuse)
        items = [
            BatchItem.for_target(x ** 2 - 2 * y, _demo_library(), PLATFORM),
            BatchItem.for_target(x + x ** 3 * y ** 2 - 2 * x * y ** 3,
                                 _demo_library(), PLATFORM),
        ]
        report = _session().batch(items, workers=2)
        assert report.stats.pickle_fallbacks == 2
        assert report.stats.serial_jobs == 2
        assert report.results[1].best.element_names() == ["sq2y"]


class TestBatchItemValidation:
    def test_unknown_knob_rejected(self):
        with pytest.raises(TypeError):
            BatchItem.for_block(_imdct_block(), full_library(),
                                PLATFORM, bogus_knob=1)

    def test_knob_defaults_match_entry_points(self):
        """Batch submissions must share cache lines with direct calls."""
        item = BatchItem.for_block(_imdct_block(), full_library(), PLATFORM)
        knobs = dict(item.knobs)
        assert knobs["tolerance"] == 1e-6
        item = BatchItem.for_target(x, full_library(), PLATFORM)
        knobs = dict(item.knobs)
        assert knobs["tolerance"] == 1e-9
        assert knobs["max_depth"] == 3


class TestFlowIntegration:
    def test_flow_with_workers_matches_serial_flow(self):
        """MethodologyFlow(workers=N) chooses the same elements."""
        from repro.mapping import MethodologyFlow
        from repro.mp3 import make_stream
        stream = make_stream(n_frames=1, seed=7)
        serial = MethodologyFlow().run_passes(stream)
        parallel = MethodologyFlow(workers=2).run_passes(stream)
        for s, p in zip(serial.passes, parallel.passes):
            assert s.chosen_elements == p.chosen_elements
            assert s.seconds == p.seconds
            assert s.energy_j == p.energy_j
