"""MappingSession behaviour: the facade methods, resource resolution,
and the acceptance-criterion isolation of two sessions in one process."""

import json
import math

import pytest

from repro.api import MappingSession, SessionConfig
from repro.api.types import ACCURACY_BUDGET_MESSAGE, TOLERANCE_MESSAGE
from repro.errors import ServiceError
from repro.mapping import BatchItem, shared_cache_stats
from repro.symalg import symbols
from repro.symalg.gcdtools import _cached_gcd, polynomial_gcd
from repro.symalg.ideal import SideRelation, _basis_or_explosion, simplify_modulo

from .conftest import tiny_block, tiny_library


@pytest.fixture(autouse=True)
def _isolated(isolated_cache_env):
    yield


def _session(**config_kwargs) -> MappingSession:
    return MappingSession(SessionConfig(**config_kwargs))


class TestMap:
    def test_map_with_live_objects(self):
        session = _session()
        result = session.map(tiny_block(), tiny_library())
        assert result.mapped is True
        assert result.winner_name == "tiny_butterfly_el"
        assert result.request.block == "tiny_butterfly"
        assert result.request.library == ("demo",)
        assert result.request.platform == "SA-1110"

    def test_payload_shape_matches_the_wire_format(self):
        result = _session().map(tiny_block(), tiny_library())
        payload = json.loads(result.to_json())
        assert sorted(payload) == [
            "block",
            "library",
            "mapped",
            "matches",
            "platform",
            "processor",
            "winner",
            "workload",
        ]
        assert payload["processor"] == "StrongARM SA-1110"
        assert payload["matches"][0]["element"] == "tiny_butterfly_el"

    def test_map_uses_the_session_lru(self):
        session = _session()
        block, library = tiny_block(), tiny_library()
        first = session.map(block, library)
        second = session.map(block, library)
        assert first.to_json() == second.to_json()
        stats = session.stats()["map_block"]
        assert stats["misses"] == 1
        assert stats["hits"] == 1

    def test_unknown_names_raise_service_error(self):
        session = _session()
        with pytest.raises(ServiceError) as err:
            session.map("no_such_block")
        assert err.value.status == 404
        with pytest.raises(ServiceError):
            session.map(tiny_block(), ("REF", "MKL"))
        with pytest.raises(ServiceError):
            session.map(tiny_block(), platform="Z80")

    def test_library_accepts_combo_strings(self):
        session = _session()
        by_string = session.map(tiny_block(), "REF+IH")
        by_tuple = session.map(tiny_block(), ("REF", "IH"))
        assert by_string.to_json() == by_tuple.to_json()


class TestParetoAndBatch:
    def test_pareto_projection_equals_map(self):
        session = _session()
        block, library = tiny_block(), tiny_library()
        mapped = session.map(block, library)
        front = session.pareto(block, library)
        assert front.winner_name == mapped.winner_name
        assert front.request == mapped.request
        assert len(front.front) >= 1

    def test_pareto_shares_the_cached_match_list(self):
        session = _session()
        block, library = tiny_block(), tiny_library()
        session.map(block, library)
        session.pareto(block, library)
        assert session.stats()["map_block"]["hits"] == 1

    def test_batch_resolves_against_session_tiers(self):
        session = _session()
        block, library = tiny_block(), tiny_library()
        report = session.batch([BatchItem.for_block(block, library, tolerance=1e-6)])
        winner, _matches = report.results[0]
        assert winner.element.name == "tiny_butterfly_el"
        # The follow-up direct call hits the same session cache line.
        session.map(block, library)
        assert session.stats()["map_block"]["hits"] == 1


class TestOneCachePath:
    """Session calls resolve through batch(), so verify shares map's
    cache line and counts tier traffic the same way."""

    def test_verify_after_map_is_one_miss_and_one_hit(self, mp3_blocks):
        session = MappingSession(SessionConfig(), blocks=mp3_blocks)
        session.map("inv_mdctL", ("LM", "IH"))
        assert session.verify("inv_mdctL", ("LM", "IH")).mapped
        stats = session.stats()["map_block"]
        assert (stats["misses"], stats["hits"]) == (1, 1)

    def test_cold_verify_writes_one_row_a_fresh_map_reads_it(
        self, tmp_path, mp3_blocks
    ):
        first = MappingSession(SessionConfig(cache_dir=tmp_path), blocks=mp3_blocks)
        first.verify("inv_mdctL", ("LM", "IH"))
        assert first.stats()["disk"]["writes"] == 1
        assert len(first.tiers.disk()) == 1

        fresh = MappingSession(SessionConfig(cache_dir=tmp_path), blocks=mp3_blocks)
        fresh.map("inv_mdctL", ("LM", "IH"))
        disk = fresh.stats()["disk"]
        assert (disk["hits"], disk["writes"]) == (1, 0)


class TestKnobValidation:
    """Per-call knobs follow the wire's rule and answer 400 like it."""

    @staticmethod
    def _calls(session):
        block, library = tiny_block(), tiny_library()
        x = symbols("x")[0]
        return [
            lambda **kw: session.map(block, library, **kw),
            lambda **kw: session.pareto(block, library, **kw),
            lambda **kw: session.verify(block, library, **kw),
            lambda **kw: session.sweep(
                ["SA-1110"], [library], {"tiny_butterfly": block}, **kw
            ),
            lambda **kw: session.decompose(x, library, **kw),
        ]

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"tolerance": math.inf}, TOLERANCE_MESSAGE),
            ({"tolerance": math.nan}, TOLERANCE_MESSAGE),
            ({"tolerance": -1e-6}, TOLERANCE_MESSAGE),
            ({"accuracy_budget": -1.0}, ACCURACY_BUDGET_MESSAGE),
            ({"accuracy_budget": math.nan}, ACCURACY_BUDGET_MESSAGE),
        ],
        ids=["inf-tol", "nan-tol", "negative-tol", "negative-budget", "nan-budget"],
    )
    def test_bad_knobs_raise_400(self, knobs, message):
        for call in self._calls(_session()):
            with pytest.raises(ServiceError) as err:
                call(**knobs)
            assert (err.value.status, err.value.message) == (400, message)


class TestFlowBinding:
    def test_flow_is_session_bound(self):
        block = tiny_block()
        session = MappingSession(SessionConfig(), blocks={"tiny_butterfly": block})
        flow = session.flow()
        assert flow.tiers is session.tiers
        assert flow._blocks == {"tiny_butterfly": block}

    def test_sweep_resolves_against_the_session_registry(self):
        """A session's custom registry reaches the sweep (not just
        map): its keys resolve, and the no-args default sweeps *its*
        platforms, not the process default registry's."""
        from repro.platform.energy import BADGE4_ENERGY
        from repro.platform.processor import SA1110
        from repro.platform.registry import ProcessorRegistry

        registry = ProcessorRegistry()
        registry.register("mycore", SA1110, BADGE4_ENERGY)
        block, library = tiny_block(), tiny_library()
        session = MappingSession(
            SessionConfig(registry=registry, platform="mycore"),
            blocks={"tiny_butterfly": block},
        )
        report = session.sweep(platforms=["mycore"], libraries=[library])
        assert report.platforms == ("mycore",)
        default = session.sweep(libraries=[library])
        assert default.platforms == ("mycore",)

    def test_sweep_over_injected_blocks(self):
        block, library = tiny_block(), tiny_library()
        session = MappingSession(SessionConfig(), blocks={"tiny_butterfly": block})
        report = session.sweep(platforms=["SA-1110"], libraries=[library])
        assert report.platforms == ("SA-1110",)
        assert report.blocks == ("tiny_butterfly",)
        winners = report.winners("SA-1110")
        assert winners == {("tiny_butterfly", "demo"): "tiny_butterfly_el"}


class TestSessionIsolation:
    def test_two_sessions_with_different_cache_dirs_coexist(self, tmp_path):
        """The acceptance criterion: isolated tiers, identical bytes."""
        block, library = tiny_block(), tiny_library()
        a = MappingSession(SessionConfig(cache_dir=tmp_path / "a"))
        b = MappingSession(SessionConfig(cache_dir=tmp_path / "b"))

        result_a = a.map(block, library)
        stats_a = a.stats()
        assert stats_a["disk"]["writes"] == 1
        assert stats_a["map_block"]["misses"] == 1
        assert (tmp_path / "a" / "mapping_cache.sqlite").exists()
        assert not (tmp_path / "b" / "mapping_cache.sqlite").exists()

        result_b = b.map(block, library)
        assert result_a.to_json() == result_b.to_json()
        assert b.stats()["disk"]["writes"] == 1
        assert (tmp_path / "b" / "mapping_cache.sqlite").exists()

        # b's work never moved a's counters (and vice versa).
        assert a.stats()["map_block"] == stats_a["map_block"]
        assert a.stats()["disk"]["writes"] == 1

    def test_fresh_session_on_a_warm_dir_starts_from_disk(self, tmp_path):
        block, library = tiny_block(), tiny_library()
        first = MappingSession(SessionConfig(cache_dir=tmp_path))
        first.map(block, library)
        again = MappingSession(SessionConfig(cache_dir=tmp_path))
        again.map(block, library)
        stats = again.stats()
        assert stats["disk"]["hits"] == 1
        assert stats["disk"]["writes"] == 0

    def test_private_sessions_stay_out_of_process_stats(self):
        """The process-wide surface reports only the shared memo
        caches; tier traffic stays with the session that made it."""
        session = _session()
        session.map(tiny_block(), tiny_library())
        assert sorted(shared_cache_stats()) == ["instantiations"]
        assert _session().stats()["map_block"]["misses"] == 0

    def test_clear_caches_wipes_an_unopened_disk_store(self, tmp_path):
        """A fresh session (fresh process in real life) pointed at a
        warm cache dir must clear the store it is configured for, not
        just tiers it happened to have opened (`repro cache clear`)."""
        block, library = tiny_block(), tiny_library()
        writer = MappingSession(SessionConfig(cache_dir=tmp_path))
        writer.map(block, library)
        store = tmp_path / "mapping_cache.sqlite"
        assert store.exists()

        fresh = MappingSession(SessionConfig(cache_dir=tmp_path))
        fresh.clear_caches()
        assert not store.exists()
        # And a re-map recomputes rather than hitting stale disk.
        rerun = MappingSession(SessionConfig(cache_dir=tmp_path))
        rerun.map(block, library)
        assert rerun.stats()["disk"]["hits"] == 0
        assert rerun.stats()["disk"]["writes"] == 1

    def test_clear_caches_is_session_scoped(self, tmp_path):
        block, library = tiny_block(), tiny_library()
        a = MappingSession(SessionConfig(cache_dir=tmp_path / "a"))
        b = MappingSession(SessionConfig(cache_dir=tmp_path / "b"))
        a.map(block, library)
        b.map(block, library)
        a.clear_caches()
        assert a.stats()["map_block"]["size"] == 0
        assert a.stats()["disk"]["size"] == 0
        assert b.stats()["map_block"]["size"] == 1
        assert len(b.tiers.disk()) == 1


class TestClearCaches:
    def test_clear_caches_empties_the_symalg_memos(self):
        """One call makes the process cold: the Groebner-basis and GCD
        memos in symalg are cleared along with the mapping caches."""
        x, y = symbols("x y")
        polynomial_gcd(x**2 - y**2, x + y)
        simplify_modulo(x**2 + y, [SideRelation("s", x**2)], ["x", "y", "s"])
        assert _cached_gcd.cache_info().currsize > 0
        assert _basis_or_explosion.cache_info().currsize > 0

        _session().clear_caches()
        assert _cached_gcd.cache_info().currsize == 0
        assert _basis_or_explosion.cache_info().currsize == 0
        assert all(c["size"] == 0 for c in shared_cache_stats().values())
