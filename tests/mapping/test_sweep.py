"""Tests for the multi-platform sweep and the Pareto mapping layer.

Pins the tentpole acceptance criteria: per-platform Pareto fronts over
(cycles, energy, accuracy); the SA-1110 cycles-only projection
reproducing the single-platform winners exactly; and a warm disk
cache resolving a repeat sweep with zero computed items, byte-identical
to the cold one.
"""

import pytest

from repro.api import MappingSession, SessionConfig
from repro.library import (Library, inhouse_library, linux_math_library,
                           reference_library)
from repro.library.builtin import full_library
from repro.mapping import (Objectives, ParetoPoint, methodology_blocks,
                           pareto_front, score_match)
from repro.platform import Badge4, platform_named, registered_processors

THREE_PLATFORMS = ("SA-1110", "ARM926", "DSP")


def _session(**config) -> MappingSession:
    return MappingSession(SessionConfig(**config))


def _pareto(block, library):
    return _session().pareto(block, library, Badge4()).result


@pytest.fixture(autouse=True)
def _isolated(isolated_cache_env):
    yield


@pytest.fixture(scope="module")
def blocks():
    return methodology_blocks()


@pytest.fixture(scope="module")
def lm_ih():
    return Library.union(reference_library(), linux_math_library(),
                         inhouse_library())


class TestObjectives:
    def test_dominance_requires_a_strict_improvement(self):
        a = Objectives(10.0, 1.0, 1e-6)
        assert not a.dominates(Objectives(10.0, 1.0, 1e-6))
        assert a.dominates(Objectives(10.0, 2.0, 1e-6))
        assert not a.dominates(Objectives(5.0, 2.0, 1e-6))

    def test_front_drops_dominated_keeps_tradeoffs(self):
        class FakeElement:
            def __init__(self, name):
                self.name = name
                self.library = "IH"

        class FakeMatch:
            def __init__(self, name):
                self.element = FakeElement(name)

        def point(name, cycles, energy, acc):
            return ParetoPoint(FakeMatch(name),
                               Objectives(cycles, energy, acc))

        fast = point("fast", 10.0, 2.0, 1e-3)
        accurate = point("accurate", 100.0, 5.0, 1e-9)
        dominated = point("dominated", 50.0, 6.0, 1e-3)
        front = pareto_front([dominated, accurate, fast])
        assert [p.element_name for p in front] == ["fast", "accurate"]


class TestMapBlockPareto:
    def test_front_carries_all_three_objectives(self, blocks, lm_ih):
        result = _pareto(blocks["inv_mdctL"], lm_ih)
        assert result.front
        for point in result.front:
            o = point.objectives
            assert o.cycles > 0 and o.energy_j > 0 and o.accuracy > 0

    def test_front_is_mutually_non_dominated(self, blocks, lm_ih):
        result = _pareto(blocks["inv_mdctL"], lm_ih)
        for p in result.front:
            for q in result.front:
                assert not p.objectives.dominates(q.objectives) or p is q

    def test_cycles_winner_equals_scalar_map_block(self, blocks, lm_ih):
        session = _session()
        pareto = session.pareto(blocks["inv_mdctL"], lm_ih, Badge4())
        scalar = session.map(blocks["inv_mdctL"], lm_ih, Badge4())
        assert pareto.cycles_winner.element.name == scalar.winner.element.name
        assert pareto.result.matches == scalar.matches

    def test_accuracy_tradeoff_survives_on_the_front(self, blocks):
        """The double-precision REF element is never dominated: it is
        slower but orders of magnitude more accurate."""
        result = _pareto(blocks["inv_mdctL"], full_library())
        names = {p.element_name for p in result.front}
        assert "IppsMDCTInv_MP3_32s" in names     # fewest cycles
        assert "float_IMDCT" in names             # best accuracy
        assert "fixed_IMDCT" not in names         # dominated by IPP

    def test_tied_scalar_winner_may_be_dominated_off_the_front(self):
        """On an exact (cycles, energy) tie the scalar winner keeps
        the block match's name-tiebreak answer while the front keeps
        only the more accurate twin — two contracts, both
        deterministic."""
        from repro.frontend.extract import TargetBlock
        from repro.library import LibraryElement
        from repro.platform import OperationTally
        from repro.symalg import Polynomial, symbols
        a, b = symbols("a b")
        block = TargetBlock(name="tie", outputs={"out": a * b},
                            input_variables=("a", "b"))
        i0, i1 = (Polynomial.variable(n) for n in ("in0", "in1"))

        def element(name, accuracy):
            return LibraryElement(
                name=name, library="IH", polynomials=(i0 * i1,),
                input_format="q", output_format="q", accuracy=accuracy,
                cost=OperationTally(int_mul=1))

        library = Library("ties", [element("a_coarse", 1e-3),
                                   element("b_exact", 1e-9)])
        result = _pareto(block, library)
        assert result.cycles_winner.element.name == "a_coarse"
        assert [p.element_name for p in result.front] == ["b_exact"]

    def test_score_match_uses_the_platform_energy_model(self, blocks, lm_ih):
        matches = _session().map(blocks["inv_mdctL"], lm_ih, Badge4()).matches
        sa = score_match(matches[0], platform_named("SA-1110"))
        dsp = score_match(matches[0], platform_named("DSP"))
        assert sa.energy_j != dsp.energy_j
        assert sa.accuracy == dsp.accuracy


class TestSweep:
    def test_three_platform_sweep_shape(self):
        report = _session().sweep(platforms=list(THREE_PLATFORMS))
        assert report.platforms == THREE_PLATFORMS
        assert len(report.libraries) == 2
        assert len(report.blocks) == 2
        assert len(report.entries) == 3 * 2 * 2
        for entry in report.entries:
            assert entry.result.front, entry
            assert entry.winner_name is not None

    def test_sa1110_projection_reproduces_single_platform_winners(self):
        report = _session().sweep(platforms=["SA-1110"])
        blocks = methodology_blocks()
        platform = Badge4()
        session = _session()
        for entry in report.entries:
            library = next(lib for lib in _ladder()
                           if lib.name == entry.library)
            winner = session.map(blocks[entry.block], library, platform,
                                 tolerance=1e-6).winner
            assert entry.winner_name == winner.element.name

    def test_full_pass_winners_match_the_flow_tables(self):
        report = _session().sweep(platforms=["SA-1110"])
        winners = report.winners("SA-1110")
        full_name = _ladder()[1].name
        assert winners[("inv_mdctL", full_name)] == "IppsMDCTInv_MP3_32s"
        assert winners[("SubBandSynthesis", full_name)] == \
            "ippsSynthPQMF_MP3_32s16s"

    def test_defaults_cover_every_registered_platform(self):
        report = _session().sweep()
        assert report.platforms == tuple(registered_processors())
        assert len(report.platforms) >= 4

    def test_accepts_live_platform_objects_with_registry_labels(self):
        """A live object whose spec is registered gets the registry key,
        so key-based and object-based selections label identically."""
        report = _session().sweep(platforms=[Badge4()])
        assert report.platforms == ("SA-1110",)
        assert report.winners("SA-1110")

    def test_winners_rejects_unswept_platform(self):
        report = _session().sweep(platforms=["SA-1110"])
        with pytest.raises(KeyError, match="ARM926"):
            report.winners("ARM926")

    def test_duplicate_library_names_rejected(self, lm_ih):
        from repro.errors import MappingError
        twin = Library.union(reference_library(), linux_math_library(),
                             inhouse_library())
        assert twin.name == lm_ih.name
        with pytest.raises(MappingError, match="unique names"):
            _session().sweep(platforms=["SA-1110"],
                             libraries=[lm_ih, twin])

    def test_format_report_lists_every_platform(self):
        report = _session().sweep(platforms=list(THREE_PLATFORMS))
        text = report.format_report()
        for platform in THREE_PLATFORMS:
            assert f"== {platform} ==" in text


def _ladder():
    from repro.mapping.flow import _mapping_ladder
    return [library for _name, library in _mapping_ladder()]


class TestSweepParity:
    def test_warm_disk_cache_resolves_repeat_sweep_with_zero_computed(
            self, tmp_path, blocks):
        session = MappingSession(SessionConfig(cache_dir=tmp_path),
                                 blocks=blocks)
        cold = session.sweep(platforms=list(THREE_PLATFORMS))
        assert cold.stats.computed == cold.stats.unique > 0
        session.tiers.clear_memory()           # memory cold, disk warm
        warm = session.sweep(platforms=list(THREE_PLATFORMS))
        assert warm.stats.computed == 0
        assert warm.stats.disk_hits == warm.stats.unique
        assert warm.to_json() == cold.to_json()

    def test_json_is_deterministic_across_calls(self):
        report = _session().sweep(platforms=["ARM926"])
        again = _session().sweep(platforms=["ARM926"])
        assert report.to_json() == again.to_json()
