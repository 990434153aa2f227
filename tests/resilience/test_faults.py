"""The fault-injection registry itself: arming, determinism, scoping."""

import time

import pytest

from repro.resilience import FAULT_SITES, FaultPlan, FaultRule, active_plan, inject


class TestFaultRuleValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule("no.such.site", error=RuntimeError)

    def test_probability_bounds(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule("service.dispatch", error=RuntimeError, probability=1.5)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay"):
            FaultRule("service.dispatch", error=RuntimeError, delay=-1.0)

    def test_rule_must_do_something(self):
        with pytest.raises(ValueError, match="raise, delay, or both"):
            FaultRule("service.dispatch")

    def test_times_must_be_positive(self):
        with pytest.raises(ValueError, match="times"):
            FaultRule("service.dispatch", error=RuntimeError, times=0)

    def test_every_compiled_site_is_armable(self):
        for site in FAULT_SITES:
            FaultRule(site, error=RuntimeError)


class TestFiring:
    def test_error_class_is_instantiated(self):
        plan = FaultPlan([FaultRule("service.dispatch", error=KeyError)])
        with pytest.raises(KeyError):
            plan.fire("service.dispatch")

    def test_error_instance_is_raised_as_is(self):
        sentinel = RuntimeError("exactly this one")
        plan = FaultPlan([FaultRule("service.dispatch", error=sentinel)])
        with pytest.raises(RuntimeError) as excinfo:
            plan.fire("service.dispatch")
        assert excinfo.value is sentinel

    def test_error_factory_is_called(self):
        plan = FaultPlan([FaultRule(
            "service.dispatch", error=lambda: ValueError("built fresh"))])
        with pytest.raises(ValueError, match="built fresh"):
            plan.fire("service.dispatch")

    def test_times_bounds_firing(self):
        plan = FaultPlan([FaultRule("service.dispatch", error=RuntimeError,
                                    times=2)])
        for _ in range(2):
            with pytest.raises(RuntimeError):
                plan.fire("service.dispatch")
        plan.fire("service.dispatch")      # exhausted: passes
        assert plan.counts() == {
            "hits": {**dict.fromkeys(FAULT_SITES, 0), "service.dispatch": 3},
            "fired": {**dict.fromkeys(FAULT_SITES, 0), "service.dispatch": 2},
        }

    def test_after_arms_the_fault_late(self):
        plan = FaultPlan([FaultRule("service.dispatch", error=RuntimeError,
                                    after=2)])
        plan.fire("service.dispatch")
        plan.fire("service.dispatch")
        with pytest.raises(RuntimeError):
            plan.fire("service.dispatch")

    def test_first_firing_rule_wins_later_rules_stay_armed(self):
        plan = FaultPlan([
            FaultRule("service.dispatch", error=ValueError, times=1),
            FaultRule("service.dispatch", error=KeyError),
        ])
        with pytest.raises(ValueError):
            plan.fire("service.dispatch")
        with pytest.raises(KeyError):   # rule 1 exhausted, rule 2 takes over
            plan.fire("service.dispatch")

    def test_delay_sleeps(self):
        plan = FaultPlan([FaultRule("service.dispatch", delay=0.05)])
        start = time.monotonic()
        plan.fire("service.dispatch")
        assert time.monotonic() - start >= 0.04

    def test_delay_then_error(self):
        plan = FaultPlan([FaultRule("service.dispatch", delay=0.02,
                                    error=RuntimeError)])
        start = time.monotonic()
        with pytest.raises(RuntimeError):
            plan.fire("service.dispatch")
        assert time.monotonic() - start >= 0.01

    def test_unknown_site_at_fire_time_rejected(self):
        plan = FaultPlan([])
        with pytest.raises(ValueError, match="unknown fault site"):
            plan.fire("typo.site")


class TestDeterminism:
    @staticmethod
    def _pattern(seed: int, extra_site_hits: int = 0) -> list:
        plan = FaultPlan([
            FaultRule("service.dispatch", error=RuntimeError, probability=0.5),
            FaultRule("disk_cache.read", error=RuntimeError,
                      probability=0.5),
        ], seed=seed)
        pattern = []
        with plan.activate():
            for index in range(64):
                # Optionally interleave hits on the *other* site: rule
                # streams are private, so they must not perturb this one.
                for _ in range(extra_site_hits):
                    try:
                        inject("disk_cache.read")
                    except RuntimeError:
                        pass
                try:
                    inject("service.dispatch")
                    pattern.append(0)
                except RuntimeError:
                    pattern.append(1)
        return pattern

    def test_same_seed_same_firing_sequence(self, chaos_seed):
        first = self._pattern(chaos_seed)
        assert first == self._pattern(chaos_seed)
        assert 0 < sum(first) < len(first)   # probabilistic, not degenerate

    def test_sites_draw_from_independent_streams(self, chaos_seed):
        assert self._pattern(chaos_seed) == self._pattern(
            chaos_seed, extra_site_hits=3)

    def test_different_seeds_differ(self):
        patterns = {tuple(self._pattern(seed)) for seed in range(8)}
        assert len(patterns) > 1


class TestActivation:
    def test_inject_without_a_plan_is_a_no_op(self):
        assert active_plan() is None
        inject("service.dispatch")          # nothing raised, nothing counted

    def test_activation_is_scoped_and_nestable(self):
        outer = FaultPlan([FaultRule("service.dispatch", error=ValueError)])
        inner = FaultPlan([FaultRule("service.dispatch", error=KeyError)])
        with outer.activate():
            assert active_plan() is outer
            with inner.activate():
                assert active_plan() is inner
                with pytest.raises(KeyError):
                    inject("service.dispatch")
            assert active_plan() is outer
            with pytest.raises(ValueError):
                inject("service.dispatch")
        assert active_plan() is None

    def test_activation_restores_on_error(self):
        plan = FaultPlan([FaultRule("service.dispatch", error=RuntimeError)])
        with pytest.raises(ZeroDivisionError):
            with plan.activate():
                1 / 0
        assert active_plan() is None
