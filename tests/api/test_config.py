"""SessionConfig: precedence (explicit > env > defaults), validation,
immutability."""

import dataclasses
import math
import re

import pytest

from repro.api import SessionConfig
from repro.api.types import ACCURACY_BUDGET_MESSAGE, TOLERANCE_MESSAGE


class TestPrecedence:
    def test_plain_config_ignores_the_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/somewhere")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        config = SessionConfig()
        assert config.cache_dir is None
        assert config.disk_cache is True

    def test_from_env_reads_cache_dir(self):
        config = SessionConfig.from_env({"REPRO_CACHE_DIR": "/tmp/tier"})
        assert config.cache_dir == "/tmp/tier"
        assert config.effective_cache_dir == "/tmp/tier"

    def test_from_env_no_cache_disables_disk(self):
        env = {"REPRO_CACHE_DIR": "/tmp/tier", "REPRO_NO_CACHE": "1"}
        config = SessionConfig.from_env(env)
        assert config.disk_cache is False
        assert config.effective_cache_dir is None

    def test_from_env_reads_only_the_cache_variables(self):
        """Other ``REPRO_*`` names select nothing: the two cache
        variables are the config's whole environment surface."""
        env = {"REPRO_CACHE_DIR": "/from/env", "REPRO_PLATFORM": "DSP",
               "REPRO_WORKLOAD": "gsm_mac", "REPRO_CHAOS_SEED": "3"}
        assert SessionConfig.from_env(env) == \
            SessionConfig(cache_dir="/from/env")

    def test_explicit_override_beats_env(self):
        env = {"REPRO_CACHE_DIR": "/from/env", "REPRO_NO_CACHE": "1"}
        config = SessionConfig.from_env(env, cache_dir="/explicit", disk_cache=True)
        assert config.cache_dir == "/explicit"
        assert config.disk_cache is True
        assert config.effective_cache_dir == "/explicit"

    def test_from_env_defaults_when_env_empty(self):
        config = SessionConfig.from_env({})
        assert config == SessionConfig()


class TestValidation:
    def test_lru_sizes_must_be_positive(self):
        with pytest.raises(ValueError):
            SessionConfig(decompose_lru=0)
        with pytest.raises(ValueError):
            SessionConfig(map_block_lru=-1)

    def test_workers_is_not_a_setting(self):
        with pytest.raises(TypeError):
            SessionConfig(workers=2)
        with pytest.raises(TypeError):
            SessionConfig().with_options(workers=2)

    def test_library_must_be_nonempty(self):
        with pytest.raises(ValueError):
            SessionConfig(library=())

    def test_tolerance_must_be_positive(self):
        """The wire's rule: finite and >= 0, refused with its wording."""
        for bad in (math.inf, -math.inf, math.nan, -1e-9):
            with pytest.raises(ValueError, match=re.escape(TOLERANCE_MESSAGE)):
                SessionConfig(tolerance=bad)
        # 0 matches exactly, as /v1/map {"tolerance": 0} and
        # --tolerance 0 already accept.
        assert SessionConfig(tolerance=0.0).tolerance == 0.0

    def test_accuracy_budget_must_be_nonnegative(self):
        for bad in (-1.0, math.nan, -math.inf):
            with pytest.raises(
                ValueError, match=re.escape(ACCURACY_BUDGET_MESSAGE)
            ):
                SessionConfig(accuracy_budget=bad)
        assert SessionConfig(accuracy_budget=0.0).accuracy_budget == 0.0
        assert SessionConfig(accuracy_budget=math.inf).accuracy_budget == math.inf

    def test_library_normalized_to_tuple(self):
        assert SessionConfig(library=["REF", "IH"]).library == ("REF", "IH")


class TestImmutability:
    def test_frozen(self):
        config = SessionConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.cache_dir = "/nope"

    def test_with_options_returns_a_new_config(self):
        base = SessionConfig()
        derived = base.with_options(map_block_lru=64)
        assert derived.map_block_lru == 64
        assert base.map_block_lru == 256
        assert derived is not base
