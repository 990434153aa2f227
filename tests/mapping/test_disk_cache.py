"""Tests for the persistent disk tier (repro.mapping.cache.DiskCache).

Covers the satellite checklist explicitly: the disk cache survives a
fresh process, a schema-version bump invalidates stale entries,
corrupted cache files are ignored (not fatal), and the tier composes
with the in-memory LRU (promotion on hit, write-through on store).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.mapping.cache as cache_mod
from repro.api import MappingSession, SessionConfig
from repro.frontend.extract import TargetBlock
from repro.library import Library, LibraryElement
from repro.mapping.cache import DiskCache, stable_digest
from repro.platform import Badge4, OperationTally, ProcessorSpec
from repro.symalg import Polynomial, symbols

x, y = symbols("x y")
PLATFORM = Badge4()
TARGET = x + x ** 3 * y ** 2 - 2 * x * y ** 3

_SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


from .conftest import demo_mapping_library as _demo_library


@pytest.fixture(autouse=True)
def _isolated(isolated_cache_env):
    yield


def _session(cache_dir) -> MappingSession:
    return MappingSession(SessionConfig(cache_dir=cache_dir))


class TestStableDigest:
    def test_covers_fingerprint_types(self):
        key = ("decompose", TARGET, (("a", 1.5), (True, None)),
               Polynomial.constant(0), float("inf"), 3)
        digest = stable_digest(key)
        assert len(digest) == 64
        assert digest == stable_digest(key)

    def test_distinguishes_semantically_different_keys(self):
        assert stable_digest((TARGET,)) != stable_digest((TARGET + 1,))
        assert stable_digest((1.0,)) != stable_digest((1,))

    def test_stable_across_processes(self, tmp_path):
        """Python hash() is seed-randomized; the digest must not be --
        neither for a bare polynomial nor for a full-ladder map key,
        whose library and block enter as content digests."""
        script = (
            "from repro.symalg import symbols\n"
            "from repro.library.builtin import full_library\n"
            "from repro.mapping.cache import stable_digest\n"
            "from repro.mapping.decompose import _map_block_key\n"
            "from repro.platform import Badge4\n"
            "from repro.workload.mp3 import imdct_block\n"
            "x, y = symbols('x y')\n"
            "print(stable_digest((x + x**3*y**2 - 2*x*y**3, 1e-9)))\n"
            "print(stable_digest(_map_block_key(imdct_block(), full_library(),\n"
            "                                   Badge4(), 1e-6, float('inf'))))\n")
        env = {**os.environ, "PYTHONPATH": _SRC_DIR, "PYTHONHASHSEED": "99"}
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        from repro.library.builtin import full_library
        from repro.mapping.decompose import _map_block_key
        from repro.workload.mp3 import imdct_block

        map_key = _map_block_key(imdct_block(), full_library(), PLATFORM,
                                 1e-6, float("inf"))
        assert out.stdout.split() == [stable_digest((TARGET, 1e-9)),
                                      stable_digest(map_key)]

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            stable_digest((object(),))


class TestDiskCacheStore:
    def test_put_get_roundtrip(self, tmp_path):
        tier = DiskCache(tmp_path / "store.sqlite")
        tier.put("k" * 64, {"value": 42})
        assert tier.get("k" * 64) == {"value": 42}
        assert tier.stats()["hits"] == 1
        assert tier.stats()["writes"] == 1

    def test_missing_key_misses(self, tmp_path):
        tier = DiskCache(tmp_path / "store.sqlite")
        assert tier.get("absent") is None
        assert tier.stats()["misses"] == 1

    def test_schema_bump_invalidates(self, tmp_path, monkeypatch):
        tier = DiskCache(tmp_path / "store.sqlite")
        digest = "s" * 64
        tier.put(digest, "old-world value")
        assert tier.get(digest) == "old-world value"
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION",
                            cache_mod.SCHEMA_VERSION + 1)
        assert tier.get(digest) is None

    def test_corrupted_file_is_ignored_not_fatal(self, tmp_path):
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"this is not an sqlite database, sorry")
        tier = DiskCache(path)
        assert tier.get("anything") is None     # no exception
        tier.put("anything", 1)                 # no exception
        assert tier.stats()["broken"]

    def test_clear_repairs_a_corrupted_store(self, tmp_path):
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"garbage")
        tier = DiskCache(path)
        assert tier.get("k") is None
        tier.clear()
        tier.put("k" * 64, [1, 2, 3])
        assert tier.get("k" * 64) == [1, 2, 3]

    def test_garbled_payload_is_a_miss(self, tmp_path):
        tier = DiskCache(tmp_path / "store.sqlite")
        digest = "g" * 64
        tier.put(digest, "fine")
        conn = tier._connection()
        conn.execute("UPDATE entries SET payload = ? WHERE key = ?",
                     (b"\x80\x05garbled", digest))
        conn.commit()
        assert tier.get(digest) is None


class TestDecomposeThroughTheTier:
    def test_write_through_and_promotion(self, tmp_path):
        session = _session(tmp_path)
        tier = session.tiers.disk()
        first = session.decompose(TARGET, _demo_library(), PLATFORM)
        assert tier.writes == 1
        session.tiers.clear_memory()           # memory cold, disk warm
        second = session.decompose(TARGET, _demo_library(), PLATFORM)
        assert tier.hits == 1
        assert second.best.element_names() == first.best.element_names()
        assert second.best.total_cycles == first.best.total_cycles
        # Promoted into the LRU: a third call never touches the disk.
        session.decompose(TARGET, _demo_library(), PLATFORM)
        assert tier.hits == 1

    def test_configured_cache_dir_receives_the_store(self, tmp_path):
        _session(tmp_path).decompose(TARGET, _demo_library(), PLATFORM)
        assert (tmp_path / "mapping_cache.sqlite").exists()

    def test_no_cache_env_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        MappingSession().decompose(TARGET, _demo_library(), PLATFORM)
        assert not (tmp_path / "mapping_cache.sqlite").exists()

    def test_corrupted_tier_still_computes(self, tmp_path):
        (tmp_path / "mapping_cache.sqlite").write_bytes(b"junk")
        result = _session(tmp_path).decompose(TARGET, _demo_library(),
                                              PLATFORM)
        assert result.best.element_names() == ["sq2y"]

    def test_cache_stats_reports_the_tier(self, tmp_path):
        session = _session(tmp_path)
        session.decompose(TARGET, _demo_library(), PLATFORM)
        session.tiers.clear_memory()
        session.decompose(TARGET, _demo_library(), PLATFORM)
        disk = session.stats()["disk"]
        assert disk["enabled"]
        assert disk["hits"] == 1
        assert 0.0 < disk["hit_rate"] <= 1.0

    def test_clear_caches_clears_the_disk_tier_too(self, tmp_path):
        session = _session(tmp_path)
        tier = session.tiers.disk()
        session.decompose(TARGET, _demo_library(), PLATFORM)
        assert tier.path.exists()
        session.clear_caches()
        assert not tier.path.exists()
        session.decompose(TARGET, _demo_library(), PLATFORM)
        assert tier.hits == 0                  # truly cold again


def _mac_block() -> TargetBlock:
    """A one-output block (a*b + c) both rival elements match exactly."""
    a, b, c = symbols("a b c")
    return TargetBlock(name="mini", outputs={"out": a * b + c},
                       input_variables=("a", "b", "c"))


def _rival_library() -> Library:
    """Two elements computing the same polynomial with opposite cost
    profiles, so the winner depends entirely on the platform's table."""
    i0, i1, i2 = (Polynomial.variable(n) for n in ("in0", "in1", "in2"))
    poly = i0 * i1 + i2
    return Library("rivals", [
        LibraryElement(name="mac_style", library="IH", polynomials=(poly,),
                       input_format="q", output_format="q", accuracy=1e-9,
                       cost=OperationTally(int_mac=1)),
        LibraryElement(name="fp_style", library="REF", polynomials=(poly,),
                       input_format="double", output_format="double",
                       accuracy=1e-9, cost=OperationTally(fp_add=1)),
    ])


def _spec(name: str, **overrides) -> ProcessorSpec:
    costs = {"int_alu": 1.0, "int_mul": 2.0, "int_mac": 3.0,
             "int_div": 70.0, "shift": 1.0, "fp_add": 420.0,
             "fp_mul": 560.0, "fp_div": 2400.0, "load": 2.0,
             "store": 1.0, "branch": 2.0, "call": 8.0}
    costs.update(overrides)
    return ProcessorSpec(name=name, clock_hz=100e6, has_fpu=False,
                         cycle_costs=costs, libm_costs={})


class TestPlatformIdentityInvalidation:
    """The fingerprint must cover platform identity: a changed cost
    table (or a schema bump) can never serve a stale cached winner."""

    def test_changed_cost_table_never_serves_stale_winner(self, tmp_path):
        session = _session(tmp_path)
        tier = session.tiers.disk()
        block, library = _mac_block(), _rival_library()

        cheap_mac = Badge4(processor=_spec("core-v1"))
        winner = session.map(block, library, cheap_mac).winner
        assert winner.element.name == "mac_style"
        assert tier.writes == 1

        # Same processor name, edited table: the MAC is now punitive.
        # A platform fingerprint that ignored the table would hit the
        # stale entry and keep the mac_style winner.
        session.tiers.clear_memory()
        dear_mac = Badge4(processor=_spec("core-v1", int_mac=10000.0,
                                          fp_add=1.0))
        winner2 = session.map(block, library, dear_mac).winner
        assert winner2.element.name == "fp_style"
        assert tier.writes == 2                # recomputed, not served

        # Both entries now coexist; each table still gets its own.
        session.tiers.clear_memory()
        again = session.map(block, library, cheap_mac).winner
        assert again.element.name == "mac_style"
        assert tier.writes == 2                # served from disk this time

    def test_schema_bump_never_serves_stale_winner(self, tmp_path,
                                                   monkeypatch):
        session = _session(tmp_path)
        tier = session.tiers.disk()
        block, library = _mac_block(), _rival_library()
        platform = Badge4(processor=_spec("core-v1"))

        session.map(block, library, platform)
        assert tier.writes == 1
        session.tiers.clear_memory()
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION",
                            cache_mod.SCHEMA_VERSION + 1)
        winner = session.map(block, library, platform).winner
        assert winner.element.name == "mac_style"
        assert tier.hits == 0                  # old-world entry invisible
        assert tier.writes == 2                # recomputed and re-stored


#: Runs the demo decomposition in a fresh interpreter, on a bare session
#: that takes its disk tier from REPRO_CACHE_DIR.  When EXPECT_WARM is
#: set, the uncached search is booby-trapped: only a disk hit can
#: produce a result, proving a second process skips decompose entirely.
_SUBPROCESS_SCRIPT = """
import os, sys
import repro.mapping.decompose as dec
if os.environ.get("EXPECT_WARM"):
    def boom(*args, **kwargs):
        raise SystemExit("cold decompose ran despite a warm disk tier")
    dec._decompose_uncached = boom
from repro.api import MappingSession
from repro.library import Library, LibraryElement
from repro.platform import Badge4, OperationTally
from repro.symalg import Polynomial, symbols
x, y = symbols("x y")
i0, i1 = Polynomial.variable("in0"), Polynomial.variable("in1")
library = Library("demo", [LibraryElement(
    name="sq2y", library="IH", polynomials=(i0**2 - 2*i1,),
    input_format="q", output_format="q", accuracy=1e-9,
    cost=OperationTally(int_mul=1, int_alu=1))])
session = MappingSession()
result = session.decompose(x + x**3*y**2 - 2*x*y**3, library, Badge4())
print("ELEMENTS", ",".join(result.best.element_names()))
print("CYCLES", result.best.total_cycles)
print("DISK_HITS", session.stats()["disk"]["hits"])
"""


class TestFreshProcessSurvival:
    def _run(self, cache_dir, *, expect_warm, hashseed):
        env = {**os.environ, "PYTHONPATH": _SRC_DIR,
               "REPRO_CACHE_DIR": str(cache_dir),
               "PYTHONHASHSEED": hashseed}
        env.pop("REPRO_NO_CACHE", None)
        if expect_warm:
            env["EXPECT_WARM"] = "1"
        else:
            env.pop("EXPECT_WARM", None)
        proc = subprocess.run([sys.executable, "-c", _SUBPROCESS_SCRIPT],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return dict(line.split(" ", 1)
                    for line in proc.stdout.strip().splitlines())

    def test_second_process_skips_decompose_entirely(self, tmp_path):
        # Different hash seeds: only the stable digest may carry the key.
        cold = self._run(tmp_path, expect_warm=False, hashseed="1")
        assert cold["DISK_HITS"] == "0"
        warm = self._run(tmp_path, expect_warm=True, hashseed="2")
        assert warm["DISK_HITS"] == "1"
        assert warm["ELEMENTS"] == cold["ELEMENTS"] == "sq2y"
        assert warm["CYCLES"] == cold["CYCLES"]
