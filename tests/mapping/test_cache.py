"""Tests for the mapping-layer memoization (repro.mapping.cache)."""

import dataclasses
import math

import pytest

from repro.api import MappingSession, SessionConfig
from repro.frontend.extract import TargetBlock
from repro.library import Library, LibraryElement
from repro.mapping import fingerprint_library, fingerprint_platform
from repro.mapping.cache import (LRUCache, element_digest,
                                 fingerprint_element, fingerprint_tally,
                                 stable_digest)
from repro.mapping.decompose import _map_block_key
from repro.workload.mp3 import imdct_block
from repro.library.builtin import full_library
from repro.platform import Badge4, OperationTally
from repro.platform.processor import SA1110, ProcessorSpec
from repro.symalg import Polynomial, symbols

x, y = symbols("x y")
PLATFORM = Badge4()


def _demo_library(cost_mul=1):
    i0 = Polynomial.variable("in0")
    i1 = Polynomial.variable("in1")
    return Library("demo", [LibraryElement(
        name="sq2y", library="IH", polynomials=(i0 ** 2 - 2 * i1,),
        input_format="q", output_format="q", accuracy=1e-9,
        cost=OperationTally(int_mul=cost_mul, int_alu=1))])


def _session() -> MappingSession:
    return MappingSession(SessionConfig())


class TestLRUCache:
    def test_put_get_roundtrip(self):
        cache = LRUCache(maxsize=4, name="t")
        cache.put("k", 42)
        assert cache.get("k") == 42
        assert cache.stats()["hits"] == 1

    def test_eviction_is_least_recently_used(self):
        cache = LRUCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")          # touch "a": now "b" is the LRU entry
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.get("c") == 3

    def test_clear_resets_counters(self):
        cache = LRUCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats() == {"size": 0, "maxsize": 2,
                                 "hits": 0, "misses": 0, "evictions": 0}

    def test_eviction_counter(self):
        cache = LRUCache(maxsize=2, name="t")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.stats()["evictions"] == 1

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)


class TestFingerprints:
    def test_tally_fingerprint_covers_libm(self):
        a = OperationTally(int_mul=1)
        b = OperationTally(int_mul=1)
        b.libm("pow", 3)
        assert fingerprint_tally(a) != fingerprint_tally(b)
        assert fingerprint_tally(a) == fingerprint_tally(OperationTally(int_mul=1))

    def test_element_fingerprint_sees_cost_changes(self):
        lib_a = _demo_library(cost_mul=1)
        lib_b = _demo_library(cost_mul=7)
        def fp(lib):
            return fingerprint_element(next(iter(lib)))
        assert fp(lib_a) != fp(lib_b)

    def test_library_fingerprint_is_order_independent(self):
        i0 = Polynomial.variable("in0")
        e1 = LibraryElement(name="a", library="IH", polynomials=(i0 ** 2,),
                            input_format="q", output_format="q",
                            accuracy=0.0, cost=OperationTally(int_mul=1))
        e2 = LibraryElement(name="b", library="IH", polynomials=(i0 ** 3,),
                            input_format="q", output_format="q",
                            accuracy=0.0, cost=OperationTally(int_mul=2))
        assert fingerprint_library(Library("x", [e1, e2])) == \
            fingerprint_library(Library("y", [e2, e1]))

    def test_platform_fingerprint_stable_across_instances(self):
        assert fingerprint_platform(Badge4()) == fingerprint_platform(Badge4())


_IN0, _IN1 = Polynomial.variable("in0"), Polynomial.variable("in1")
_ELEMENT = LibraryElement(
    name="sq2y", library="IH", polynomials=(_IN0 ** 2 - 2 * _IN1,),
    input_format="q", output_format="q", accuracy=1e-9,
    cost=OperationTally(int_mul=1, int_alu=1))
_BLOCK = TargetBlock(name="blk", outputs={"o": x ** 2 - 2 * y},
                     input_variables=("x", "y"))
_BASES = {"element": _ELEMENT, "spec": SA1110, "block": _BLOCK}

#: One changed value per field the mapper reads.
_READ = {
    "element": {
        "name": "sq2y_b",
        "library": "IPP",
        "polynomials": (_IN0 ** 2 - 3 * _IN1,),
        "input_format": "s16",
        "output_format": "q5.26",
        "accuracy": 1e-6,
        "cost": OperationTally(int_mul=2, int_alu=1),
    },
    "spec": {
        "name": "SA-1110b",
        "clock_hz": SA1110.clock_hz / 2,
        "has_fpu": not SA1110.has_fpu,
        "cycle_costs": {**SA1110.cycle_costs, "int_mul": 9.0},
        "libm_costs": {**SA1110.libm_costs, "pow": 1.0},
        "libm_default": SA1110.libm_default + 1,
    },
    "block": {
        "name": "blk_b",
        "outputs": {"o": x ** 2 - 3 * y},
        "input_variables": ("y", "x"),
    },
}
#: One changed value per field the mapper deliberately never reads.
_IGNORED = {
    "element": {"kernel": len, "description": "prose"},
    "spec": {"description": "prose"},
    "block": {},
}


def _key(element=_ELEMENT, spec=SA1110, block=_BLOCK) -> tuple:
    library = Library("lib", [element])
    return _map_block_key(block, library, Badge4(processor=spec),
                          1e-6, math.inf)


def _variant(part: str, field: str, value) -> tuple:
    return _key(**{part: dataclasses.replace(_BASES[part], **{field: value})})


class TestFingerprintSoundness:
    """Changing any one field the mapper reads changes both the map key
    and its stable digest; fields it never reads change neither.  The
    field lists are checked against the dataclasses, so a new field
    cannot slip past the fingerprint unnoticed."""

    @pytest.mark.parametrize("part, cls", [
        ("element", LibraryElement),
        ("spec", ProcessorSpec),
        ("block", TargetBlock),
    ])
    def test_every_field_is_read_or_deliberately_ignored(self, part, cls):
        fields = {f.name for f in dataclasses.fields(cls)}
        assert fields == set(_READ[part]) | set(_IGNORED[part])

    @pytest.mark.parametrize("part, field, value", [
        (part, field, value)
        for part, changes in _READ.items()
        for field, value in changes.items()
    ])
    def test_changing_a_read_field_changes_key_and_digest(
            self, part, field, value):
        changed = _variant(part, field, value)
        assert changed != _key()
        assert stable_digest(changed) != stable_digest(_key())

    @pytest.mark.parametrize("part, field, value", [
        (part, field, value)
        for part, changes in _IGNORED.items()
        for field, value in changes.items()
    ])
    def test_changing_an_ignored_field_keeps_the_key(self, part, field, value):
        same = _variant(part, field, value)
        assert same == _key()
        assert stable_digest(same) == stable_digest(_key())

    @pytest.mark.parametrize("field, value", _READ["element"].items())
    def test_changing_a_read_field_changes_the_element_digest(self, field, value):
        changed = dataclasses.replace(_ELEMENT, **{field: value})
        assert element_digest(changed) != element_digest(_ELEMENT)

    @pytest.mark.parametrize("field, value", _IGNORED["element"].items())
    def test_changing_an_ignored_field_keeps_the_element_digest(self, field, value):
        same = dataclasses.replace(_ELEMENT, **{field: value})
        assert element_digest(same) == element_digest(_ELEMENT)

    def test_element_digest_is_not_pickled_or_copied(self):
        import copy
        import pickle

        element = dataclasses.replace(_ELEMENT)
        digest = element_digest(element)
        assert digest.encode("ascii") not in pickle.dumps(element)
        for twin in (pickle.loads(pickle.dumps(element)), copy.copy(element),
                     copy.deepcopy(element)):
            assert "_content_digest" not in vars(twin)
            assert twin == element
            assert element_digest(twin) == digest


def _leaves(obj):
    if isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _leaves(item)
    else:
        yield obj


class TestKeySize:
    """A map key is a handful of content digests: the megabytes of
    exact coefficients in a full-ladder library and a 64-output block
    must never be inlined into it again (the key is re-digested on
    every service request)."""

    def test_idct8x8_full_ladder_key_has_no_inline_polynomials(self):
        from repro.workload import get_workload

        spec = next(s for s in get_workload("jpeg_idct").workload.block_specs()
                    if s.name == "idct8x8")
        key = _map_block_key(spec.build(), full_library(),
                             Badge4(processor=SA1110), 1e-6, math.inf)
        leaves = list(_leaves(key))
        assert not any(isinstance(leaf, Polynomial) for leaf in leaves)
        assert sum(len(repr(leaf)) for leaf in leaves) < 16 * 1024


class TestDecomposeMemoization:
    TARGET = x + x ** 3 * y ** 2 - 2 * x * y ** 3

    def test_repeat_is_a_hit_even_with_rebuilt_library(self):
        session = _session()
        first = session.decompose(self.TARGET, _demo_library(), PLATFORM)
        second = session.decompose(self.TARGET, _demo_library(), PLATFORM)
        assert second is first
        assert session.stats()["decompose"]["hits"] == 1

    def test_different_knobs_miss(self):
        session = _session()
        session.decompose(self.TARGET, _demo_library(), PLATFORM)
        session.decompose(self.TARGET, _demo_library(), PLATFORM, max_depth=2)
        stats = session.stats()["decompose"]
        assert stats["misses"] == 2
        assert stats["hits"] == 0

    def test_changed_element_cost_misses(self):
        session = _session()
        a = session.decompose(self.TARGET, _demo_library(cost_mul=1), PLATFORM)
        b = session.decompose(self.TARGET, _demo_library(cost_mul=9), PLATFORM)
        assert b is not a
        assert session.stats()["decompose"]["misses"] == 2

    def test_clear_forces_recompute(self):
        session = _session()
        first = session.decompose(self.TARGET, _demo_library(), PLATFORM)
        session.clear_caches()
        second = session.decompose(self.TARGET, _demo_library(), PLATFORM)
        assert second is not first
        assert second.best.element_names() == first.best.element_names()
        assert second.best.total_cycles == first.best.total_cycles


class TestMapBlockMemoization:
    def test_block_hit_returns_equal_winner_and_fresh_list(self):
        session = _session()
        block = imdct_block()
        library = full_library()
        first = session.map(block, library, PLATFORM)
        second = session.map(block, library, PLATFORM)
        assert second.winner is first.winner
        assert second.matches == first.matches
        assert session.stats()["map_block"]["hits"] == 1

    def test_no_match_is_cached_too(self):
        session = _session()
        block = imdct_block()
        empty = Library("empty")
        for _ in range(2):
            result = session.map(block, empty, PLATFORM)
            assert (result.winner, result.matches) == (None, ())
        assert session.stats()["map_block"]["hits"] == 1
