"""Tests for library elements and the catalog."""

import pytest

from repro.errors import LibraryError
from repro.library import (Library, LibraryElement, formal_inputs,
                           full_library, ipp_library, reference_library)
from repro.platform import OperationTally
from repro.symalg import Polynomial


def scalar_element(name="e", library="IH", arity=1, accuracy=1e-6):
    formals = formal_inputs(arity)
    poly = Polynomial.one()
    for f in formals:
        poly = poly * Polynomial.variable(f)
    return LibraryElement(name=name, library=library, polynomials=(poly,),
                          input_format="q", output_format="q",
                          accuracy=accuracy, cost=OperationTally(int_mul=1))


class TestElement:
    def test_formal_inputs(self):
        assert formal_inputs(3) == ("in0", "in1", "in2")

    def test_arity(self):
        assert scalar_element(arity=2).arity == 2

    def test_polynomial_accessor_single(self):
        e = scalar_element()
        assert e.polynomial == Polynomial.variable("in0")

    def test_polynomial_accessor_multi_raises(self):
        e = LibraryElement(
            name="multi", library="IPP",
            polynomials=(Polynomial.variable("in0"), Polynomial.variable("in1")),
            input_format="q", output_format="q", accuracy=0,
            cost=OperationTally())
        with pytest.raises(LibraryError):
            _ = e.polynomial

    def test_output_symbols(self):
        e = scalar_element(name="foo")
        assert e.output_symbol() == "foo_out"

    def test_bad_library_tag(self):
        with pytest.raises(LibraryError):
            LibraryElement(name="x", library="ACME",
                           polynomials=(Polynomial.one(),),
                           input_format="q", output_format="q",
                           accuracy=0, cost=OperationTally())

    def test_no_polynomials_raises(self):
        with pytest.raises(LibraryError):
            LibraryElement(name="x", library="IH", polynomials=(),
                           input_format="q", output_format="q",
                           accuracy=0, cost=OperationTally())

    def test_negative_accuracy_raises(self):
        with pytest.raises(LibraryError):
            scalar_element(accuracy=-1)


class TestCatalog:
    def test_add_and_get(self):
        lib = Library("t")
        lib.add(scalar_element("a"))
        assert lib.get("a").name == "a"
        assert "a" in lib
        assert len(lib) == 1

    def test_duplicate_raises(self):
        lib = Library("t", [scalar_element("a")])
        with pytest.raises(LibraryError):
            lib.add(scalar_element("a"))

    def test_missing_raises(self):
        with pytest.raises(LibraryError):
            Library("t").get("ghost")

    def test_union(self):
        combined = Library.union(Library("x", [scalar_element("a")]),
                                 Library("y", [scalar_element("b")]))
        assert len(combined) == 2

    def test_union_collision_raises(self):
        with pytest.raises(LibraryError):
            Library.union(Library("x", [scalar_element("a")]),
                          Library("y", [scalar_element("a")]))


class TestBuiltinLibraries:
    def test_lm_has_four_log_story_elements(self):
        """The intro's example: four log implementations across LM+IH."""
        full = full_library()
        logs = full.implementations_of("log")
        assert {"log_double", "logf_float", "fx_log_bitwise",
                "fx_log_poly"} <= {e.name for e in logs}

    def test_ipp_has_the_two_complex_elements(self):
        ipp = ipp_library()
        assert "ippsSynthPQMF_MP3_32s16s" in ipp
        assert "IppsMDCTInv_MP3_32s" in ipp

    def test_imdct_elements_have_36_outputs(self):
        ref = reference_library()
        assert ref.get("float_IMDCT").n_outputs == 36

    def test_synthesis_elements_have_64_outputs(self):
        ref = reference_library()
        assert ref.get("float_SubBandSyn").n_outputs == 64

    def test_full_library_element_count(self):
        assert len(full_library()) == 36

    def test_accuracy_ladder(self):
        """double < float < fixed accuracy loss, as characterized."""
        lib = full_library()
        assert (lib.get("log_double").accuracy
                < lib.get("logf_float").accuracy
                < lib.get("fx_log_bitwise").accuracy)


class TestElementSerialization:
    """Elements must cross process/disk boundaries (batch engine)."""

    def test_module_level_kernel_survives_pickle(self):
        import pickle
        element = full_library().get("fx_exp")
        clone = pickle.loads(pickle.dumps(element))
        assert clone.kernel is element.kernel
        assert clone.polynomials == element.polynomials

    def test_unpicklable_kernel_is_dropped_not_fatal(self):
        import pickle
        element = LibraryElement(
            name="lam", library="IH",
            polynomials=(Polynomial.variable("in0") ** 2,),
            input_format="q", output_format="q", accuracy=0.0,
            cost=OperationTally(int_mul=1), kernel=lambda v: v * v)
        clone = pickle.loads(pickle.dumps(element))
        assert clone.kernel is None
        assert clone.name == "lam"
        assert clone.polynomials == element.polynomials
        assert clone.cost.int_mul == 1

    def test_whole_library_pickles(self):
        import pickle
        lib = full_library()
        elements = pickle.loads(pickle.dumps(tuple(lib)))
        assert [e.name for e in elements] == [e.name for e in lib]

    def test_copies_keep_closure_kernels_only_pickles_shed_them(self):
        """__getstate__'s kernel-drop is a *pickle* contract; plain
        copies must keep the callable (the copy module also routes
        through __getstate__ unless copying is implemented directly)."""
        import copy
        element = LibraryElement(
            name="lam", library="IH",
            polynomials=(Polynomial.variable("in0") ** 2,),
            input_format="q", output_format="q", accuracy=0.0,
            cost=OperationTally(int_mul=1), kernel=lambda v: v * v)
        assert copy.copy(element).kernel(3) == 9
        deep = copy.deepcopy(element)
        assert deep.kernel(4) == 16
        assert deep.cost is not element.cost   # still a deep copy
        # Shared references stay shared (memo protocol respected).
        pair = copy.deepcopy({"a": element, "b": element})
        assert pair["a"] is pair["b"]
