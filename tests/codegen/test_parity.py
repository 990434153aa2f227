"""Pinned parity properties.

Three contracts hold bit-for-bit, enforced here over randomized inputs:

* the NumPy plan (:func:`repro.codegen.pysource.compile_kernel`)
  computes exactly what the :class:`repro.fixedpoint.Fixed` interpreter
  (:mod:`repro.codegen.fixedpt`) computes — same raw integers, same
  floats — over random polynomials, Q-formats on both the ``int64`` and
  the Python-int path, both overflow modes, float32 overflow, and 1 to
  64 vectors per call;
* the emitted Python source (:func:`repro.codegen.pysource.emit_python`),
  which nothing in the package runs, computes the same when this suite
  ``exec``\\ s it;
* ``measure=`` is an *opt-in observation*: at its default,
  :meth:`MappingSession.pareto` produces canonical JSON byte-identical
  to a session that has never heard of measurement.
"""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import pysource
from repro.codegen.fixedpt import (
    NumericFormat,
    interpret,
    interpret_raw,
    parse_format,
)
from repro.codegen.lower import lower_polynomials
from repro.codegen.pysource import compile_kernel, emit_python
from repro.fixedpoint import QFormat
from repro.symalg import Polynomial

# Planning or emitting per example is ~1 ms; keep example counts modest
# and drop the deadline (first-example import warm-up would trip it).
SETTINGS = settings(max_examples=60, deadline=None)

# Random dense-ish polynomials in x, y: exponent pairs up to cubic,
# small integer coefficients (halves included, exercising from_fraction
# rounding against dyadic and non-dyadic constants alike).
coefficients = st.fractions(
    min_value=-16, max_value=16, max_denominator=8)
polynomials = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    coefficients,
    min_size=1,
    max_size=5,
).map(lambda terms: Polynomial.from_dict(terms, ("x", "y")))

overflow_modes = st.sampled_from(["saturate", "wrap"])

# Q-formats small enough that products overflow often (saturation and
# wrap paths both get exercised); all run on the int64 path.
qformats = st.builds(
    QFormat,
    st.integers(0, 6),
    st.integers(1, 15),
    overflow_modes,
).filter(lambda fmt: fmt.int_bits + fmt.frac_bits >= 1)

# Up to 40 integer bits: most pairs are wider than 32 bits and run on
# Python ints; a zero-fraction format multiplies without rounding.
wide_qformats = st.tuples(
    st.integers(0, 40),
    st.integers(0, 24),
    overflow_modes,
).filter(lambda bits: bits[0] + bits[1] >= 1).map(lambda bits: QFormat(*bits))

values = st.floats(min_value=-8.0, max_value=8.0,
                   allow_nan=False, allow_infinity=False)
wide_values = st.floats(min_value=-2.0 ** 20, max_value=2.0 ** 20,
                        allow_nan=False, allow_infinity=False)
# Beyond float32's range once multiplied: products overflow to +-inf
# and inf - inf gives NaN.
huge_values = st.floats(min_value=-1e30, max_value=1e30,
                        allow_nan=False, allow_infinity=False)


def _numeric(fmt: QFormat) -> NumericFormat:
    return NumericFormat(f"q{fmt.int_bits}.{fmt.frac_bits}", "fixed", fmt)


def _kernel(poly: Polynomial):
    return lower_polynomials("prop", {"out": poly}, ("x", "y"))


def _interpreted(kernel, in_fmt, out_fmt, vectors) -> list:
    return [[interpret(kernel, in_fmt, out_fmt, vector)["out"]]
            for vector in vectors]


def _same(got, want) -> bool:
    """Equal as floats, NaN matching NaN."""
    return np.array_equal(np.asarray(got, dtype=np.float64),
                          np.asarray(want, dtype=np.float64), equal_nan=True)


def _vectors(elements):
    return st.lists(st.tuples(elements, elements), min_size=1, max_size=64)


class TestFixedParity:
    @SETTINGS
    @given(poly=polynomials, fmt=qformats, out_fmt=qformats,
           vectors=_vectors(values))
    def test_run_vectors_matches_interpreter(self, poly, fmt, out_fmt,
                                             vectors):
        kernel = _kernel(poly)
        in_n, out_n = _numeric(fmt), _numeric(out_fmt)
        compiled = compile_kernel(kernel, in_n, out_n)
        assert compiled.run_vectors(vectors).tolist() == \
            _interpreted(kernel, in_n, out_n, vectors)

    @SETTINGS
    @given(poly=polynomials, fmt=wide_qformats, out_fmt=wide_qformats,
           vectors=_vectors(wide_values))
    def test_wide_formats_match_interpreter(self, poly, fmt, out_fmt,
                                            vectors):
        kernel = _kernel(poly)
        in_n, out_n = _numeric(fmt), _numeric(out_fmt)
        compiled = compile_kernel(kernel, in_n, out_n)
        assert compiled.run_vectors(vectors).tolist() == \
            _interpreted(kernel, in_n, out_n, vectors)

    @SETTINGS
    @given(poly=polynomials, fmt=qformats, out_fmt=qformats,
           x=values, y=values)
    def test_run_matches_interpreter(self, poly, fmt, out_fmt, x, y):
        kernel = _kernel(poly)
        in_n, out_n = _numeric(fmt), _numeric(out_fmt)
        compiled = compile_kernel(kernel, in_n, out_n)
        env = {"x": x, "y": y}
        assert compiled.run(env) == interpret(kernel, in_n, out_n, env)

    @SETTINGS
    @given(poly=polynomials,
           fmt=st.one_of(qformats, wide_qformats),
           out_fmt=st.one_of(qformats, wide_qformats),
           raw_x=st.integers(-(1 << 70), 1 << 70),
           raw_y=st.integers(-(1 << 24), 1 << 24))
    def test_run_raw_matches_interpreter(self, poly, fmt, out_fmt,
                                         raw_x, raw_y):
        # Raw inputs deliberately exceed the format range: the plan
        # must clamp them exactly as Fixed.__init__ does.
        kernel = _kernel(poly)
        compiled = compile_kernel(kernel, _numeric(fmt), _numeric(out_fmt))
        assert compiled.run_raw(raw_x, raw_y) == \
            interpret_raw(kernel, fmt, out_fmt, [raw_x, raw_y])

    @pytest.mark.parametrize("label", ["q16.15", "s16", "float", "double"])
    def test_long_stimulus_runs_chunk_by_chunk(self, label):
        """A stimulus longer than a few chunks gives what each vector
        gives on its own, across every chunk boundary."""
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        kernel = _kernel(x ** 3 * y - 5 * x * y + Polynomial.constant(0.75))
        fmt = parse_format(label)
        compiled = compile_kernel(kernel, fmt, fmt)
        n = 3 * pysource._CHUNK + 5
        vectors = [((i % 17) / 4 - 2, (i % 11) / 8 - 0.6) for i in range(n)]
        assert _same(compiled.run_vectors(vectors),
                     _interpreted(kernel, fmt, fmt, vectors))

    @pytest.mark.parametrize("bad, error", [
        (float("nan"), ValueError),
        (float("inf"), OverflowError),
        (-float("inf"), OverflowError),
        (1e308, OverflowError),  # finite, but infinite once scaled
    ])
    def test_non_finite_input_raises_as_the_interpreter_does(self, bad,
                                                             error):
        x, y = Polynomial.variable("x"), Polynomial.variable("y")
        kernel = _kernel(x * y + 1)
        fmt = parse_format("q16.15")
        with pytest.raises(error):
            interpret(kernel, fmt, fmt, (1.0, bad))
        compiled = compile_kernel(kernel, fmt, fmt)
        with pytest.raises(error):
            compiled.run_vectors([(0.5, 0.5), (1.0, bad)])


class TestFloatParity:
    @SETTINGS
    @given(poly=polynomials, vectors=_vectors(values),
           label=st.sampled_from(["float", "double"]),
           out_label=st.sampled_from(["float", "double"]))
    def test_float_kernels_match_interpreter(self, poly, vectors, label,
                                             out_label):
        kernel = _kernel(poly)
        fmt, out_fmt = parse_format(label), parse_format(out_label)
        compiled = compile_kernel(kernel, fmt, out_fmt)
        assert _same(compiled.run_vectors(vectors),
                     _interpreted(kernel, fmt, out_fmt, vectors))
        env = {"x": vectors[0][0], "y": vectors[0][1]}
        assert _same(list(compiled.run(env).values()),
                     list(interpret(kernel, fmt, out_fmt, env).values()))

    @SETTINGS
    @given(poly=polynomials, vectors=_vectors(huge_values),
           out_label=st.sampled_from(["float", "double"]))
    def test_float32_overflow_matches_interpreter(self, poly, vectors,
                                                  out_label):
        kernel = _kernel(poly)
        fmt, out_fmt = parse_format("float"), parse_format(out_label)
        compiled = compile_kernel(kernel, fmt, out_fmt)
        assert _same(compiled.run_vectors(vectors),
                     _interpreted(kernel, fmt, out_fmt, vectors))

    def test_float32_overflows_to_signed_infinity(self):
        x = Polynomial.variable("x")
        kernel = lower_polynomials("cube", {"out": x ** 3}, ("x",))
        fmt = parse_format("float")
        got = compile_kernel(kernel, fmt, fmt).run_vectors([(1e20,), (-1e20,)])
        assert got.tolist() == [[math.inf], [-math.inf]]
        assert got.tolist() == _interpreted(kernel, fmt, fmt,
                                            [(1e20,), (-1e20,)])


def _exec_emitted(kernel, in_fmt, out_fmt) -> dict:
    namespace: dict = {}
    source = emit_python(kernel, in_fmt, out_fmt)
    exec(compile(source, f"<emitted:{kernel.name}>", "exec"), namespace)
    return namespace


class TestEmittedSourceParity:
    @SETTINGS
    @given(poly=polynomials, fmt=qformats, out_fmt=qformats,
           x=values, y=values)
    def test_emitted_run_matches_interpreter(self, poly, fmt, out_fmt, x, y):
        kernel = _kernel(poly)
        in_n, out_n = _numeric(fmt), _numeric(out_fmt)
        run = _exec_emitted(kernel, in_n, out_n)["run"]
        env = {"x": x, "y": y}
        assert run(env) == interpret(kernel, in_n, out_n, env)

    @SETTINGS
    @given(poly=polynomials, fmt=qformats, out_fmt=qformats,
           raw_x=st.integers(-(1 << 24), 1 << 24),
           raw_y=st.integers(-(1 << 24), 1 << 24))
    def test_emitted_run_raw_matches_interpreter(self, poly, fmt, out_fmt,
                                                 raw_x, raw_y):
        kernel = _kernel(poly)
        run_raw = _exec_emitted(kernel, _numeric(fmt),
                                _numeric(out_fmt))["run_raw"]
        assert run_raw(raw_x, raw_y) == \
            interpret_raw(kernel, fmt, out_fmt, [raw_x, raw_y])

    @SETTINGS
    @given(poly=polynomials, x=values, y=values,
           label=st.sampled_from(["float", "double"]))
    def test_emitted_float_kernels_match_interpreter(self, poly, x, y,
                                                     label):
        kernel = _kernel(poly)
        fmt = parse_format(label)
        run = _exec_emitted(kernel, fmt, fmt)["run"]
        env = {"x": x, "y": y}
        assert run(env) == interpret(kernel, fmt, fmt, env)


def test_codegen_package_compiles_and_execs_nothing():
    """No module of ``repro.codegen`` calls the builtins ``compile`` or
    ``exec`` (``re.compile`` is an attribute call, so it does not
    count)."""
    package = Path(pysource.__file__).parent
    calls = [
        (path.name, node.lineno)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id in ("compile", "exec", "eval")
    ]
    assert calls == []


class TestParetoWireParity:
    @pytest.fixture(autouse=True)
    def _isolated(self, isolated_cache_env):
        yield

    def test_default_bytes_unchanged_by_measure_false(self):
        from repro.api import MappingSession

        session = MappingSession()
        plain = session.pareto("inv_mdctL", ("LM", "IH")).to_json()
        off = session.pareto("inv_mdctL", ("LM", "IH"),
                             measure=False).to_json()
        assert plain == off

    def test_measured_payload_is_plain_plus_observations(self):
        from repro.api import MappingSession

        session = MappingSession()
        plain = json.loads(session.pareto("inv_mdctL", ("LM", "IH"))
                           .to_json())
        measured = json.loads(session.pareto("inv_mdctL", ("LM", "IH"),
                                             measure=True).to_json())
        for point in measured["front"]:
            assert isinstance(point.pop("measured_accuracy"), float)
            assert isinstance(point.pop("snr_db"), float)
        assert measured == plain

    def test_measure_does_not_poison_the_cache(self):
        """A measured call must not leave observations behind for later
        default calls served from the same warm cache."""
        from repro.api import MappingSession

        session = MappingSession()
        cold = session.pareto("inv_mdctL", ("LM", "IH")).to_json()
        session.pareto("inv_mdctL", ("LM", "IH"), measure=True)
        warm = session.pareto("inv_mdctL", ("LM", "IH")).to_json()
        assert warm == cold
