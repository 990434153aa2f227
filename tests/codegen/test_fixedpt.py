"""Format parsing and the dependency-free kernel interpreter."""

import math

import pytest

from repro.codegen.fixedpt import (
    element_formats,
    interpret,
    interpret_raw,
    parse_format,
    quantize_raw,
    to_float32,
)
from repro.codegen.lower import lower_polynomials
from repro.errors import CodegenError
from repro.fixedpoint import Q15, QFormat
from repro.symalg import symbols

x, = symbols("x")


def _square_plus_three():
    return lower_polynomials(
        "sq", {"out": x**2 + 3}, ("x",))


class TestParseFormat:
    def test_double(self):
        fmt = parse_format("double")
        assert fmt.kind == "float64" and not fmt.is_fixed

    def test_float(self):
        fmt = parse_format("float")
        assert fmt.kind == "float32" and not fmt.is_fixed

    def test_s16_is_q15(self):
        assert parse_format("s16").qformat == Q15

    def test_q_label(self):
        fmt = parse_format("q5.26")
        assert fmt.is_fixed
        assert fmt.qformat == QFormat(5, 26)

    def test_capital_q(self):
        assert parse_format("Q1.30").qformat == QFormat(1, 30)

    @pytest.mark.parametrize("label", ["int32", "q5", "q-1.2", "", "5.26"])
    def test_unknown_label_raises(self, label):
        with pytest.raises(CodegenError, match="unsupported numeric format"):
            parse_format(label)

    def test_element_formats(self):
        from repro.library import full_library

        element = next(e for e in full_library()
                       if e.input_format == "q5.26")
        in_fmt, out_fmt = element_formats(element)
        assert in_fmt.qformat == QFormat(5, 26)
        assert out_fmt.name == element.output_format


class TestHelpers:
    def test_quantize_raw_rounds_half_up(self):
        fmt = QFormat(3, 4)  # scale 16
        assert quantize_raw(0.5, fmt) == 8
        assert quantize_raw(1.03125, fmt) == 17  # 16.5 -> floor(17.0)

    def test_quantize_raw_saturates(self):
        fmt = QFormat(3, 4)
        assert quantize_raw(100.0, fmt) == fmt.raw_max
        assert quantize_raw(-100.0, fmt) == fmt.raw_min

    def test_to_float32_rounds(self):
        assert to_float32(0.1) != 0.1
        assert to_float32(0.5) == 0.5

    def test_to_float32_overflows_to_inf(self):
        assert to_float32(1e300) == math.inf
        assert to_float32(-1e300) == -math.inf


class TestInterpretFixed:
    def test_mapping_and_sequence_inputs_agree(self):
        kernel = _square_plus_three()
        q = parse_format("q5.26")
        assert interpret(kernel, q, q, {"x": 1.5}) == \
            interpret(kernel, q, q, [1.5])

    def test_exact_dyadic_value(self):
        kernel = _square_plus_three()
        q = parse_format("q5.26")
        assert interpret(kernel, q, q, {"x": 1.5}) == {"out": 5.25}

    def test_output_conversion_rounds_excess_fraction(self):
        kernel = lower_polynomials(
            "idy", {"out": x}, ("x",))
        q5_26, s16 = parse_format("q5.26"), parse_format("s16")
        raw, = interpret_raw(kernel, q5_26.qformat, s16.qformat, [1 << 11])
        # 2^11 raw in Q5.26 is 2^-15: exactly one Q0.15 LSB.
        assert raw == 1

    def test_saturation_on_overflowing_product(self):
        kernel = lower_polynomials(
            "sq", {"out": x**2}, ("x",))
        q = parse_format("q2.4")
        got = interpret(kernel, q, q, {"x": 3.5})
        assert got["out"] == q.qformat.raw_max / q.qformat.scale

    def test_missing_named_input_raises(self):
        with pytest.raises(CodegenError, match="missing"):
            interpret(_square_plus_three(), parse_format("q5.26"),
                      parse_format("q5.26"), {"y": 1.0})

    def test_wrong_arity_raises(self):
        with pytest.raises(CodegenError, match="takes 1 inputs"):
            interpret(_square_plus_three(), parse_format("q5.26"),
                      parse_format("q5.26"), [1.0, 2.0])

    def test_raw_arity_raises(self):
        with pytest.raises(CodegenError, match="takes 1 inputs"):
            interpret_raw(_square_plus_three(), QFormat(5, 26),
                          QFormat(5, 26), [1, 2])

    def test_mixed_fixed_float_binding_raises(self):
        with pytest.raises(CodegenError, match="mixed fixed/float"):
            interpret(_square_plus_three(), parse_format("q5.26"),
                      parse_format("double"), {"x": 1.0})


class TestInterpretFloat:
    def test_double_is_exact_ieee(self):
        kernel = _square_plus_three()
        double = parse_format("double")
        got = interpret(kernel, double, double, {"x": 0.1})
        assert got["out"] == 0.1 * 0.1 + 3.0

    def test_float32_quantizes_intermediates(self):
        kernel = _square_plus_three()
        single = parse_format("float")
        got = interpret(kernel, single, single, {"x": 0.1})
        x = to_float32(0.1)
        assert got["out"] == to_float32(to_float32(x * x) + 3.0)
