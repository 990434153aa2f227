"""Pinned rounding and saturation semantics.

``repro.codegen`` bakes these exact behaviours into emitted source as
integer literals, so they are load-bearing contracts, not
implementation details.  Every rule the emitter inlines is pinned here
explicitly:

* ``_round_shift`` rounds half **toward +infinity** (add half, shift
  right — arithmetic shift floors, so ties go up for both signs);
* ``from_float`` is ``floor(value * scale + 0.5)`` then clamp;
* ``from_fraction`` rounds exact rationals the same way;
* saturate / wrap / raise overflow policies behave as two's-complement
  hardware does.

If any of these change, the parity suite in ``tests/codegen`` and
every generated kernel change meaning — this file makes that loud.
"""

from fractions import Fraction

import pytest

from repro.errors import FixedPointError
from repro.fixedpoint import Fixed, Q15, Q5_26, QFormat
from repro.fixedpoint.fixed import _round_shift
from repro.fixedpoint.fxmath import fx_sqrt


class TestRoundShift:
    """Half-up (toward +inf) rounding on arithmetic right shift."""

    def test_positive_tie_rounds_up(self):
        assert _round_shift(3, 1) == 2  # 1.5 -> 2

    def test_negative_tie_rounds_toward_plus_inf(self):
        assert _round_shift(-3, 1) == -1  # -1.5 -> -1

    def test_positive_below_tie_rounds_down(self):
        assert _round_shift(5, 2) == 1  # 1.25 -> 1

    def test_negative_below_tie_rounds_to_nearest(self):
        assert _round_shift(-5, 2) == -1  # -1.25 -> -1

    def test_zero_shift_is_identity(self):
        assert _round_shift(7, 0) == 7

    def test_negative_shift_is_left_shift(self):
        assert _round_shift(7, -3) == 56

    @pytest.mark.parametrize("value", range(-8, 9))
    def test_matches_float_half_up(self, value):
        import math
        assert _round_shift(value, 1) == math.floor(value / 2 + 0.5)


class TestFromFloat:
    def test_is_floor_scale_plus_half(self):
        # 0.3 * 2^15 = 9830.4 -> 9830
        assert Fixed.from_float(0.3, Q15).raw == 9830

    def test_tie_rounds_up(self):
        fmt = QFormat(3, 2)  # scale 4
        assert Fixed.from_float(0.375, fmt).raw == 2  # 1.5 -> 2

    def test_negative_tie_rounds_toward_plus_inf(self):
        fmt = QFormat(3, 2)
        assert Fixed.from_float(-0.375, fmt).raw == -1  # -1.5 -> -1

    def test_clamps_to_format_range(self):
        assert Fixed.from_float(2.0, Q15).raw == Q15.raw_max
        assert Fixed.from_float(-2.0, Q15).raw == Q15.raw_min


class TestFromFraction:
    def test_exact_dyadic_is_exact(self):
        assert Fixed.from_fraction(Fraction(3, 4), Q15).raw == 3 << 13

    def test_tie_rounds_up(self):
        fmt = QFormat(3, 2)
        assert Fixed.from_fraction(Fraction(3, 8), fmt).raw == 2

    def test_negative_tie_rounds_toward_plus_inf(self):
        fmt = QFormat(3, 2)
        assert Fixed.from_fraction(Fraction(-3, 8), fmt).raw == -1

    def test_agrees_with_from_float_on_representable_values(self):
        for numerator in range(-40, 41):
            value = Fraction(numerator, 16)
            assert Fixed.from_fraction(value, Q15).raw == \
                Fixed.from_float(float(value), Q15).raw


class TestArithmeticRounding:
    def test_mul_rounds_the_dropped_fraction_bits(self):
        fmt = QFormat(3, 4)  # scale 16
        # 3/16 * 1/2: product raw 3*8=24 -> (24+8)>>4 = 2 (0.1875*0.5
        # = 0.09375 = 1.5 LSB, tie rounds up).
        got = Fixed(3, fmt) * Fixed(8, fmt)
        assert got.raw == 2

    def test_add_is_exact_until_clamped(self):
        fmt = QFormat(3, 4)
        assert (Fixed(3, fmt) + Fixed(5, fmt)).raw == 8

    def test_convert_down_rounds_half_up(self):
        # Q5.26 raw 3<<10 is 3 * 2^-16: one and a half Q0.15 LSB.
        got = Fixed(3 << 10, Q5_26).convert(Q15)
        assert got.raw == 2

    def test_convert_up_is_exact(self):
        assert Fixed(1, Q15).convert(Q5_26).raw == 1 << 11


class TestOverflowPolicies:
    def test_constructor_clamps_raw(self):
        fmt = QFormat(3, 4)
        assert Fixed(10_000, fmt).raw == fmt.raw_max
        assert Fixed(-10_000, fmt).raw == fmt.raw_min

    def test_saturating_product(self):
        fmt = QFormat(2, 4)  # max 3.9375
        got = Fixed.from_float(3.5, fmt) * Fixed.from_float(3.5, fmt)
        assert got.raw == fmt.raw_max

    def test_wrap_is_twos_complement(self):
        fmt = QFormat(3, 4, "wrap")  # 8-bit word
        assert fmt.clamp_raw(128) == -128
        assert fmt.clamp_raw(255) == -1
        assert fmt.clamp_raw(256) == 0
        assert fmt.clamp_raw(-129) == 127

    def test_raise_mode_raises_on_overflow(self):
        fmt = QFormat(3, 4, "raise")
        with pytest.raises(FixedPointError):
            Fixed(fmt.raw_max + 1, fmt)

    def test_emitter_rejects_raise_mode(self):
        from repro.codegen.fixedpt import NumericFormat
        from repro.codegen.lower import lower_polynomials
        from repro.codegen.pysource import emit_python
        from repro.errors import CodegenError
        from repro.symalg import Polynomial

        x = Polynomial.variable("x")
        kernel = lower_polynomials(
            "sq", {"out": x**2}, ("x",))
        fmt = NumericFormat("q3.4r", "fixed", QFormat(3, 4, "raise"))
        with pytest.raises(CodegenError, match="overflow='raise'"):
            emit_python(kernel, fmt, fmt)


class TestFxmathConsistency:
    def test_fx_sqrt_uses_the_same_rounding(self):
        # sqrt(0.25) = 0.5 exactly representable: converges to raw 2^14.
        got = fx_sqrt(Fixed.from_float(0.25, Q15))
        assert abs(got.to_float() - 0.5) <= 2 * float(Q15.epsilon)

    def test_fx_sqrt_of_zero_is_zero(self):
        assert fx_sqrt(Fixed(0, Q15)).raw == 0
