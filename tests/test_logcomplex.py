import cmath
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonic_saddle import LogComplex


@given(
    mag=st.floats(min_value=-690.0, max_value=690.0),
    phase=st.floats(min_value=-math.pi + 1e-9, max_value=math.pi),
)
@settings(max_examples=200, deadline=None)
def test_round_trip_is_exact_across_the_float_range(mag, phase):
    z = cmath.rect(math.exp(math.fmod(mag, 1.0)), phase) * 10.0 ** int(mag / math.log(10.0) / 2)
    lc = LogComplex.from_complex(z)
    back = lc.to_complex()
    # power-of-two mantissa scaling is exact except for components that
    # underflow into subnormals, which stay far below the relative tolerance
    assert abs(back - z) <= 1e-14 * abs(z)


@pytest.mark.parametrize("mag", [1e-300, 1e-150, 1.0, 1e150, 1e300])
def test_round_trip_at_extreme_magnitudes(mag):
    z = complex(0.6 * mag, -0.8 * mag)
    back = LogComplex.from_complex(z).to_complex()
    assert abs(back - z) <= 1e-14 * abs(z)


def test_zero_is_canonical():
    zero = LogComplex.from_complex(0j)
    assert zero.is_zero
    assert zero.log_mag == -math.inf
    assert zero.phase == 0.0
    assert (zero * LogComplex.from_complex(3 + 4j)).is_zero


def test_multiplication_adds_log_mags_and_wraps_phase():
    a = LogComplex.from_log_polar(5.0, 3.0)
    b = LogComplex.from_log_polar(7.0, 1.5)
    c = a * b
    assert c.log_mag == pytest.approx(12.0, rel=1e-13)
    assert c.phase == pytest.approx(4.5 - 2 * math.pi, abs=1e-12)
    assert -math.pi < c.phase <= math.pi


def test_division_and_reciprocal():
    a = LogComplex.from_complex(3 + 4j)
    b = LogComplex.from_complex(1 - 2j)
    q = (a / b).to_complex()
    assert q == pytest.approx((3 + 4j) / (1 - 2j), rel=1e-15)
    with pytest.raises(ZeroDivisionError):
        a / LogComplex.zero()


@given(st.integers(min_value=0, max_value=400))
@settings(max_examples=60, deadline=None)
def test_integer_powers_match_direct_evaluation(n):
    z = 0.97 + 0.31j
    got = LogComplex.from_complex(z).pow_int(n)
    want = n * cmath.log(z)
    assert got.log_mag == pytest.approx(want.real, abs=1e-10)
    diff = (got.phase - want.imag) % (2 * math.pi)
    assert min(diff, 2 * math.pi - diff) < 1e-10


def test_pow_handles_huge_exponents_without_overflow():
    big = LogComplex.from_complex(123.456).pow_int(500)
    assert big.log_mag == pytest.approx(500 * math.log(123.456), rel=1e-14)


def test_addition_matches_complex_addition():
    a, b = 2.5 - 1j, -0.5 + 3j
    s = (LogComplex.from_complex(a) + LogComplex.from_complex(b)).to_complex()
    assert s == a + b


def test_addition_with_wildly_different_scales():
    big = LogComplex.from_log_polar(600.0, 0.3)
    small = LogComplex.from_log_polar(-600.0, 1.0)
    assert (big + small).log_mag == pytest.approx(600.0)
    assert (small + big).log_mag == pytest.approx(600.0)


def test_conj_and_neg():
    a = LogComplex.from_complex(1 + 2j)
    assert a.conj().to_complex() == (1 - 2j)
    assert (-a).to_complex() == -(1 + 2j)


def test_accumulator_zero_snap():
    # the saddle assembly sums LogComplex terms and snaps a total at or below
    # 1e-12 of its largest term to the canonical zero
    from bosonic_saddle.saddle import _assemble

    def singletons(*values):
        return [[SimpleNamespace(term=LogComplex.from_complex(v), sign_choice=1)] for v in values]

    assert _assemble(singletons(1.0 + 0j, -1.0 + 1e-15j)).is_zero
    # a genuine small remainder above the threshold survives
    assert not _assemble(singletons(1.0 + 0j, -1.0 + 1e-9j)).is_zero
