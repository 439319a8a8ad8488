"""Regression tests for the exact integer permanent kernel.

The kernel scales the float64 network to Gaussian integers and sums the
reduced permanent exactly, so its values are the amplitudes of the stored
matrix rounded once, independent of threads, and zero only when the integer
sum is exactly zero.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from bosonic_saddle import (
    BeamSplitterCase,
    Occupation,
    amplitude_exact,
    amplitude_exact_bs,
    beam_splitter,
    classical_probability,
    permanent_repeated,
    tritter,
)

from helpers import rel_error


def _bs_stored_amplitude(n, m) -> float:
    """<m|n> of the stored beam splitter [[-s, s], [s, s]], s = fl(1/sqrt 2), to 60 digits.

    per(U[n|m]) = s^N per(+-1 pattern), and the pattern's permanent is the
    closed single sum prod(n! m!) sum_q (-1)^q / (q! (n1-q)! (m1-q)! (m2+q-n1)!).
    """
    (n1, n2), (m1, m2) = n, m
    norm2 = math.prod(math.factorial(c) for c in (n1, n2, m1, m2))
    series = sum(
        Fraction((-1) ** q, math.factorial(q) * math.factorial(n1 - q)
                 * math.factorial(m1 - q) * math.factorial(m2 + q - n1))
        for q in range(max(0, n1 - m2), min(n1, m1) + 1)
    )
    pattern = series * norm2
    assert pattern.denominator == 1
    s = beam_splitter().entries[1, 1].real
    with localcontext() as ctx:
        ctx.prec = 60
        return float(Decimal(int(pattern)) * Decimal(s) ** (n1 + n2) / Decimal(norm2).sqrt())


def test_threads_give_bit_identical_values():
    bs, tt = beam_splitter(), tritter()
    cases = [
        (bs, Occupation.of(18, 18), Occupation.of(12, 24)),  # the N = 36 sweep row
        (bs, Occupation.of(11, 11), Occupation.of(11, 11)),  # N = 22 parity zero
        (tt, Occupation.of(15, 15, 15), Occupation.of(12, 15, 18)),
    ]

    def run(_):
        return [amplitude_exact(U, n, m) for U, n, m in cases]

    serial = [(v.mantissa, v.exp2) for v in run(None)]
    assert serial[0][0] != 0 and serial[1][0] == 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(run, range(8), timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == 8
    for values in results:
        assert [(v.mantissa, v.exp2) for v in values] == serial


def test_beam_splitter_large_n_is_not_a_wrong_zero():
    bs = beam_splitter()
    got = amplitude_exact(bs, Occupation.of(96, 96), Occupation.of(48, 144))
    want = amplitude_exact_bs(BeamSplitterCase(96, 96, 48, 144))
    assert not got.is_zero
    assert got.log_mag == pytest.approx(-2.44, abs=0.01)
    assert rel_error(got, want) <= 1e-10


@pytest.mark.parametrize(
    "n, m",
    [((80, 80), (40, 120)), ((90, 90), (60, 120)), ((70, 110), (50, 130)), ((100, 100), (70, 130))],
)
def test_beam_splitter_margins_at_n_160_to_200(n, m):
    got = amplitude_exact(beam_splitter(), Occupation(n), Occupation(m))
    want = amplitude_exact_bs(BeamSplitterCase(*n, *m))
    if want.is_zero:
        assert got.is_zero
    else:
        assert rel_error(got, want) <= 1e-10


def test_beam_splitter_parity_zero_is_an_exact_integer_zero():
    value, stats = permanent_repeated(beam_splitter(), Occupation.of(50, 50), Occupation.of(49, 51))
    assert value.is_zero
    assert stats.dps_used > 0 and stats.condition_log10 == math.inf


def test_tritter_suppressed_output_is_at_the_rounding_level():
    value = amplitude_exact(tritter(), Occupation.of(5, 5, 5), Occupation.of(4, 6, 5))
    assert abs(value) < 1e-15
    p = classical_probability(tritter(), Occupation.of(5, 5, 5), Occupation.of(4, 6, 5))
    assert math.sqrt(p) > 0.2


@pytest.mark.parametrize("n, m", [((75, 75), (40, 110)), ((70, 80), (75, 75)), ((60, 90), (100, 50))])
def test_beam_splitter_amplitude_is_correctly_rounded(n, m):
    got = amplitude_exact(beam_splitter(), Occupation(n), Occupation(m)).to_complex()
    assert got.imag == 0.0
    assert got.real == _bs_stored_amplitude(n, m)


def test_classical_probability_is_correctly_rounded():
    # every |U_kl|^2 of the stored beam splitter is the same dyadic p = s^2,
    # so P = N! p^N / prod m_l! exactly
    s = Fraction(beam_splitter().entries[0, 1].real)
    n, m = Occupation.of(75, 75), Occupation.of(40, 110)
    want = Fraction(math.factorial(150)) * (s * s) ** 150 / (math.factorial(40) * math.factorial(110))
    assert classical_probability(beam_splitter(), n, m) == float(want)


def test_stats_describe_the_integer_sum():
    tt = tritter()
    occ = Occupation.of(10, 10, 10)
    _, stats = permanent_repeated(tt, occ, occ)
    # the mirror symmetry s <-> m - s halves the 11^3 odometer points
    assert stats.terms == (11**3 + 1) // 2
    assert stats.dps_used > 16  # far beyond float64's digits
    assert 0 < stats.weighted_terms <= 3 * stats.terms
    assert stats.instrumented_flops == 30 * stats.weighted_terms
    assert math.isfinite(stats.max_term_log) and stats.condition_log10 > 0
