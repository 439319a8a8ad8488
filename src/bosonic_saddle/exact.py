"""Exact amplitude engine for repeated-row/column permanents.

The boson transition amplitude is per(U[n|m]) / sqrt(prod n_k! m_k!), where
U[n|m] repeats row k of the network matrix n_k times and column l m_l times.
For such matrices Glynn's formula collapses to a sum over vectors s with
0 <= s_l <= m_l:

    per(U[n|m]) = 2^-N sum_s (-1)^{|s|} prod_l C(m_l, s_l)
                  prod_k (sum_l (m_l - 2 s_l) U_kl)^{n_k}

prod_l (m_l + 1) terms and O(N^{M+1}) flops.  The series alternates and can
cancel many orders of magnitude below its largest term, so the engine does
not use floating point at all: float64 entries are dyadic rationals, the
matrix times one power of two is a Gaussian-integer matrix, and the sum is
evaluated exactly in Python ints.  Only the final division by the
normalization rounds, once; results come back as LogComplex.

Classical-particle probabilities and the flop accounting for the
inclusion-exclusion sum live here too; the independent small-N oracles used
to cross-check the engine are in the test suite.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MarginMismatch
from .logcomplex import _LN2, LogComplex
from .network import NetworkMatrix, Occupation, check_margins

_LOG10_2 = math.log10(2.0)


@dataclass(frozen=True)
class FlopEstimate:
    """Lower/upper flop bounds for the full inclusion-exclusion sum.

    The bounds count all prod(m_k+1) - 1 points of the sum.  The kernel walks
    only half of them (terms at s and m - s are equal), so its instrumented
    count can fall below ``lower`` when M = 2.
    """

    lower: int
    upper: int


@dataclass
class RyserStats:
    """Instrumentation record for one permanent evaluation."""

    terms: int = 0
    weighted_terms: int = 0  # sum over the summed points s of #{l : s_l < m_l}
    instrumented_flops: int = 0  # N * weighted_terms
    max_term_log: float = -math.inf
    condition_log10: float = 0.0  # log10(largest |term| / |sum|)
    dps_used: int = 0  # decimal digits of the largest integer term


def flop_estimate(n: Occupation, m: Occupation) -> FlopEstimate:
    """Flop bounds N*(prod(m_k+1)-1) < F < M*N*(prod(m_k+1)-1).

    With uniform m_k = N/M the upper bound grows as N^{M+1}.
    """
    total_points = 1
    for mk in m.counts:
        total_points *= mk + 1
    n_total = n.total
    modes = m.modes
    base = n_total * (total_points - 1)
    return FlopEstimate(lower=base, upper=modes * base)


# -- exact integer engine -----------------------------------------------------


@lru_cache(maxsize=64)
def _gaussian_rows(raw: bytes, dim: int, squared: bool):
    """Integer rows (re, im) and a shift s with a == (re + i im) / 2**s exactly.

    raw holds the dim x dim complex128 matrix a.  Every float64 is a dyadic
    rational, so one common power-of-two shift turns a into Gaussian
    integers.  squared=True gives the real matrix re**2 + im**2, which is
    |a|**2 * 2**(2s), and the shift 2s.  Cached: scans and sign calibrations
    reuse one network many times.
    """
    values = np.frombuffer(raw, dtype=np.complex128).tolist()
    ratios = [v.as_integer_ratio() for z in values for v in (z.real, z.imag)]
    shift = max(den.bit_length() for _, den in ratios) - 1
    ints = [num << (shift + 1 - den.bit_length()) for num, den in ratios]
    re = tuple(tuple(ints[2 * k * dim : 2 * (k + 1) * dim : 2]) for k in range(dim))
    im = tuple(tuple(ints[2 * k * dim + 1 : 2 * (k + 1) * dim : 2]) for k in range(dim))
    if squared:
        re = tuple(tuple(x * x + y * y for x, y in zip(rr, ri)) for rr, ri in zip(re, im))
        im = tuple((0,) * dim for _ in range(dim))
        shift *= 2
    return re, im, shift


def _permanent_exact(a_np, n_counts, m_counts, squared: bool = False):
    """per(A[n|m]) exactly, in Python ints: (re, im, exp2, stats).

    per(A[n|m]) == (re + i im) * 2**exp2, with A = a_np, or |a_np|**2 when
    squared.  The sum is the reduced Glynn form

        per(A[n|m]) = 2^-N sum_{s <= m} (-1)^{|s|} prod_l C(m_l, s_l)
                      prod_k (sum_l (m_l - 2 s_l) A_kl)^{n_k},

    whose terms at s and m - s are equal (every row sum changes sign), so
    only the first half of the odometer is walked, row sums and signed
    binomial weight updated incrementally.  It runs on whichever of the two
    margins gives fewer terms, since per(A[n|m]) == per(A^T[m|n]).
    """
    a_np = np.ascontiguousarray(a_np, dtype=np.complex128)
    g_re, g_im, shift = _gaussian_rows(a_np.tobytes(), len(a_np), squared)
    if math.prod(c + 1 for c in n_counts) < math.prod(c + 1 for c in m_counts):
        g_re, g_im = tuple(zip(*g_re)), tuple(zip(*g_im))
        n_counts, m_counts = m_counts, n_counts
    real = not any(map(any, g_im))
    modes = len(m_counts)
    total = math.prod(c + 1 for c in m_counts)
    count = (total + 1) // 2  # the first half, centre s = m/2 included
    # per column: the row-sum change when s_l steps up, and when it wraps to 0
    steps_re = [[-2 * row[l] for row in g_re] for l in range(modes)]
    steps_im = [[-2 * row[l] for row in g_im] for l in range(modes)]
    wraps_re = [[2 * m_counts[l] * row[l] for row in g_re] for l in range(modes)]
    wraps_im = [[2 * m_counts[l] * row[l] for row in g_im] for l in range(modes)]
    # rows whose exponent has bit b set, for b from the highest bit down
    chain = [
        [k for k, nk in enumerate(n_counts) if nk >> b & 1]
        for b in reversed(range(max(n_counts).bit_length()))
    ]
    # prod_k w_k^{n_k} == prod_j (prod_{i<=j} w_{o_i})^{n_{o_j} - n_{o_{j+1}}},
    # rows o ordered by decreasing n: fewer, larger powers
    order = sorted(range(modes), key=lambda k: -n_counts[k])
    drops = [(k, n_counts[k] - n_counts[nxt]) for k, nxt in zip(order, order[1:])]
    drops.append((order[-1], n_counts[order[-1]]))

    w_re = [sum(map(operator.mul, m_counts, row)) for row in g_re]
    w_im = [sum(map(operator.mul, m_counts, row)) for row in g_im]
    s = [0] * modes
    coef = 1  # (-1)^{|s|} prod_l C(m_l, s_l)
    open_cols = sum(1 for c in m_counts if c)  # #{l : s_l < m_l}
    weighted = 0
    acc_re = acc_im = max_bits = 0
    for idx in range(count):
        if real:
            t_re, t_im, part = coef, 0, 1
            for k, d in drops:
                part *= w_re[k]
                if d:
                    t_re *= part**d
        else:
            # prod_k w_k^{n_k} along one shared squaring chain
            t_re, t_im = 1, 0
            for ks in chain:
                t_re, t_im = (t_re + t_im) * (t_re - t_im), 2 * t_re * t_im
                for k in ks:
                    a, b = w_re[k], w_im[k]
                    t_re, t_im = t_re * a - t_im * b, t_re * b + t_im * a
            t_re *= coef
            t_im *= coef
        acc_re += t_re
        acc_im += t_im
        max_bits = max(max_bits, t_re.bit_length(), t_im.bit_length())
        weighted += open_cols
        if idx + 1 == count:
            break
        # advance the odometer, last index fastest
        j = modes - 1
        while s[j] == m_counts[j]:
            s[j] = 0
            if m_counts[j]:
                open_cols += 1
                coef = -coef if m_counts[j] & 1 else coef
                w_re = list(map(operator.add, w_re, wraps_re[j]))
                w_im = w_im if real else list(map(operator.add, w_im, wraps_im[j]))
            j -= 1
        coef = -coef * (m_counts[j] - s[j]) // (s[j] + 1)
        s[j] += 1
        open_cols -= s[j] == m_counts[j]
        w_re = list(map(operator.add, w_re, steps_re[j]))
        w_im = w_im if real else list(map(operator.add, w_im, steps_im[j]))
    if total % 2:  # the centre is its own mirror image: count it once
        acc_re, acc_im = 2 * acc_re - t_re, 2 * acc_im - t_im
    else:
        acc_re, acc_im = 2 * acc_re, 2 * acc_im
    n_total = sum(n_counts)
    exp2 = -(shift + 1) * n_total
    sum_bits = max(acc_re.bit_length(), acc_im.bit_length())
    if not max_bits:
        cond = 0.0
    elif not sum_bits:
        cond = math.inf
    else:
        cond = max(0.0, (max_bits - sum_bits) * _LOG10_2)
    stats = RyserStats(
        terms=count,
        weighted_terms=weighted,
        instrumented_flops=n_total * weighted,
        # the largest |term| is within a factor 2 of 2**(max_bits - 1/2 + exp2)
        max_term_log=(max_bits - 0.5 + exp2) * _LN2 if max_bits else -math.inf,
        condition_log10=cond,
        dps_used=max(1, math.ceil(max_bits * _LOG10_2)),
    )
    return acc_re, acc_im, exp2, stats


def _int_quotient(re: int, im: int, den: int, exp2: int) -> LogComplex:
    """(re + i im) * 2**exp2 / den, each part correctly rounded.

    Python's int true division rounds correctly at any size; the numerator is
    scaled so that the quotient lies near 2**64, well inside float range.
    """
    if not (re or im):
        return LogComplex.zero()
    k = 64 + den.bit_length() - max(re.bit_length(), im.bit_length())
    if k >= 0:
        re, im = re << k, im << k
    else:
        den <<= -k
    return LogComplex(complex(re / den, im / den), exp2 - k)


def permanent_repeated(U: NetworkMatrix, n: Occupation, m: Occupation):
    """per(U[n|m]) of the stored matrix, rounded once, and the kernel's RyserStats.

    This is the kernel every exact amplitude runs; N = 0 gives 1 with no terms.
    """
    check_margins(n, m)
    if n.modes != U.dim:
        raise MarginMismatch("occupation length must equal the matrix dimension")
    if not n.total:
        return LogComplex.one(), RyserStats()
    re, im, exp2, stats = _permanent_exact(U.entries, n.counts, m.counts)
    return _int_quotient(re, im, 1, exp2), stats


# -- amplitudes and probabilities ---------------------------------------------


def log_factorial_norm(n: Occupation, m: Occupation) -> float:
    """log sqrt(prod n_k! m_k!), the Fock normalization denominator."""
    s = 0.0
    for c in n.counts:
        s += math.lgamma(c + 1)
    for c in m.counts:
        s += math.lgamma(c + 1)
    return 0.5 * s


def amplitude_exact(U: NetworkMatrix, n: Occupation, m: Occupation) -> LogComplex:
    """Exact transition amplitude <m|n> = per(U[n|m]) / sqrt(prod n_k! m_k!).

    The exact integer permanent is divided by the exact normalization, so the
    returned value is the amplitude of the stored float64 matrix rounded
    once; it is zero only when the integer sum is 0.
    """
    check_margins(n, m)
    if n.modes != U.dim:
        raise MarginMismatch("occupation length must equal the matrix dimension")
    if not n.total:
        return LogComplex.one()
    # sqrt(prod n_k! m_k!) * 2**128, low by less than one unit
    root = math.isqrt(math.prod(map(math.factorial, n.counts + m.counts)) << 256)
    re, im, exp2, _ = _permanent_exact(U.entries, n.counts, m.counts)
    return _int_quotient(re, im, root, exp2 + 128)


def classical_probability(U: NetworkMatrix, n: Occupation, m: Occupation) -> float:
    """Transition probability for identical classical particles.

    per(|U|^2[n|m]) / prod m_k!; nonnegative, and summing over all output
    configurations gives 1.
    """
    check_margins(n, m)
    if n.modes != U.dim:
        raise MarginMismatch("occupation length must equal the matrix dimension")
    # |U_kl|^2 = re^2 + im^2 is dyadic too: exact integers, one rounding
    per, _, exp2, _ = _permanent_exact(U.entries, n.counts, m.counts, squared=True)
    return per / (math.prod(map(math.factorial, m.counts)) << -exp2)


def bell_classical_probability(modes: int, m: Occupation) -> float:
    """Closed-form classical probability N!/(M^N prod m_k!) for |U_kl|^2 = 1/M."""
    n_total = m.total
    log_p = (
        math.lgamma(n_total + 1)
        - n_total * math.log(modes)
        - sum(math.lgamma(c + 1) for c in m.counts)
    )
    return math.exp(log_p)
