"""Exact amplitude engines for repeated-row/column permanents.

The boson transition amplitude is per(U[n|m]) / sqrt(prod n_k! m_k!), where
U[n|m] repeats row k of the network matrix n_k times and column l m_l times.
For such matrices the inclusion-exclusion permanent collapses to a sum over
column-crossing vectors r with 0 <= r_l <= m_l:

    per(U[n|m]) = sum_r (-1)^{sum r} prod_k C(m_k, r_k) (sum_l (m_l - r_l) U_kl)^{n_k}

with the single point r = m excluded, i.e. prod_k (m_k + 1) - 1 terms in
total and O(N^{M+1}) flops.  The series alternates and can cancel many
orders of magnitude below its largest term, so the default engine does not
use floating point at all: float64 entries are dyadic rationals, the matrix
times one power of two is a Gaussian-integer matrix, and the (Glynn form of
the) sum is evaluated exactly in Python ints.  Only the final division by
the normalization rounds, once; results come back as LogComplex.  A plain
float64 pass of the sum above (precision="double") is kept for the flop
model and runtime-complexity benchmarks.

Classical-particle probabilities and the flop accounting for the reduced
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
from .logcomplex import _LN2, LogComplex, _frexp_int
from .network import NetworkMatrix, Occupation, check_margins

_LOG10_2 = math.log10(2.0)


@dataclass(frozen=True)
class RepeatedMatrixSpec:
    """A matrix U[n|m] of repeated rows/columns, kept in factored form."""

    base: NetworkMatrix
    row_reps: Occupation
    col_reps: Occupation

    def __post_init__(self):
        if self.row_reps.modes != self.base.dim or self.col_reps.modes != self.base.dim:
            raise MarginMismatch("occupation length must equal the matrix dimension")
        check_margins(self.row_reps, self.col_reps)

    @property
    def size(self) -> int:
        return self.row_reps.total

    def materialize(self) -> np.ndarray:
        """The explicit N x N matrix (for small-N oracle comparisons only)."""
        rows = np.repeat(np.arange(self.base.dim), self.row_reps.counts)
        cols = np.repeat(np.arange(self.base.dim), self.col_reps.counts)
        return self.base.entries[np.ix_(rows, cols)]


@dataclass(frozen=True)
class FlopEstimate:
    """Lower/upper flop bounds for the reduced inclusion-exclusion sum."""

    lower: int
    upper: int


@dataclass
class RyserStats:
    """Instrumentation record for one permanent evaluation."""

    terms: int = 0
    weighted_terms: int = 0  # sum over the summed points r of s(r) = #{l : r_l < m_l}
    instrumented_flops: int = 0  # N * weighted_terms
    max_term_log: float = -math.inf
    condition_log10: float = 0.0  # log10(largest |term| / |sum|)
    dps_used: int = 0  # decimal digits of the largest integer term; 0 means float64 only
    passes: int = 1


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


# -- reduced inclusion-exclusion engine --------------------------------------


def _ryser_double(a, n_counts, m_counts):
    """Pure float64 pass over the reduced inclusion-exclusion sum.

    a is a row-major list of lists of Python complex.  Returns
    (LogComplex, RyserStats).
    """
    modes = len(n_counts)
    n_total = sum(n_counts)
    binom_tables = [
        [_frexp_int(math.comb(mk, r)) for r in range(mk + 1)] for mk in m_counts
    ]
    total_points = 1
    for mk in m_counts:
        total_points *= mk + 1
    terms = total_points - 1

    r = [0] * modes
    w = [
        sum(m_counts[l] * a[k][l] for l in range(modes)) for k in range(modes)
    ]
    parity = 1.0
    open_cols = sum(1 for mk in m_counts if mk > 0)  # s(r) = #{l : r_l < m_l}
    weighted = 0
    since_refresh = 0
    mrange = range(modes)
    frexp, ldexp = math.frexp, math.ldexp

    # Kahan-compensated sum anchored at the running max binary exponent,
    # inlined here because this loop dominates the engine's runtime
    anchor = 0
    acc_s = 0j
    acc_c = 0j
    acc_abs = 0.0
    max_exp2 = None
    max_mag = 0.0

    for idx in range(terms):
        weighted += open_cols
        mant = parity + 0j
        e = 0
        for k in mrange:
            nk = n_counts[k]
            wk = w[k]
            # naive powering keeps the per-term cost linear in n_k, matching
            # the documented flop model
            pm = 1.0 + 0j
            pe = 0
            for _ in range(nk):
                pm *= wk
                am = abs(pm)
                if am > 1e150 or am < 1e-150:
                    if am == 0.0:
                        pe = 0
                        break
                    _, kk = frexp(am)
                    pm = complex(ldexp(pm.real, -kk), ldexp(pm.imag, -kk))
                    pe += kk
            if pm == 0j:
                mant = 0j
                break
            bm, be = binom_tables[k][r[k]]
            mant *= pm * bm
            e += pe + be
        a_mant = abs(mant)
        if a_mant != 0.0:
            _, kk = frexp(a_mant)
            if kk:
                mant = complex(ldexp(mant.real, -kk), ldexp(mant.imag, -kk))
                a_mant = abs(mant)
                e += kk
            if max_exp2 is None or (e, a_mant) > (max_exp2, max_mag):
                max_exp2, max_mag = e, a_mant
            d = e - anchor
            if acc_abs == 0.0 and acc_s == 0j:
                anchor = e
                acc_s = mant
                acc_abs = a_mant
            else:
                if d > 0:
                    acc_s = complex(ldexp(acc_s.real, -d), ldexp(acc_s.imag, -d))
                    acc_c = complex(ldexp(acc_c.real, -d), ldexp(acc_c.imag, -d))
                    acc_abs = ldexp(acc_abs, -d) if d <= 4400 else 0.0
                    anchor = e
                    d = 0
                if d >= -2100:
                    t = mant if d == 0 else complex(ldexp(mant.real, d), ldexp(mant.imag, d))
                    acc_abs += abs(t)
                    yk = t - acc_c
                    tot = acc_s + yk
                    acc_c = (tot - acc_s) - yk
                    acc_s = tot

        if idx == terms - 1:
            break
        # advance the odometer (last index fastest), updating w incrementally
        j = modes - 1
        while r[j] == m_counts[j]:
            back = m_counts[j]
            r[j] = 0
            if back > 0:
                open_cols += 1
                for k in mrange:
                    w[k] += back * a[k][j]
                if back % 2:
                    parity = -parity
            j -= 1
        r[j] += 1
        parity = -parity
        if r[j] == m_counts[j]:
            open_cols -= 1
        for k in mrange:
            w[k] -= a[k][j]
        since_refresh += 1
        if since_refresh >= 256:
            since_refresh = 0
            w = [
                sum((m_counts[l] - r[l]) * a[k][l] for l in range(modes))
                for k in range(modes)
            ]

    value = LogComplex(acc_s, anchor)
    if max_exp2 is None:
        max_term_log = -math.inf
        cond = 0.0
    else:
        max_term_log = math.log(max_mag) + max_exp2 * math.log(2.0)
        vmag = abs(acc_s)
        if vmag == 0.0:
            cond = math.inf if acc_abs > 0 else 0.0
        else:
            cond = math.log10(acc_abs / vmag) if acc_abs > 0 else 0.0
    stats = RyserStats(
        terms=terms,
        weighted_terms=weighted,
        instrumented_flops=n_total * weighted,
        max_term_log=max_term_log,
        condition_log10=cond,
        dps_used=0,
        passes=1,
    )
    return value, stats


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
        passes=1,
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


def permanent_ryser_repeated(spec: RepeatedMatrixSpec, precision: str = "adaptive") -> LogComplex:
    """per(U[n|m]) via the reduced inclusion-exclusion sum.

    precision:
      "adaptive" (default) - exact integer sum, one rounding at the end
      "double" - single float64 pass (used for runtime-complexity benchmarks)
    """
    value, _ = permanent_ryser_repeated_with_stats(spec, precision)
    return value


def permanent_ryser_repeated_with_stats(
    spec: RepeatedMatrixSpec, precision: str = "adaptive"
):
    return _permanent_repeated_raw(
        spec.base.entries, spec.row_reps.counts, spec.col_reps.counts, precision
    )


def _permanent_repeated_raw(a_np, n_counts, m_counts, precision: str = "adaptive"):
    n_counts = tuple(int(c) for c in n_counts)
    m_counts = tuple(int(c) for c in m_counts)
    if sum(n_counts) != sum(m_counts):
        raise MarginMismatch("row and column repetitions must agree in total")
    if sum(n_counts) == 0:
        return LogComplex.one(), RyserStats(terms=0)
    if precision == "double":
        a_list = [list(map(complex, row)) for row in np.asarray(a_np, dtype=np.complex128)]
        return _ryser_double(a_list, n_counts, m_counts)
    if precision != "adaptive":
        raise ValueError(f"unknown precision mode {precision!r}")
    re, im, exp2, stats = _permanent_exact(a_np, n_counts, m_counts)
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
