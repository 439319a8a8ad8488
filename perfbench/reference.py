"""Independent reference values for the benchmark's correctness check.

Nothing here imports the package under test.  Every float64 network entry is
a dyadic rational, so scaling the matrix by a power of two gives Gaussian
integers and the reduced inclusion-exclusion (Ryser) sum

    per(U[n|m]) = sum_r (-1)^{|r|} prod_l C(m_l, r_l)
                  prod_k (sum_l (m_l - r_l) U_kl)^{n_k}

can be evaluated exactly with Python integers.  The symmetric beam splitter
[[-s, s], [s, s]] has the closed single sum

    <m|n> = s^N per(+-1 pattern) / sqrt(prod n! m!),
    per(+-1 pattern) = prod(n! m!) sum_q (-1)^q / (q! (n1-q)! (m1-q)! (m2+q-n1)!)

which is also exact in integers at any N.  Classical probabilities use the
same Ryser sum on |U_kl|^2 = re^2 + im^2, again exact.  Only the final
conversion to a float rounds, to within a few ulps.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Pass tolerance for exact values, relative.  The package README states
# ~1e-12; the engine accepts its float64 pass when cancellation costs at most
# 4.3 of float64's ~16 digits, and small float-pass scans reach 7e-12.  1e-10
# flags broken values, not that documented acceptance; exact_digits_min
# reports the digits actually delivered.
TOL = 1e-10
# |sum of probabilities - 1| allowed on a complete scan
SUM_TOL = 1e-9
EPS = 2.0**-53


# -- exact integer evaluation --------------------------------------------------


def _scaled_ints(values):
    """Integers v_i and a shift e with values[i] == v_i / 2**e exactly."""
    ratios = [float(v).as_integer_ratio() for v in values]
    shift = max(den.bit_length() - 1 for _, den in ratios)
    return [num << (shift - (den.bit_length() - 1)) for num, den in ratios], shift


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gpow(a, e):
    out = (1, 0)
    while e:
        if e & 1:
            out = _gmul(out, a)
        e >>= 1
        if e:
            a = _gmul(a, a)
    return out


def ryser_gaussian(rows, n, m):
    """Exact per(G[n|m]) for an integer matrix G given as rows of (re, im)."""
    modes = len(n)
    total = 1
    for mk in m:
        total *= mk + 1
    binoms = [[math.comb(mk, r) for r in range(mk + 1)] for mk in m]
    acc_re = acc_im = 0
    r = [0] * modes
    for _ in range(total - 1):
        term = (-1 if sum(r) % 2 else 1, 0)
        for l in range(modes):
            term = (term[0] * binoms[l][r[l]], term[1] * binoms[l][r[l]])
        for k in range(modes):
            w_re = w_im = 0
            for l in range(modes):
                c = m[l] - r[l]
                w_re += c * rows[k][l][0]
                w_im += c * rows[k][l][1]
            term = _gmul(term, _gpow((w_re, w_im), n[k]))
        acc_re += term[0]
        acc_im += term[1]
        j = modes - 1
        while r[j] == m[j]:
            r[j] = 0
            j -= 1
        r[j] += 1
    return acc_re, acc_im


def _exact_to_complex(re: int, im: int, den2: Fraction) -> complex:
    """(re + i im) / sqrt(den2) as a float complex, den2 an exact positive rational."""
    if re == 0 and im == 0:
        return 0j
    mag2 = Fraction(re * re + im * im) / den2
    if mag2 > 0 and float(mag2) > 0.0:
        mag = math.sqrt(float(mag2))
    else:  # below the float range of |z|^2: go through logs
        mag = math.exp(0.5 * (math.log(mag2.numerator) - math.log(mag2.denominator)))
    drop = max(re.bit_length(), im.bit_length()) - 60
    if drop > 0:
        re, im = re >> drop, im >> drop
    phase = math.atan2(float(im), float(re))
    return complex(mag * math.cos(phase), mag * math.sin(phase))


def _fock_norm2(n, m) -> int:
    out = 1
    for c in list(n) + list(m):
        out *= math.factorial(c)
    return out


def _bs_scale(entries):
    """s when entries are exactly [[-s, s], [s, s]], else None."""
    if len(entries) != 2:
        return None
    s = entries[0][1]
    if s.imag != 0 or s.real <= 0:
        return None
    pattern = [[-s, s], [s, s]]
    return s.real if all(entries[k][l] == pattern[k][l] for k in range(2) for l in range(2)) else None


def _bs_sign_permanent(n, m) -> int:
    """per of the +-1 beam-splitter pattern [[-1, 1], [1, 1]] repeated by (n, m)."""
    n1, n2 = n
    m1, m2 = m
    series = Fraction(0)
    for q in range(max(0, n1 - m2), min(n1, m1) + 1):
        den = (
            math.factorial(q)
            * math.factorial(n1 - q)
            * math.factorial(m1 - q)
            * math.factorial(m2 + q - n1)
        )
        series += Fraction(-1 if q % 2 else 1, den)
    value = series * _fock_norm2(n, m)
    assert value.denominator == 1
    return int(value)


def amplitude(entries, n, m) -> complex:
    """Exact <m|n> for the float64 network `entries` (rows of complex)."""
    n, m = tuple(map(int, n)), tuple(map(int, m))
    total = sum(n)
    if total != sum(m):
        raise ValueError("occupation totals differ")
    s = _bs_scale(entries)
    if s is not None:
        s_num, s_den = s.as_integer_ratio()
        per = _bs_sign_permanent(n, m)
        # <m|n>^2 = s^{2N} per^2 / prod(n! m!), exactly
        den2 = Fraction(s_den ** (2 * total) * _fock_norm2(n, m), s_num ** (2 * total))
        return _exact_to_complex(per, 0, den2)
    flat = [z for row in entries for z in row]
    ints, shift = _scaled_ints([z.real for z in flat] + [z.imag for z in flat])
    size = len(entries)
    cells = len(flat)
    rows = [
        [(ints[k * size + l], ints[cells + k * size + l]) for l in range(size)]
        for k in range(size)
    ]
    re, im = ryser_gaussian(rows, n, m)
    den2 = Fraction(_fock_norm2(n, m) * 4 ** (shift * total))
    return _exact_to_complex(re, im, den2)


def classical_probability(entries, n, m) -> float:
    """Exact per(|U|^2[n|m]) / prod m_l! for the float64 network `entries`."""
    n, m = tuple(map(int, n)), tuple(map(int, m))
    size = len(entries)
    # |U_kl|^2 = re^2 + im^2 is dyadic when re and im are
    parts, shift = _scaled_ints([v for row in entries for z in row for v in (z.real, z.imag)])
    rows = [
        [(parts[2 * (k * size + l)] ** 2 + parts[2 * (k * size + l) + 1] ** 2, 0) for l in range(size)]
        for k in range(size)
    ]
    per, _ = ryser_gaussian(rows, n, m)
    den = Fraction(math.prod(math.factorial(c) for c in m) * 4 ** (shift * sum(n)))
    return float(Fraction(per) / den)


# -- input-rounding floor ------------------------------------------------------


def rounding_floor(entries, n, m) -> float:
    """Bound on how far float64 rounding of an ideal network can move <m|n>.

    Each entry carries a relative rounding error of at most 2**-53 per
    component, which moves each of the N! products of the permanent by at most
    sqrt(2) N 2**-53 of its magnitude to first order; twice N 2**-53
    per(|U|[n|m]) / sqrt(prod n! m!) covers that with room to spare.  Values
    below the floor are not resolved by the inputs: an exact zero reported for
    them is a correct answer.  The symmetric beam splitter is scaled as a whole
    by rounding, so its floor is 0 and its zeros must be exact.
    """
    if _bs_scale(entries) is not None:
        return 0.0
    n, m = tuple(map(int, n)), tuple(map(int, m))
    log_per = positive_permanent_log(np.abs(np.array(entries, dtype=complex)), n, m)
    if log_per == -math.inf:
        return 0.0
    log_norm = 0.5 * sum(math.lgamma(c + 1) for c in list(n) + list(m))
    return 2.0 * sum(n) * EPS * math.exp(log_per - log_norm)


def positive_permanent_log(a, n, m) -> float:
    """log per(A[n|m]) for A >= 0 from the generating function, in float64.

    per(A[n|m]) = prod_l m_l! [z^m] prod_k (sum_l A_kl z_l)^{n_k}; with
    nonnegative entries nothing cancels, so float64 is accurate.
    """
    modes = len(n)
    shape = tuple(mk + 1 for mk in m)
    coef = np.zeros(shape)
    coef[(0,) * modes] = 1.0
    log_scale = 0.0
    for k in range(modes):
        for _ in range(n[k]):
            new = np.zeros(shape)
            for l in range(modes):
                if a[k, l] == 0.0:
                    continue
                src = [slice(None)] * modes
                dst = [slice(None)] * modes
                src[l] = slice(0, shape[l] - 1)
                dst[l] = slice(1, shape[l])
                new[tuple(dst)] += a[k, l] * coef[tuple(src)]
            peak = new.max()
            if peak == 0.0:
                return -math.inf
            coef = new / peak
            log_scale += math.log(peak)
    value = coef[tuple(m)]
    if value <= 0.0:
        return -math.inf
    return math.log(value) + log_scale + sum(math.lgamma(c + 1) for c in m)
