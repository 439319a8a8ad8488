"""Shared test utilities: independent oracles and comparison metrics."""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Iterator

import numpy as np

from bosonic_saddle import LogComplex, MarginMismatch, NetworkMatrix, Occupation, TooLarge
from bosonic_saddle.exact import log_factorial_norm
from bosonic_saddle.network import check_margins


def rel_error(a: LogComplex, b: LogComplex) -> float:
    """|a - b| / max(|a|, |b|), evaluated at a common scale; 0 if both zero."""
    if a.is_zero and b.is_zero:
        return 0.0
    if a.is_zero or b.is_zero:
        return 1.0
    top = max(a.log_mag, b.log_mag)
    za = a.scaled_by_exp2(-int(top / math.log(2.0)))
    zb = b.scaled_by_exp2(-int(top / math.log(2.0)))
    return abs(za - zb) / max(abs(za), abs(zb))


def rel_error_c(a: complex, b: complex) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


@lru_cache(maxsize=32)
def _perm_gather_indices(n: int) -> np.ndarray:
    perms = np.array(list(permutations(range(n))), dtype=np.intp)
    return perms + (np.arange(n) * n)[None, :]


def materialize(u: NetworkMatrix, n: Occupation, m: Occupation) -> np.ndarray:
    """The explicit N x N matrix U[n|m]: row k repeated n_k times, column l m_l times."""
    rows = np.repeat(np.arange(u.dim), n.counts)
    cols = np.repeat(np.arange(u.dim), m.counts)
    return u.entries[np.ix_(rows, cols)]


def permanent_permutation_sum(a: np.ndarray) -> complex:
    """Full permutation enumeration, vectorized; the independent grid oracle."""
    n = a.shape[0]
    if n == 0:
        return 1.0 + 0j
    idx = _perm_gather_indices(n)
    gathered = a.ravel()[idx]
    out = gathered[:, 0].copy()
    for c in range(1, n):
        out *= gathered[:, c]
    return complex(out.sum())


@lru_cache(maxsize=32)
def _assignment_table(modes: int, total: int):
    """All modes**total type sequences, grouped by their count vector."""
    seqs = np.array(list(product(range(modes), repeat=total)), dtype=np.intp)
    groups = {}
    for i, seq in enumerate(seqs):
        key = tuple(int(np.sum(seq == l)) for l in range(modes))
        groups.setdefault(key, []).append(i)
    groups = {k: np.array(v, dtype=np.intp) for k, v in groups.items()}
    return seqs, groups


def permanent_assignment_sum(u: np.ndarray, n_counts, m_counts) -> complex:
    """Permutation sum of U[n|m], grouped by column-type sequences.

    Every permutation of the repeated columns with the same type sequence
    contributes the identical product, prod(m_l!) times; enumerating the
    distinct sequences and weighting by that multiplicity is the same
    permutation sum, independent of the inclusion-exclusion engine.
    """
    modes = u.shape[0]
    total = sum(n_counts)
    if total == 0:
        return 1.0 + 0j
    rows = np.repeat(np.arange(modes), n_counts)
    b = u[rows]  # (N, M)
    seqs, groups = _assignment_table(modes, total)
    idx = groups[tuple(int(c) for c in m_counts)]
    sub = seqs[idx]  # (K, N)
    gathered = b[np.arange(total)[None, :], sub]
    out = gathered[:, 0].copy()
    for c in range(1, total):
        out *= gathered[:, c]
    weight = 1.0
    for mk in m_counts:
        weight *= math.factorial(mk)
    return complex(out.sum()) * weight


@dataclass(frozen=True)
class ContingencyTable:
    """M x M nonnegative integer matrix with prescribed row and column sums."""

    entries: tuple
    row_sums: Occupation
    col_sums: Occupation

    @property
    def total(self) -> int:
        return self.row_sums.total


def enumerate_contingency_tables(n: Occupation, m: Occupation) -> Iterator[ContingencyTable]:
    """Yield every nonnegative integer matrix with row sums n and column sums m.

    Lazy, margin-respecting recursion: row k is filled with a bounded
    composition of n_k, pruning branches where the remaining row total cannot
    absorb the remaining column budget.  Each table is produced exactly once.
    The number of tables grows exponentially with N, so only small-N oracles
    should consume this exhaustively.
    """
    check_margins(n, m)
    modes = n.modes
    remaining_cols = list(m.counts)
    rows_out = []

    def fill_row(k: int):
        if k == modes:
            # margins hold by construction: the last row exhausts the columns
            yield ContingencyTable(tuple(rows_out), n, m)
            return
        row = [0] * modes

        def fill_cell(l: int, remaining: int):
            if l == modes - 1:
                if remaining <= remaining_cols[l]:
                    row[l] = remaining
                    remaining_cols[l] -= remaining
                    rows_out.append(tuple(row))
                    yield from fill_row(k + 1)
                    rows_out.pop()
                    remaining_cols[l] += remaining
                    row[l] = 0
                return
            for v in range(min(remaining, remaining_cols[l]) + 1):
                row[l] = v
                remaining_cols[l] -= v
                yield from fill_cell(l + 1, remaining - v)
                remaining_cols[l] += v
            row[l] = 0

        yield from fill_cell(0, n.counts[k])

    yield from fill_row(0)


def count_contingency_tables(n: Occupation, m: Occupation) -> int:
    """Exact table count by dynamic programming over column budgets."""
    check_margins(n, m)
    cols0 = tuple(m.counts)

    @lru_cache(maxsize=None)
    def count(k: int, cols: tuple) -> int:
        if k == n.modes:
            return 1 if all(c == 0 for c in cols) else 0
        total = 0
        target = n.counts[k]

        def comps(l: int, remaining: int, acc: list):
            nonlocal total
            if l == len(cols) - 1:
                if remaining <= cols[l]:
                    new_cols = tuple(c - a for c, a in zip(cols, acc + [remaining]))
                    total += count(k + 1, new_cols)
                return
            for v in range(min(remaining, cols[l]) + 1):
                comps(l + 1, remaining - v, acc + [v])

        comps(0, target, [])
        return total

    return count(0, cols0)


def count_tables_by_crossed_columns(m: Occupation) -> list:
    """Coefficients T_0..T_N of P(z) = prod_k (1 + z + ... + z^{m_k}).

    T_R counts the ways to cross out R column duplicates in the reduced
    inclusion-exclusion sum; the partial sum T_0 + ... + T_{N-1} equals
    prod(m_k + 1) - 1, the number of terms of the reduced sum.
    """
    coeffs = [1]
    for mk in m.counts:
        new = [0] * (len(coeffs) + mk)
        for i, a in enumerate(coeffs):
            if a == 0:
                continue
            for j in range(mk + 1):
                new[i + j] += a
        coeffs = new
    return coeffs


def fisher_yates_probability(table: ContingencyTable) -> Fraction:
    """Probability of a contingency table under independent margins.

    Exact rational value: prod(n_k!) prod(m_l!) / (N! prod(S_kl!)).  Summed
    over all tables with the same margins this is exactly 1.
    """
    n = table.row_sums
    m = table.col_sums
    num = 1
    for c in n.counts:
        num *= math.factorial(c)
    for c in m.counts:
        num *= math.factorial(c)
    den = math.factorial(table.total)
    for row in table.entries:
        for v in row:
            den *= math.factorial(v)
    return Fraction(num, den)


def amplitude_via_contingency_average(
    U: NetworkMatrix, n: Occupation, m: Occupation
) -> LogComplex:
    """Amplitude as N! times the margin-constrained table average of prod U^S.

    Each contingency table S with margins (n, m) carries the exact rational
    probability prod(n_k!) prod(m_l!) / (N! prod S_kl!); the amplitude is
    N! <prod_kl U_kl^S_kl> / sqrt(prod n_k! m_k!).  Independent of the
    inclusion-exclusion engine; exponential in N, hence the N <= 8 guard,
    under which a plain complex sum is accurate enough.
    """
    check_margins(n, m)
    if n.total > 8:
        raise TooLarge("contingency-table oracle limited to N <= 8")
    if n.modes != U.dim:
        raise MarginMismatch("occupation length must equal the matrix dimension")
    a = U.entries
    total = 0j
    for table in enumerate_contingency_tables(n, m):
        prob = float(fisher_yates_probability(table))
        factor = 1.0 + 0j
        for k, row in enumerate(table.entries):
            for l, s in enumerate(row):
                if s:
                    factor *= complex(a[k, l]) ** s
        total += prob * factor
    n_fact = LogComplex.from_real_log(math.lgamma(n.total + 1))
    return (
        LogComplex.from_complex(total)
        * n_fact
        * LogComplex.from_real_log(-log_factorial_norm(n, m))
    )
