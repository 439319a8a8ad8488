import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bosonic_saddle import (
    BadDimension,
    MarginMismatch,
    NotUnitary,
    Occupation,
    beam_splitter,
    enumerate_output_configs,
    haar_random_unitary,
    output_config_count,
    tritter,
    validate_unitary,
)

from helpers import (
    count_contingency_tables,
    count_tables_by_crossed_columns,
    enumerate_contingency_tables,
    fisher_yates_probability,
)


def test_identity_is_accepted():
    u = validate_unitary(np.eye(2))
    assert u.dim == 2
    assert u.unitarity_deviation <= 1e-10


def test_symmetric_beam_splitter_is_accepted():
    assert beam_splitter().dim == 2
    assert tritter().dim == 3


def test_non_unitary_is_rejected_with_deviation():
    with pytest.raises(NotUnitary) as exc:
        validate_unitary([[1, 0], [0, 2]])
    assert exc.value.deviation == pytest.approx(3.0)


def test_dimension_guards():
    with pytest.raises(BadDimension):
        validate_unitary([[1.0]])
    with pytest.raises(BadDimension):
        validate_unitary(np.ones((2, 3)))
    with pytest.raises(BadDimension):
        haar_random_unitary(1, 0)


def test_haar_is_deterministic_per_seed():
    a = haar_random_unitary(3, 7)
    b = haar_random_unitary(3, 7)
    assert np.array_equal(a.entries, b.entries)
    c = haar_random_unitary(3, 8)
    assert not np.array_equal(a.entries, c.entries)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=5))
@settings(max_examples=40, deadline=None)
def test_haar_output_is_always_unitary(seed, dim):
    u = haar_random_unitary(dim, seed)
    assert u.unitarity_deviation <= 1e-10


def test_haar_first_entry_moment():
    # E|U_11|^2 = 1/M for the invariant measure
    acc = 0.0
    trials = 10_000
    for seed in range(trials):
        acc += abs(haar_random_unitary(3, seed).entries[0, 0]) ** 2
    assert acc / trials == pytest.approx(1.0 / 3.0, abs=0.02)


def test_output_configs_m2_n3():
    configs = enumerate_output_configs(2, 3)
    assert [tuple(c) for c in configs] == [(0, 3), (1, 2), (2, 1), (3, 0)]


def test_output_configs_counts():
    assert len(enumerate_output_configs(3, 2)) == 6
    assert output_config_count(3, 30) == 496
    assert output_config_count(2, 0) == 1


@pytest.mark.parametrize("modes,total", list(product([1, 2, 3, 4], range(0, 9))))
def test_output_config_count_matches_enumeration(modes, total):
    configs = enumerate_output_configs(modes, total)
    assert len(configs) == math.comb(modes + total - 1, total)
    assert configs == sorted(configs, key=lambda c: c.counts)
    assert all(c.total == total for c in configs)


def test_occupation_validation_and_parsing():
    occ = Occupation.parse("1, 2, 0")
    assert occ.counts == (1, 2, 0)
    assert occ.total == 3
    assert not occ.strictly_positive
    assert Occupation.of(2, 1).strictly_positive
    with pytest.raises(ValueError):
        Occupation.parse("1,x")
    with pytest.raises(ValueError):
        Occupation.of(-1, 2)


def test_contingency_tables_2x2_permutations():
    tables = list(
        enumerate_contingency_tables(Occupation.of(1, 1), Occupation.of(1, 1))
    )
    entries = sorted(t.entries for t in tables)
    assert entries == [((0, 1), (1, 0)), ((1, 0), (0, 1))]


def test_contingency_tables_forced_by_zero_row():
    tables = list(
        enumerate_contingency_tables(Occupation.of(2, 0), Occupation.of(1, 1))
    )
    assert len(tables) == 1
    assert tables[0].entries == ((1, 1), (0, 0))


def test_contingency_tables_2_2_margins():
    tables = list(
        enumerate_contingency_tables(Occupation.of(2, 2), Occupation.of(2, 2))
    )
    assert len(tables) == 3


def test_contingency_margin_mismatch():
    with pytest.raises(MarginMismatch):
        list(enumerate_contingency_tables(Occupation.of(2, 1), Occupation.of(1, 1)))


def _polynomial_table_count(n, m):
    # coefficient of prod_l x_l^{m_l} in prod_k (sum over compositions of n_k),
    # an independent generating-function count of tables with both margins
    modes = n.modes
    poly = {(0,) * modes: 1}
    for nk in n.counts:
        row_terms = {}
        for comp in enumerate_output_configs(modes, nk):
            row_terms[tuple(comp)] = row_terms.get(tuple(comp), 0) + 1
        new = {}
        for mono, coef in poly.items():
            for comp, w in row_terms.items():
                key = tuple(a + b for a, b in zip(mono, comp))
                if any(a > b for a, b in zip(key, m.counts)):
                    continue
                new[key] = new.get(key, 0) + coef * w
        poly = new
    return poly.get(tuple(m.counts), 0)


@pytest.mark.parametrize("modes,total", [(2, 5), (2, 8), (3, 4), (3, 6), (3, 8)])
def test_table_counts_cross_check_three_ways(modes, total):
    configs = enumerate_output_configs(modes, total)
    rng = np.random.default_rng(total)
    pairs = [(configs[i], configs[j])
             for i in rng.integers(0, len(configs), 4)
             for j in rng.integers(0, len(configs), 3)]
    for n, m in pairs:
        enumerated = sum(1 for _ in enumerate_contingency_tables(n, m))
        assert enumerated == count_contingency_tables(n, m)
        assert enumerated == _polynomial_table_count(n, m)


def test_crossed_column_counts_examples():
    assert count_tables_by_crossed_columns(Occupation.of(1, 1)) == [1, 2, 1]
    assert count_tables_by_crossed_columns(Occupation.of(2)) == [1, 1, 1]
    assert count_tables_by_crossed_columns(Occupation.of(2, 1)) == [1, 2, 2, 1]


@pytest.mark.parametrize("m", [(1, 1), (2, 1), (3, 2), (2, 2, 2), (4, 1, 3)])
def test_crossed_column_partial_sum_identity(m):
    occ = Occupation(m)
    coeffs = count_tables_by_crossed_columns(occ)
    total_points = 1
    for mk in m:
        total_points *= mk + 1
    assert sum(coeffs[: occ.total]) == total_points - 1
    assert sum(coeffs) == total_points


@pytest.mark.parametrize(
    "n,m",
    [((1, 1), (1, 1)), ((2, 2), (2, 2)), ((3, 1, 2), (2, 2, 2)), ((4, 2), (3, 3))],
)
def test_fisher_yates_probabilities_sum_to_one(n, m):
    total = sum(
        fisher_yates_probability(t)
        for t in enumerate_contingency_tables(Occupation(n), Occupation(m))
    )
    assert total == 1  # exact rational arithmetic


def test_mode_permutation_relabels_network():
    u = haar_random_unitary(3, 2)
    v = u.permuted([2, 0, 1])
    assert v.entries[0, 0] == u.entries[2, 2]
