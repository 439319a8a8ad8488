import math
import time
from fractions import Fraction

import numpy as np
import pytest

from bosonic_saddle import (
    MarginMismatch,
    Occupation,
    TooLarge,
    amplitude_exact,
    bell_classical_probability,
    classical_probability,
    enumerate_output_configs,
    flop_estimate,
    haar_random_unitary,
    permanent_repeated,
    validate_unitary,
)

from helpers import (
    amplitude_via_contingency_average,
    enumerate_contingency_tables,
    fisher_yates_probability,
    materialize,
    permanent_permutation_sum,
    rel_error,
    rel_error_c,
)


def test_naive_all_ones():
    assert permanent_permutation_sum(np.ones((2, 2), dtype=complex)) == 2


def test_naive_identity():
    assert permanent_permutation_sum(np.eye(3, dtype=complex)) == 1


def test_naive_beam_splitter_itself_cancels(bs):
    assert permanent_permutation_sum(bs.entries) == 0


def test_ryser_hom_is_exactly_zero(bs):
    value, _ = permanent_repeated(bs, Occupation.of(1, 1), Occupation.of(1, 1))
    assert value.to_complex() == 0


def test_ryser_repeated_row_case(bs):
    value, _ = permanent_repeated(bs, Occupation.of(2, 0), Occupation.of(1, 1))
    assert value.to_complex() == pytest.approx(-1.0)


def test_ryser_matches_naive_on_haar_7x7():
    u = haar_random_unitary(3, 1)
    n, m = Occupation.of(3, 2, 2), Occupation.of(2, 3, 2)
    got = permanent_repeated(u, n, m)[0].to_complex()
    want = permanent_permutation_sum(materialize(u, n, m))
    assert rel_error_c(got, want) <= 1e-10


def test_ryser_empty_margins_give_one(bs):
    value, stats = permanent_repeated(bs, Occupation.of(0, 0), Occupation.of(0, 0))
    assert value.to_complex() == 1
    assert stats.terms == 0


def test_amplitude_hom_dip(bs):
    amp = amplitude_exact(bs, Occupation.of(1, 1), Occupation.of(1, 1))
    assert amp.is_zero


def test_amplitude_bunching_value(bs):
    amp = amplitude_exact(bs, Occupation.of(1, 1), Occupation.of(2, 0))
    assert amp.to_complex() == pytest.approx(-1 / math.sqrt(2), rel=1e-14)


def test_identity_network_preserves_fock_states():
    ident = validate_unitary(np.eye(3))
    for counts in [(1, 0, 2), (2, 2, 2), (5, 1, 0)]:
        occ = Occupation(counts)
        assert amplitude_exact(ident, occ, occ).to_complex() == pytest.approx(1.0)


def test_amplitude_margin_mismatch(bs):
    with pytest.raises(MarginMismatch):
        amplitude_exact(bs, Occupation.of(2, 1), Occupation.of(1, 1))


def test_fisher_yates_hom_tables():
    tables = list(enumerate_contingency_tables(Occupation.of(1, 1), Occupation.of(1, 1)))
    probs = [fisher_yates_probability(t) for t in tables]
    assert probs == [Fraction(1, 2), Fraction(1, 2)]


def test_contingency_average_hom_is_zero(bs):
    amp = amplitude_via_contingency_average(bs, Occupation.of(1, 1), Occupation.of(1, 1))
    assert abs(amp.to_complex()) < 1e-15


def test_contingency_average_matches_exact_on_tritter(tt):
    one = Occupation.of(1, 1, 1)
    a = amplitude_via_contingency_average(tt, one, one)
    b = amplitude_exact(tt, one, one)
    assert rel_error(a, b) <= 1e-10
    assert a.to_complex() == pytest.approx(-1 / math.sqrt(3), rel=1e-12)


def test_contingency_average_size_guard(tt):
    with pytest.raises(TooLarge):
        amplitude_via_contingency_average(tt, Occupation.of(3, 3, 3), Occupation.of(3, 3, 3))


def test_classical_bell_closed_form(bs, tt):
    # equal-intensity networks: P = N!/(M^N prod m_k!)
    p = classical_probability(bs, Occupation.of(1, 1), Occupation.of(1, 1))
    assert p == pytest.approx(0.5, rel=1e-12)
    p = classical_probability(bs, Occupation.of(15, 15), Occupation.of(10, 20))
    assert p == pytest.approx(bell_classical_probability(2, Occupation.of(10, 20)), rel=1e-10)
    p = classical_probability(tt, Occupation.of(2, 2, 2), Occupation.of(1, 2, 3))
    assert p == pytest.approx(bell_classical_probability(3, Occupation.of(1, 2, 3)), rel=1e-10)


def test_classical_probabilities_normalize(bs):
    n = Occupation.of(2, 1)
    total = sum(
        classical_probability(bs, n, m) for m in enumerate_output_configs(2, 3)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_quantum_probabilities_normalize():
    u = haar_random_unitary(3, 9)
    n = Occupation.of(5, 4, 3)
    total = 0.0
    for m in enumerate_output_configs(3, 12):
        amp = amplitude_exact(u, n, m)
        total += abs(amp.to_complex()) ** 2
    assert total == pytest.approx(1.0, abs=1e-9)


def test_quantum_normalization_beam_splitter(bs):
    n = Occupation.of(7, 5)
    total = sum(
        abs(amplitude_exact(bs, n, m).to_complex()) ** 2
        for m in enumerate_output_configs(2, 12)
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_inversion_symmetry():
    u = haar_random_unitary(3, 4)
    n = Occupation.of(4, 2, 3)
    m = Occupation.of(3, 3, 3)
    a = amplitude_exact(u, n, m).to_complex()
    b = amplitude_exact(u.dagger(), m, n).to_complex()
    assert rel_error_c(a, b.conjugate()) <= 1e-10


def test_mode_permutation_invariance():
    u = haar_random_unitary(3, 6)
    n = Occupation.of(4, 1, 2)
    m = Occupation.of(2, 2, 3)
    base = abs(amplitude_exact(u, n, m).to_complex())
    perm = [2, 0, 1]
    u2 = u.permuted(perm)
    n2 = Occupation(tuple(n.counts[i] for i in perm))
    m2 = Occupation(tuple(m.counts[i] for i in perm))
    assert abs(amplitude_exact(u2, n2, m2).to_complex()) == pytest.approx(base, abs=1e-12)


def test_oracle_equivalence_sample():
    for seed in (1, 2, 3):
        for modes in (2, 3):
            u = haar_random_unitary(modes, seed)
            for total in (1, 3, 5):
                configs = enumerate_output_configs(modes, total)
                for n in configs[:: max(1, len(configs) // 4)]:
                    for m in configs[:: max(1, len(configs) // 4)]:
                        got = permanent_repeated(u, n, m)[0].to_complex()
                        want = permanent_permutation_sum(materialize(u, n, m))
                        assert rel_error_c(got, want) <= 1e-10


def test_adaptive_precision_rescues_deep_cancellation(bs):
    # N = 60 balanced margins cancel ~15 digits below the largest term; the
    # integer sum carries them all and agrees with the exact single-sum value
    from bosonic_saddle import BeamSplitterCase, amplitude_exact_bs

    n = Occupation.of(30, 30)
    m = Occupation.of(28, 32)
    got = amplitude_exact(bs, n, m)
    want = amplitude_exact_bs(BeamSplitterCase(30, 30, 28, 32))
    assert rel_error(got, want) <= 1e-10
    _, stats = permanent_repeated(bs, n, m)
    assert stats.dps_used > 15  # more digits than float64 holds


def test_structurally_suppressed_amplitude_detected_as_zero(bs):
    # generalized two-boson dip at N = 20: odd m1 with balanced input
    amp = amplitude_exact(bs, Occupation.of(10, 10), Occupation.of(9, 11))
    assert amp.is_zero


def test_flop_estimate_examples():
    fe = flop_estimate(Occupation.of(1, 1), Occupation.of(1, 1))
    assert (fe.lower, fe.upper) == (6, 12)
    fe = flop_estimate(Occupation.of(10, 10, 10), Occupation.of(10, 10, 10))
    assert fe.lower == 39900
    assert fe.upper == 3 * 39900


def test_flop_upper_bound_grows_like_n_to_m_plus_1():
    def upper(total, modes):
        k = total // modes
        occ = Occupation(tuple([k] * modes))
        return flop_estimate(occ, occ).upper

    # doubling N multiplies the uniform-margin bound by ~2^{M+1}
    ratio = upper(60, 3) / upper(30, 3)
    assert 8 <= ratio <= 24


def test_instrumented_flops_bracketed_by_estimate(tt):
    occ = Occupation.of(5, 5, 5)
    _, stats = permanent_repeated(tt, occ, occ)
    fe = flop_estimate(occ, occ)
    assert fe.lower < stats.instrumented_flops < fe.upper


def test_runtime_scaling_loose(tt):
    def best_time(total):
        k = total // 3
        occ = Occupation(tuple([k] * 3))
        best = math.inf
        for _ in range(3):
            t0 = time.process_time()
            permanent_repeated(tt, occ, occ)
            best = min(best, time.process_time() - t0)
        return best

    ratio = best_time(30) / best_time(15)
    assert ratio <= 24  # 2^{M+1} * 1.5


def test_ryser_total_matches_independent_oracle(tt):
    occ_n = Occupation.of(2, 2, 2)
    full = permanent_repeated(tt, occ_n, occ_n)[0].to_complex()
    want = permanent_permutation_sum(materialize(tt, occ_n, occ_n))
    assert rel_error_c(full, want) <= 1e-10
