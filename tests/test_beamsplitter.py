import math

import numpy as np
import pytest

from bosonic_saddle import (
    BeamSplitterCase,
    EmptyMode,
    MarginMismatch,
    Occupation,
    Regime,
    ScalingProblem,
    amplitude_exact,
    amplitude_exact_bs,
    analytic_det,
    analytic_saddles,
    classify_regime,
    solve_all_saddles,
)
from bosonic_saddle.hessian import det_dprime_schur

from helpers import rel_error, rel_error_c


def test_case_validation():
    with pytest.raises(MarginMismatch):
        BeamSplitterCase(1, 1, 3, 0)
    with pytest.raises(ValueError):
        BeamSplitterCase(-1, 3, 1, 1)


def test_gamma_sigma_formulas():
    case = BeamSplitterCase(10, 20, 14, 16)
    assert case.gamma == pytest.approx((16 - 14) / (2 * math.sqrt(200)))
    assert case.sigma == pytest.approx((20 - 10) / (2 * math.sqrt(14 * 16)))


def test_regime_examples_n60():
    n1 = 10
    assert classify_regime(BeamSplitterCase(n1, 50, 30, 30)) == Regime.OSCILLATORY
    assert classify_regime(BeamSplitterCase(n1, 50, 5, 55)) == Regime.DECAY
    assert classify_regime(BeamSplitterCase(n1, 50, 10, 50)) == Regime.COALESCING


def test_regime_threshold_equivalence():
    # oscillatory iff (Dn)^2 + (Dm)^2 < N^2, via 4 n1 n2 (1 - gamma^2)
    rng = np.random.default_rng(0)
    for _ in range(200):
        total = int(rng.integers(4, 120))
        n1 = int(rng.integers(1, total))
        m1 = int(rng.integers(1, total))
        case = BeamSplitterCase(n1, total - n1, m1, total - m1)
        disc = total**2 - case.delta_n**2 - case.delta_m**2
        reg = classify_regime(case)
        if reg == Regime.OSCILLATORY:
            assert disc > 0
        elif reg == Regime.DECAY:
            assert disc < 0


def test_phase_identity_exact_integers():
    # 16 n1 n2 m1 m2 = (N^2 - Dn^2)(N^2 - Dm^2) exactly
    for (n1, n2, m1, m2) in [(7, 13, 9, 11), (1, 5, 2, 4), (30, 30, 17, 43)]:
        total = n1 + n2
        lhs = 16 * n1 * n2 * m1 * m2
        rhs = (total**2 - (n2 - n1) ** 2) * (total**2 - (m2 - m1) ** 2)
        assert lhs == rhs


def test_sigma_gamma_threshold_identity():
    # 4 m1 m2 (1 - sigma^2) = 4 n1 n2 (1 - gamma^2), both = N^2 - Dn^2 - Dm^2
    case = BeamSplitterCase(7, 13, 9, 11)
    total = case.total
    lhs = 4 * case.m1 * case.m2 * (1 - case.sigma**2)
    mid = 4 * case.n1 * case.n2 * (1 - case.gamma**2)
    rhs = total**2 - case.delta_n**2 - case.delta_m**2
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert mid == pytest.approx(rhs, rel=1e-12)


def test_analytic_saddles_symmetric_case():
    case = BeamSplitterCase(15, 15, 15, 15)
    sads = analytic_saddles(case)
    assert len(sads) == 2
    p_vals = sorted((complex(s.p[0, 0]) for s in sads), key=lambda z: z.imag)
    assert p_vals[0] == pytest.approx((1 - 1j) / 4, abs=1e-12)
    assert p_vals[1] == pytest.approx((1 + 1j) / 4, abs=1e-12)


def test_analytic_saddles_satisfy_margins():
    for (n1, n2, m1, m2) in [(15, 15, 15, 15), (7, 13, 9, 11), (10, 50, 2, 58)]:
        for sol in analytic_saddles(BeamSplitterCase(n1, n2, m1, m2)):
            assert sol.margin_residual() <= 1e-12


def test_analytic_saddles_decay_regime_real():
    for sol in analytic_saddles(BeamSplitterCase(10, 50, 2, 58)):
        assert np.max(np.abs(sol.p.imag)) <= 1e-12


def test_analytic_saddles_require_positive_modes():
    with pytest.raises(EmptyMode):
        analytic_saddles(BeamSplitterCase(0, 2, 1, 1))


def test_analytic_saddles_match_solver(bs):
    rng = np.random.default_rng(1)
    checked = 0
    while checked < 12:
        total = int(rng.integers(4, 80))
        n1 = int(rng.integers(1, total))
        m1 = int(rng.integers(1, total))
        case = BeamSplitterCase(n1, total - n1, m1, total - m1)
        if classify_regime(case) == Regime.COALESCING:
            continue
        checked += 1
        got = solve_all_saddles(
            ScalingProblem(bs, Occupation.of(n1, total - n1), Occupation.of(m1, total - m1))
        )
        want = analytic_saddles(case)
        assert len(got) == len(want) == 2
        for w in want:
            best = min(float(np.max(np.abs(w.p - g.p))) for g in got)
            assert best <= 1e-9


def test_analytic_det_matches_general_form():
    rng = np.random.default_rng(2)
    checked = 0
    while checked < 100:
        total = int(rng.integers(4, 200))
        n1 = int(rng.integers(1, total))
        m1 = int(rng.integers(1, total))
        case = BeamSplitterCase(n1, total - n1, m1, total - m1)
        if abs(case.gamma) == 1.0:
            continue
        checked += 1
        for idx, sol in enumerate(analytic_saddles(case)):
            general = det_dprime_schur(sol.n_frac(), sol.m_frac(), sol.p)
            closed = analytic_det(case, idx)
            assert rel_error_c(general, closed) <= 1e-10


def test_analytic_det_magnitude_at_symmetric_point():
    case = BeamSplitterCase(15, 15, 15, 15)
    for idx in (0, 1):
        assert abs(analytic_det(case, idx)) == pytest.approx(1.0 / 8.0, rel=1e-12)


def test_analytic_det_vanishes_on_transition_circle():
    # gamma^2 = 1 exactly at n=(2,8), m=(1,9); the closed form evaluates the
    # vanishing factor through floats, so "zero" means sqrt(rounding) here
    case = BeamSplitterCase(2, 8, 1, 9)
    assert abs(analytic_det(case, 0)) <= 1e-8
    mags = []
    for m1 in range(1, 10):
        c = BeamSplitterCase(2, 8, m1, 10 - m1)
        mags.append(abs(analytic_det(c, 0)))
    assert mags[0] <= 2 * min(mags)  # the circle points are the smallest by far
    assert min(mags[1:-1]) / mags[0] > 1e6


def test_exact_bs_hom_is_exactly_zero():
    assert amplitude_exact_bs(BeamSplitterCase(1, 1, 1, 1)).is_zero


def test_exact_bs_two_boson_bunching():
    amp = amplitude_exact_bs(BeamSplitterCase(1, 1, 2, 0))
    assert amp.to_complex() == pytest.approx(-1 / math.sqrt(2), rel=1e-13)


def test_exact_bs_generalized_parity_zeros():
    for total in (10, 22, 40):
        h = total // 2
        for m1 in range(1, total, 2):
            assert amplitude_exact_bs(BeamSplitterCase(h, h, m1, total - m1)).is_zero


def test_exact_bs_matches_engine_sampled(bs):
    rng = np.random.default_rng(3)
    for _ in range(40):
        total = int(rng.integers(1, 13))
        n1 = int(rng.integers(0, total + 1))
        m1 = int(rng.integers(0, total + 1))
        a = amplitude_exact_bs(BeamSplitterCase(n1, total - n1, m1, total - m1))
        b = amplitude_exact(bs, Occupation.of(n1, total - n1), Occupation.of(m1, total - m1))
        assert rel_error(a, b) <= 1e-10


def test_exact_bs_zeros_allowed():
    amp = amplitude_exact_bs(BeamSplitterCase(3, 0, 1, 2))
    assert not amp.is_zero


def test_exact_bs_large_n_is_finite_and_normalized():
    # the rational core keeps full accuracy at N = 200
    amp = amplitude_exact_bs(BeamSplitterCase(100, 100, 100, 100))
    assert math.isfinite(amp.log_mag)
    assert amp.log_mag < 0
