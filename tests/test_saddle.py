import math

import numpy as np
import pytest

from bosonic_saddle import (
    BeamSplitterCase,
    CoalescingSaddles,
    EmptyMode,
    FormMismatch,
    HessianBlocks,
    MarginMismatch,
    NonPositiveIntensity,
    Occupation,
    ScalingProblem,
    amplitude_approx,
    amplitude_exact_bs,
    analytic_det,
    analytic_saddles,
    bell_classical_probability,
    classical_probability,
    classical_probability_approx,
    conjugate_pairs,
    det_Dprime,
    haar_random_unitary,
    mortici_theta,
    multinomial_approx,
    multinomial_exact_log,
    saddle_exponent,
    select_contributing,
    sinkhorn_scale_classical,
    solve_all_saddles,
    stirling_relative_error,
    validate_unitary,
)
from bosonic_saddle.scaling import SaddleSolution

from helpers import rel_error_c


def _occ(*c):
    return Occupation(tuple(c))


def _bell_solution(n, m):
    total = n.total
    nf = n.fractions()
    mf = m.fractions()
    return SaddleSolution(
        x=np.sqrt(len(n.counts)) * nf.astype(complex),
        y=np.sqrt(len(n.counts)) * mf.astype(complex),
        p=np.outer(nf, mf).astype(complex),
        residual=0.0,
        n_counts=n.counts,
        m_counts=m.counts,
    )


def test_det_dprime_bell_closed_form():
    n = _occ(10, 20)
    m = _occ(5, 25)
    sol = _bell_solution(n, m)
    det = det_Dprime(HessianBlocks.from_solution(sol))
    want = float(np.prod(n.fractions()) * np.prod(m.fractions()))
    assert det.real == pytest.approx(want, rel=1e-12)
    assert det.imag == pytest.approx(0.0, abs=1e-15)


def test_det_dprime_crossed_index_agreement(tt):
    occ = _occ(4, 4, 4)
    sols = solve_all_saddles(ScalingProblem(tt, occ, occ))
    for sol in sols:
        ref = det_Dprime(HessianBlocks.from_solution(sol))
        for crossed in range(6):
            d = det_Dprime(HessianBlocks.from_solution(sol, crossed_index=crossed))
            assert abs(d - ref) <= 1e-12 * abs(ref)


def test_det_dprime_matches_beam_splitter_closed_form(bs):
    case = BeamSplitterCase(7, 13, 9, 11)
    for idx, sol in enumerate(analytic_saddles(case)):
        general = det_Dprime(HessianBlocks.from_solution(sol))
        closed = analytic_det(case, idx)
        assert rel_error_c(general, closed) <= 1e-10


def test_det_dprime_form_mismatch_on_invalid_saddle():
    n = _occ(1, 3)
    m = _occ(2, 2)
    sol = _bell_solution(n, m)
    broken = SaddleSolution(
        x=sol.x,
        y=sol.y,
        p=sol.p + np.array([[0.04, -0.01], [0.02, 0.03]]),
        residual=0.0,
        n_counts=sol.n_counts,
        m_counts=sol.m_counts,
    )
    with pytest.raises(FormMismatch):
        det_Dprime(HessianBlocks.from_solution(broken))


def test_generalized_sylvester_identity():
    # det(C_I)^2 det([B^T, I] A [B; I]) = det(A) det(C A^-1 C^T) for the
    # margin-constraint matrix C and random nonsingular A
    rng = np.random.default_rng(42)
    for _ in range(50):
        modes = int(rng.integers(2, 5))
        dim = modes * modes
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        c = np.zeros((2 * modes - 1, dim))
        for j in range(modes):
            c[j, j * modes : (j + 1) * modes] = 1.0
        for j in range(modes, 2 * modes - 1):
            c[j, (j - modes) :: modes] = 1.0
        cols_i = [k * modes for k in range(modes)] + list(range(1, modes))
        cols_ii = [x for x in range(dim) if x not in cols_i]
        ci = c[:, cols_i]
        b = -np.linalg.solve(ci, c[:, cols_ii])
        proj = np.zeros((dim, dim - (2 * modes - 1)), dtype=complex)
        proj[cols_i, :] = b
        proj[cols_ii, :] = np.eye(dim - (2 * modes - 1))
        lhs = np.linalg.det(ci) ** 2 * np.linalg.det(proj.T @ a @ proj)
        rhs = np.linalg.det(a) * np.linalg.det(c @ np.linalg.inv(a) @ c.T)
        assert rel_error_c(lhs, rhs) <= 1e-9


def test_block_determinant_identity():
    # det([[A1, A2],[A3, A4]]) = det(A1) det(A4 - A3 A1^-1 A2)
    #                          = det(A4) det(A1 - A2 A4^-1 A3)
    rng = np.random.default_rng(7)
    for _ in range(50):
        k = int(rng.integers(1, 4))
        blocks = [
            rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            for _ in range(4)
        ]
        a1, a2, a3, a4 = blocks
        full = np.block([[a1, a2], [a3, a4]])
        want = np.linalg.det(full)
        via1 = np.linalg.det(a1) * np.linalg.det(a4 - a3 @ np.linalg.inv(a1) @ a2)
        via2 = np.linalg.det(a4) * np.linalg.det(a1 - a2 @ np.linalg.inv(a4) @ a3)
        assert rel_error_c(via1, want) <= 1e-9
        assert rel_error_c(via2, want) <= 1e-9


def test_saddle_exponent_gauge_invariance(tt):
    occ = _occ(5, 5, 5)
    sol = solve_all_saddles(ScalingProblem(tt, occ, occ))[0]
    base = saddle_exponent(sol, occ, occ)
    lam = -0.7 + 1.9j
    shifted = SaddleSolution(
        x=sol.x * lam,
        y=sol.y / lam,
        p=sol.p,
        residual=sol.residual,
        n_counts=sol.n_counts,
        m_counts=sol.m_counts,
    )
    moved = saddle_exponent(shifted, occ, occ)
    assert abs((base / moved).to_complex() - 1.0) <= 1e-12


def test_saddle_exponent_magnitude_matches_phase_form(bs):
    # with |x_k| = sqrt(n_k/N), |y_k| = sqrt(m_k/N) the exponent magnitude is
    # exp(-N (H(f_n) + H(f_m)) / 2)
    n = _occ(15, 15)
    m = _occ(12, 18)
    sol = solve_all_saddles(ScalingProblem(bs, n, m))[0]
    expo = saddle_exponent(sol, n, m)
    entropy = 0.0
    for occ in (n, m):
        entropy += -sum(f * math.log(f) for f in occ.fractions())
    assert expo.log_mag == pytest.approx(-n.total * entropy / 2.0, rel=1e-12)


def test_select_contributing_oscillatory_both(bs):
    sols = solve_all_saddles(ScalingProblem(bs, _occ(15, 15), _occ(12, 18)))
    contribs = select_contributing(sols)
    assert len(contribs) == 2
    assert all(c.contributing for c in contribs)


def test_select_contributing_decay_exactly_one(bs):
    n, m = _occ(10, 50), _occ(2, 58)
    sols = solve_all_saddles(ScalingProblem(bs, n, m))
    contribs = select_contributing(sols)
    assert len(contribs) == 2
    flags = sorted(c.contributing for c in contribs)
    assert flags == [False, True]
    keeper = next(c for c in contribs if c.contributing)
    other = next(c for c in contribs if not c.contributing)
    # the steepest-descent contour passes through the smaller-modulus saddle
    assert keeper.term.log_mag < other.term.log_mag
    # and that choice reproduces the exact decay amplitude
    from bosonic_saddle.logcomplex import LogComplex
    from bosonic_saddle.saddle import _prefactor_log

    approx = LogComplex.from_real_log(_prefactor_log(n, m)) * keeper.term
    exact = amplitude_exact_bs(BeamSplitterCase.from_occupations(n, m))
    assert abs((approx / exact).to_complex() - 1.0) < 0.01


def test_select_contributing_classical_saddle_alone(bs):
    sol = sinkhorn_scale_classical(np.abs(bs.entries) ** 2, _occ(3, 3), _occ(2, 4))
    contribs = select_contributing([sol])
    assert [c.contributing for c in contribs] == [True]


def test_saddle_exponent_rejects_zero_components():
    from bosonic_saddle import ZeroScalingComponent

    n = _occ(2, 2)
    sol = _bell_solution(n, n)
    broken = SaddleSolution(
        x=np.array([0j, 1 + 0j]),
        y=sol.y,
        p=sol.p,
        residual=0.0,
        n_counts=sol.n_counts,
        m_counts=sol.m_counts,
    )
    with pytest.raises(ZeroScalingComponent):
        saddle_exponent(broken, n, n)
    with pytest.raises(EmptyMode):
        saddle_exponent(sol, _occ(4, 0), n)


def test_amplitude_approx_requires_positive_margins(bs):
    with pytest.raises(EmptyMode):
        amplitude_approx(bs, _occ(2, 0), _occ(1, 1))
    with pytest.raises(MarginMismatch):
        amplitude_approx(bs, _occ(2, 1), _occ(1, 1))


def test_amplitude_approx_hom(bs):
    res = amplitude_approx(bs, _occ(1, 1), _occ(1, 1))
    assert res.amplitude.is_zero
    assert res.diagnostics.saddle_count == 2
    assert res.diagnostics.contributing_count == 2


def test_amplitude_approx_parity_zeros(bs):
    for m1 in (3, 7, 11):
        res = amplitude_approx(bs, _occ(8, 8), _occ(m1, 16 - m1))
        assert res.amplitude.is_zero


def test_amplitude_approx_accuracy_n30(bs):
    n = _occ(15, 15)
    for m1 in (8, 14, 22):
        m = _occ(m1, 30 - m1)
        exact = amplitude_exact_bs(BeamSplitterCase.from_occupations(n, m))
        res = amplitude_approx(bs, n, m)
        ratio = (res.amplitude / exact).to_complex()
        prob_err = abs(abs(ratio) ** 2 - 1.0)
        ref = stirling_relative_error(m)
        assert 1.0 <= prob_err / ref <= 4.0


def test_contribution_term_consistent_with_parts(tt):
    from bosonic_saddle.saddle import _sqrt_log

    occ = _occ(4, 4, 4)
    sols = solve_all_saddles(ScalingProblem(tt, occ, occ))
    for c in select_contributing(sols):
        rebuilt = c.exponent_term / _sqrt_log(c.det_Dprime)
        assert abs((c.term / rebuilt).to_complex() - 1.0) <= 1e-12


def test_amplitude_approx_matches_closed_form_assembly(bs):
    # the general solver pipeline and the closed-form saddles/determinant
    # must assemble to the same value
    from bosonic_saddle.hessian import exponent_log
    from bosonic_saddle.logcomplex import LogComplex
    from bosonic_saddle.saddle import _prefactor_log, _sqrt_log

    n = _occ(9, 21)
    m = _occ(13, 17)
    res = amplitude_approx(bs, n, m)
    case = BeamSplitterCase.from_occupations(n, m)
    total = LogComplex.zero()
    for idx, sol in enumerate(analytic_saddles(case)):
        term = exponent_log(sol.x, sol.y, n.counts, m.counts) / _sqrt_log(
            analytic_det(case, idx)
        )
        total = total + term
    closed = LogComplex.from_real_log(_prefactor_log(n, m)) * total
    assert rel_error_c(res.amplitude.to_complex(), closed.to_complex()) <= 1e-10


def _real_orthogonal(dim, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return validate_unitary(q * np.sign(np.diag(r)))


def test_conjugate_pairs_are_exact_and_shared_with_the_orbits():
    from bosonic_saddle.saddle import _orbits

    u = _real_orthogonal(4, 3)
    sols = solve_all_saddles(ScalingProblem(u, _occ(2, 2, 1, 1), _occ(1, 2, 1, 2)))
    groups = conjugate_pairs(sols)
    assert sorted(i for g in groups for i in g) == list(range(len(sols)))
    pairs = [g for g in groups if len(g) == 2]
    real = [i for i, s in enumerate(sols) if np.max(np.abs(s.p.imag)) <= 1e-9]
    assert pairs and len(real) >= 2
    for i, j in pairs:
        assert np.array_equal(sols[j].p, sols[i].p.conj())
    assert all([i] in groups for i in real)
    contribs = select_contributing(sols)
    assert not all(c.contributing for c in contribs)  # the restriction matters
    want = [
        [id(sols[i]) for i in g if contribs[i].contributing]
        for g in groups
        if any(contribs[i].contributing for i in g)
    ]
    got = [[id(c.solution) for c in orbit] for orbit in _orbits(contribs)]
    assert got == want


def test_calibration_ties_take_the_first_sign_tuple():
    # a real saddle with det D' < 0 has a purely imaginary term; against the
    # real exact value both of its signs fit equally well, so the choice must
    # follow the rule (+ first), not the last bit of the summation
    u = _real_orthogonal(3, 1)
    occ = _occ(3, 3, 3)
    res = amplitude_approx(u, occ, occ)
    assert res.diagnostics.calibrated
    assert res.diagnostics.signs == (1,) * 6
    want = 0.01582077271809142 + 0.054709511747946915j
    assert rel_error_c(res.amplitude.to_complex(), want) <= 1e-12


def test_real_saddles_are_exactly_real():
    # the sign of a purely imaginary term (real saddle, det D' < 0) is that
    # of Im det; it must be an exact 0, not rounding noise of either sign
    from bosonic_saddle.scaling import REAL_P_TOL

    u = _real_orthogonal(3, 1)
    occ = _occ(3, 3, 3)
    contribs = select_contributing(solve_all_saddles(ScalingProblem(u, occ, occ)))
    real = [c for c in contribs if np.max(np.abs(c.solution.p.imag)) <= REAL_P_TOL]
    assert real
    for c in real:
        assert np.all(c.solution.p.imag == 0.0)
        assert c.det_Dprime.imag == 0.0


def test_amplitude_approx_inversion_symmetry():
    u = haar_random_unitary(3, 5)
    n = _occ(4, 3, 5)
    m = _occ(5, 4, 3)
    a = amplitude_approx(u, n, m).amplitude.to_complex()
    b = amplitude_approx(u.dagger(), m, n).amplitude.to_complex()
    assert rel_error_c(a, b.conjugate()) <= 1e-9


def test_amplitude_approx_coalescing_raises(bs):
    # gamma^2 = 1 exactly: the two saddles merge and det(D') vanishes
    with pytest.raises(CoalescingSaddles):
        amplitude_approx(bs, _occ(2, 8), _occ(1, 9))


def test_classical_approx_recovers_bell(bs, tt):
    for u, modes, n, m in [
        (bs, 2, _occ(15, 15), _occ(10, 20)),
        (tt, 3, _occ(10, 10, 10), _occ(10, 10, 10)),
    ]:
        got = classical_probability_approx(u, n, m)
        want = bell_classical_probability(modes, m)
        assert abs(got - want) <= 1e-12 * want


def test_classical_approx_close_to_exact_off_bell():
    u = haar_random_unitary(2, 12)
    if np.min(np.abs(u.entries)) <= 1e-6:
        pytest.skip("degenerate draw")
    n = _occ(4, 4)
    m = _occ(5, 3)
    got = classical_probability_approx(u, n, m)
    want = classical_probability(u, n, m)
    assert abs(got - want) <= 0.05 * want


def test_classical_approx_rejects_vanishing_intensity():
    ident = validate_unitary(np.eye(2))
    with pytest.raises(NonPositiveIntensity):
        classical_probability_approx(ident, _occ(1, 1), _occ(1, 1))


def test_multinomial_approx_binomial_example():
    occ = _occ(15, 15)
    exact = math.comb(30, 15)
    approx = math.exp(multinomial_approx(occ))
    assert abs(approx - exact) / exact < 0.02
    assert math.exp(multinomial_exact_log(occ)) == pytest.approx(exact, rel=1e-12)


def test_multinomial_single_mode_is_exact():
    assert multinomial_approx(_occ(17)) == 0.0


def test_multinomial_requires_positive_counts():
    with pytest.raises(EmptyMode):
        multinomial_approx(_occ(3, 0))


def test_multinomial_error_decays_like_one_over_n():
    errs = {
        total: stirling_relative_error(_occ(total // 2, total // 2))
        for total in (10, 40, 200)
    }
    assert errs[10] / errs[40] == pytest.approx(4.0, rel=0.3)
    assert errs[10] / errs[200] == pytest.approx(20.0, rel=0.3)


def test_mortici_theta_bounds():
    assert mortici_theta(0) == pytest.approx(1.0 / (2 * math.pi), rel=1e-12)
    for k in list(range(1, 60)) + [100, 250, 500]:
        theta = mortici_theta(k)
        assert 1.0 / 6.0 < theta < 0.177
