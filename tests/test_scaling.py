import cmath
import math

import numpy as np
import pytest

from bosonic_saddle import (
    CoalescingSaddles,
    DegenerateSaddle,
    EmptyMode,
    NoConvergence,
    NonPositiveMatrix,
    Occupation,
    ScalingProblem,
    amplitude_approx,
    build_reduced_system,
    canonicalize_and_dedup,
    haar_random_unitary,
    sinkhorn_scale_classical,
    solve_all_saddles,
    tritter,
    validate_unitary,
)
from bosonic_saddle import scaling
from bosonic_saddle.scaling import SaddleSolution


def _occ(*c):
    return Occupation(tuple(c))


def test_problem_requires_positive_margins(bs):
    with pytest.raises(EmptyMode):
        ScalingProblem(bs, _occ(2, 0), _occ(1, 1))


def test_reduced_system_is_the_quadratic(bs):
    # for the symmetric splitter the single reduced equation is
    # R^2 - 2 gamma R + 1 = 0; at n = m = (15,15) gamma = 0 and roots are +-i
    problem = ScalingProblem(bs, _occ(15, 15), _occ(15, 15))
    system = build_reduced_system(problem)
    for root in (1j, -1j):
        res = system.residual(np.array([root]))
        assert np.max(np.abs(res)) <= 1e-12


@pytest.mark.parametrize("n1,m1,total", [(10, 14, 30), (7, 11, 20), (45, 60, 100)])
def test_reduced_system_roots_match_quadratic(bs, n1, m1, total):
    n = _occ(n1, total - n1)
    m = _occ(m1, total - m1)
    gamma = (m[1] - m[0]) / (2 * math.sqrt(n[0] * n[1]))
    problem = ScalingProblem(bs, n, m)
    system = build_reduced_system(problem)
    disc = cmath.sqrt(complex(gamma * gamma - 1.0))
    for root in (gamma + disc, gamma - disc):
        assert np.max(np.abs(system.residual(np.array([root])))) <= 1e-12


def test_solver_finds_both_beam_splitter_roots(bs):
    problem = ScalingProblem(bs, _occ(15, 15), _occ(15, 15))
    sols = solve_all_saddles(problem)
    assert len(sols) == 2
    ratios = sorted(
        complex(math.sqrt(s.n_counts[1] / s.n_counts[0]) * s.x[0] / s.x[1]).imag
        for s in sols
    )
    assert ratios[0] == pytest.approx(-1.0, abs=1e-10)
    assert ratios[1] == pytest.approx(1.0, abs=1e-10)


def test_all_solutions_satisfy_margins(bs, tt):
    for u, n, m in [
        (bs, _occ(10, 20), _occ(14, 16)),
        (tt, _occ(4, 4, 4), _occ(3, 5, 4)),
    ]:
        for sol in solve_all_saddles(ScalingProblem(u, n, m)):
            assert sol.residual <= 1e-12
            assert sol.margin_residual() <= 1e-12


@pytest.mark.parametrize("total", [8, 40, 120, 200])
def test_solver_matches_closed_form_phases(bs, total):
    # oscillatory regime: R = gamma -+ i sqrt(1 - gamma^2), |R| = 1
    rng = np.random.default_rng(total)
    n1 = int(rng.integers(total // 4, 3 * total // 4))
    m1 = int(rng.integers(total // 3, 2 * total // 3))
    n = _occ(n1, total - n1)
    m = _occ(m1, total - m1)
    gamma = (m[1] - m[0]) / (2 * math.sqrt(n[0] * n[1]))
    if gamma * gamma >= 1:
        pytest.skip("landed in the decay regime")
    sols = solve_all_saddles(ScalingProblem(bs, n, m))
    assert len(sols) == 2
    got = sorted(
        (complex(math.sqrt(n[1] / n[0]) * s.x[0] / s.x[1]) for s in sols),
        key=lambda z: z.imag,
    )
    want = sorted(
        (gamma - 1j * math.sqrt(1 - gamma * gamma), gamma + 1j * math.sqrt(1 - gamma * gamma)),
        key=lambda z: z.imag,
    )
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-10


def test_decay_regime_real_roots(bs):
    sols = solve_all_saddles(ScalingProblem(bs, _occ(10, 50), _occ(2, 58)))
    assert len(sols) == 2
    for s in sols:
        assert np.max(np.abs(s.p.imag)) <= 1e-10


def test_gauge_orbit_is_identified():
    u = haar_random_unitary(3, 3)
    sols = solve_all_saddles(ScalingProblem(u, _occ(2, 2, 2), _occ(2, 2, 2)))
    sol = sols[0]
    lam = 2j
    shifted = SaddleSolution(
        x=sol.x * lam,
        y=sol.y / lam,
        p=sol.p,
        residual=sol.residual,
        n_counts=sol.n_counts,
        m_counts=sol.m_counts,
    )
    merged = canonicalize_and_dedup([sol, shifted])
    assert len(merged) == 1


def test_beam_splitter_roots_stay_distinct(bs):
    sols = solve_all_saddles(ScalingProblem(bs, _occ(15, 15), _occ(15, 15)))
    assert len(canonicalize_and_dedup(sols)) == 2


def test_dedup_empty_input():
    assert canonicalize_and_dedup([]) == []


def test_canonical_gauge_is_real_positive(bs):
    for sol in solve_all_saddles(ScalingProblem(bs, _occ(10, 20), _occ(14, 16))):
        assert sol.x[0].imag == pytest.approx(0.0, abs=1e-15)
        assert sol.x[0].real > 0
        # p is gauge invariant: recompute from the canonical vectors
        u = bs.entries
        p2 = sol.x[:, None] * u * sol.y[None, :]
        assert np.max(np.abs(p2 - sol.p)) <= 1e-14


def test_solver_determinism(tt):
    occ = _occ(3, 3, 3)
    a = solve_all_saddles(ScalingProblem(tt, occ, occ))
    b = solve_all_saddles(ScalingProblem(tt, occ, occ))
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.p, sb.p)
        assert np.array_equal(sa.x, sb.x)
        assert np.array_equal(sa.y, sb.y)


def test_tritter_saddle_count_and_start_stability(tt):
    occ = _occ(4, 4, 4)
    first = solve_all_saddles(ScalingProblem(tt, occ, occ))
    again = solve_all_saddles(ScalingProblem(tt, occ, occ))
    assert len(first) == len(again) == 6
    for sa, sb in zip(first, again):
        assert np.array_equal(sa.p, sb.p)


def _real_orthogonal(dim, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return validate_unitary(q * np.sign(np.diag(r)))


_COUNT_CASES = [
    *[pytest.param(haar_random_unitary(3, s), (8, 10, 12), (11, 9, 10), id=f"haar3-{s}") for s in (1, 2, 3)],
    *[pytest.param(haar_random_unitary(4, s), (3, 2, 4, 1), (2, 2, 3, 3), id=f"haar4-{s}") for s in (1, 2)],
    pytest.param(_real_orthogonal(3, 2), (2, 2, 2), (1, 3, 2), id="orthogonal3-2"),
    pytest.param(_real_orthogonal(4, 2), (1, 1, 1, 1), (1, 1, 1, 1), id="orthogonal4-2"),
]


@pytest.mark.parametrize("u,n,m", _COUNT_CASES)
def test_solver_finds_the_bezout_count(u, n, m):
    # the 2-homogeneous Bezout number of the reduced system in (R, 1/R)
    sols = solve_all_saddles(ScalingProblem(u, Occupation(n), Occupation(m)))
    assert len(sols) == math.comb(2 * u.dim - 2, u.dim - 1)
    for sol in sols:
        assert sol.margin_residual() <= 1e-12


@pytest.mark.parametrize(
    "u,n,m",
    [
        (haar_random_unitary(3, 2), (8, 10, 12), (11, 9, 10)),
        # six saddles of one magnitude: their order must not come from noise
        (tritter(), (2, 2, 2), (4, 1, 1)),
    ],
    ids=["haar3-2", "tritter"],
)
def test_saddles_do_not_depend_on_the_start_system(monkeypatch, u, n, m):
    problem = ScalingProblem(u, Occupation(n), Occupation(m))
    base = solve_all_saddles(problem)
    assert len(base) == 6
    for shift in (1, 2, 3):
        monkeypatch.setattr(scaling, "HOMOTOPY_SEED", scaling.HOMOTOPY_SEED + shift)
        other = solve_all_saddles(problem)
        monkeypatch.undo()
        assert len(other) == len(base)
        for sa, sb in zip(base, other):
            assert np.max(np.abs(sa.p - sb.p)) <= 1e-10


def test_failed_paths_raise_instead_of_a_partial_set(tt, monkeypatch):
    monkeypatch.setattr(scaling, "TRACK_MAX_STEPS", 1)
    occ = _occ(4, 4, 4)
    with pytest.raises(NoConvergence, match="6 of 6 paths failed"):
        solve_all_saddles(ScalingProblem(tt, occ, occ))


def test_coalescing_margins_give_at_most_two_saddles(bs):
    # gamma^2 = 1 exactly: the two roots merge into a double root, where
    # Newton converges only linearly; its copies must not pass for new saddles
    sols = solve_all_saddles(ScalingProblem(bs, _occ(2, 8), _occ(1, 9)))
    assert 1 <= len(sols) <= 2
    with pytest.raises(CoalescingSaddles):
        amplitude_approx(bs, _occ(2, 8), _occ(1, 9))


def test_degenerate_saddles_are_reported():
    ident = validate_unitary(np.eye(2))
    with pytest.raises(DegenerateSaddle):
        solve_all_saddles(ScalingProblem(ident, _occ(1, 1), _occ(1, 1)))


def test_sinkhorn_bell_closed_form(bs):
    a = np.abs(bs.entries) ** 2
    n = _occ(10, 20)
    m = _occ(5, 25)
    sol = sinkhorn_scale_classical(a, n, m, tol=1e-14)
    want = np.outer(n.fractions(), m.fractions())
    assert np.max(np.abs(sol.p - want)) <= 1e-13
    # stated solution x_k = sqrt(M) n_k/N, y = sqrt(M) m_k/N up to the gauge
    lam = (math.sqrt(2) * n.fractions()[0]) / sol.x[0].real
    assert np.allclose(sol.x.real * lam, math.sqrt(2) * n.fractions(), atol=1e-12)
    assert np.allclose(sol.y.real / lam, math.sqrt(2) * m.fractions(), atol=1e-12)


def test_sinkhorn_dominant_diagonal():
    a = np.array([[0.9, 0.05], [0.05, 0.9]]) + 0.05
    n = _occ(3, 2)
    sol = sinkhorn_scale_classical(a, n, n, tol=1e-13)
    assert sol.residual <= 1e-13
    assert sol.p[0, 0].real > sol.p[0, 1].real


def test_sinkhorn_p_strictly_inside_unit_interval():
    rng = np.random.default_rng(8)
    a = np.exp(rng.standard_normal((3, 3)))
    sol = sinkhorn_scale_classical(a, _occ(2, 5, 3), _occ(4, 2, 4), tol=1e-13)
    assert np.all(sol.p.real > 0)
    assert np.all(sol.p.real < 1)


def test_sinkhorn_monotone_and_budget_stable():
    rng = np.random.default_rng(3)
    a = np.exp(rng.standard_normal((3, 3)))
    n = _occ(2, 5, 3)
    m = _occ(4, 2, 4)
    n_frac, m_frac = n.fractions(), m.fractions()
    x = n_frac.copy()
    y = np.ones(3)
    prev = math.inf
    for _ in range(60):
        y = m_frac / (a.T @ x)
        x = n_frac / (a @ y)
        p = x[:, None] * a * y[None, :]
        res = max(
            float(np.max(np.abs(p.sum(1) - n_frac))),
            float(np.max(np.abs(p.sum(0) - m_frac))),
        )
        assert res <= prev + 1e-15
        prev = res
    short = sinkhorn_scale_classical(a, n, m, tol=1e-12, max_sweeps=100)
    long = sinkhorn_scale_classical(a, n, m, tol=1e-12, max_sweeps=200)
    assert np.max(np.abs(short.p - long.p)) <= 1e-12


def test_sinkhorn_rejects_nonpositive():
    with pytest.raises(NonPositiveMatrix):
        sinkhorn_scale_classical(np.eye(2), _occ(1, 1), _occ(1, 1))
