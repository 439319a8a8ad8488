"""Acceptance suite: one test per numbered criterion, printed pass/fail.

Each criterion is evaluated at its stated tolerance; the prints give a
one-line summary per criterion so a `pytest -v -s tests/test_acceptance.py`
run doubles as the acceptance report.
"""

import contextlib
import io
import math
import time

import numpy as np

from bosonic_saddle import (
    BeamSplitterCase,
    CoalescingSaddles,
    Occupation,
    Regime,
    ScalingProblem,
    amplitude_approx,
    amplitude_exact,
    amplitude_exact_bs,
    beam_splitter,
    bell_classical_probability,
    classify_regime,
    classical_probability_approx,
    enumerate_output_configs,
    flop_estimate,
    haar_random_unitary,
    permanent_repeated,
    solve_all_saddles,
    stirling_relative_error,
    tritter,
)
from bosonic_saddle.hessian import det_dprime_schur

from helpers import (
    amplitude_via_contingency_average,
    materialize,
    permanent_assignment_sum,
    permanent_permutation_sum,
    rel_error,
    rel_error_c,
)


def _report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:2d}] {status} - {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_oracle_equivalence():
    t0 = time.time()
    worst_perm = 0.0
    worst_avg = 0.0
    pairs = 0
    for seed in range(1, 21):
        for modes in (2, 3):
            u = haar_random_unitary(modes, seed)
            rng = np.random.default_rng(seed)
            for total in range(1, 9):
                configs = enumerate_output_configs(modes, total)
                for n in configs:
                    for m in configs:
                        ryser = permanent_repeated(u, n, m)[0].to_complex()
                        grouped = permanent_assignment_sum(u.entries, n.counts, m.counts)
                        worst_perm = max(worst_perm, rel_error_c(ryser, grouped))
                        if total <= 6 or rng.random() < 0.05:
                            raw = permanent_permutation_sum(materialize(u, n, m))
                            worst_perm = max(worst_perm, rel_error_c(ryser, raw))
                        avg = amplitude_via_contingency_average(u, n, m)
                        exact = amplitude_exact(u, n, m)
                        worst_avg = max(worst_avg, rel_error(avg, exact))
                        pairs += 1
    elapsed = time.time() - t0
    ok = worst_perm <= 1e-10 and worst_avg <= 1e-10 and elapsed < 120
    _report(
        1,
        "oracle equivalence across 20 Haar seeds, M in {2,3}, N <= 8",
        ok,
        f"{pairs} pairs, worst permanent rel {worst_perm:.2e}, "
        f"worst table-average rel {worst_avg:.2e}, {elapsed:.0f}s",
    )


def test_criterion_02_beam_splitter_exactness_chain():
    bs = beam_splitter()
    worst = 0.0
    zero_mismatch = 0
    for total in range(1, 13):
        for n1 in range(total + 1):
            for m1 in range(total + 1):
                case = BeamSplitterCase(n1, total - n1, m1, total - m1)
                closed = amplitude_exact_bs(case)
                engine = amplitude_exact(
                    bs, Occupation.of(n1, total - n1), Occupation.of(m1, total - m1)
                )
                if closed.is_zero != engine.is_zero:
                    zero_mismatch += 1
                    continue
                worst = max(worst, rel_error(closed, engine))
    hom_exactly_zero = amplitude_exact_bs(BeamSplitterCase(1, 1, 1, 1)).is_zero
    ok = worst <= 1e-10 and zero_mismatch == 0 and hom_exactly_zero
    _report(
        2,
        "closed-form beam-splitter amplitude matches the exact engine, N <= 12",
        ok,
        f"worst rel {worst:.2e}, zero mismatches {zero_mismatch}, HOM zero {hom_exactly_zero}",
    )


def test_criterion_03_generalized_hom_suppression():
    bs = beam_splitter()
    offenders = []
    calls = 0
    for total in range(10, 61, 2):
        half = total // 2
        n = Occupation.of(half, half)
        for m1 in range(1, total, 2):
            res = amplitude_approx(bs, n, Occupation.of(m1, total - m1))
            calls += 1
            if not res.amplitude.is_zero:
                offenders.append((total, m1))
    _report(
        3,
        "saddle approximation returns exactly 0 at every odd m1 for n = (N/2, N/2)",
        not offenders,
        f"{calls} configurations checked, offenders: {offenders[:3]}",
    )


def test_criterion_04_accuracy_at_n30():
    t0 = time.time()
    bs = beam_splitter()
    n = Occupation.of(15, 15)
    ratios = {}
    for m1 in range(6, 25, 2):
        m = Occupation.of(m1, 30 - m1)
        exact = amplitude_exact_bs(BeamSplitterCase.from_occupations(n, m))
        res = amplitude_approx(bs, n, m)
        # the reported relative error is that of the probability |amp|^2,
        # approximately twice the Stirling error of the binomial C(30, m1)
        prob_rel = abs(abs((res.amplitude / exact).to_complex()) ** 2 - 1.0)
        ratios[m1] = prob_rel / stirling_relative_error(m)
    elapsed = time.time() - t0
    ok = all(1.0 <= r <= 4.0 for r in ratios.values()) and elapsed < 60
    _report(
        4,
        "N=30 probability error is 1x-4x the Stirling binomial reference",
        ok,
        f"ratios {min(ratios.values()):.2f}..{max(ratios.values()):.2f}, {elapsed:.0f}s",
    )


def _beam_splitter_error_points(in_fracs, out_fracs, n_max):
    bs = beam_splitter()
    points = []
    for total in range(8, n_max + 1):
        n_c = [f * total for f in in_fracs]
        m_c = [f * total for f in out_fracs]
        if any(abs(c - round(c)) > 1e-9 for c in n_c + m_c):
            continue
        n = Occupation(tuple(int(round(c)) for c in n_c))
        m = Occupation(tuple(int(round(c)) for c in m_c))
        case = BeamSplitterCase.from_occupations(n, m)
        if classify_regime(case) == Regime.COALESCING:
            continue
        exact = amplitude_exact_bs(case)
        if exact.is_zero:
            continue
        try:
            res = amplitude_approx(bs, n, m)
        except CoalescingSaddles:
            continue
        if res.amplitude.is_zero:
            continue
        rel = abs((res.amplitude / exact).to_complex() - 1.0)
        points.append((total, rel))
    return points


def test_criterion_05_inverse_n_error_scaling():
    slopes = {}
    for fracs in [((0.5, 0.5), (0.5, 0.5)), ((0.75, 0.25), (0.5, 0.5))]:
        pts = _beam_splitter_error_points(*fracs, n_max=100)
        assert len(pts) >= 8
        xs = np.log([p[0] for p in pts])
        ys = np.log([p[1] for p in pts])
        slopes[fracs] = float(np.polyfit(xs, ys, 1)[0])
    pts = _beam_splitter_error_points((2 / 3, 1 / 3), (1 / 3, 2 / 3), n_max=99)
    assert len(pts) >= 10
    c_of_n = [total * rel for total, rel in pts]
    half = len(c_of_n) // 2
    lower, upper = np.mean(c_of_n[:half]), np.mean(c_of_n[half:])
    bounded = upper <= 2.0 * lower
    ok = all(-1.3 <= s <= -0.7 for s in slopes.values()) and bounded
    _report(
        5,
        "relative error scales like 1/N (log-log slope in [-1.3, -0.7]); "
        "oscillatory case has bounded C(N) = E(N) N",
        ok,
        f"slopes {[round(s, 3) for s in slopes.values()]}, "
        f"C(N) means lower/upper {lower:.3f}/{upper:.3f}",
    )


def test_criterion_06_tritter_error_trend():
    t0 = time.time()
    tt = tritter()
    rows = []
    max_saddles = 0
    for total in range(6, 61, 3):
        k = total // 3
        occ = Occupation.of(k, k, k)
        sols = solve_all_saddles(ScalingProblem(tt, occ, occ))
        max_saddles = max(max_saddles, len(sols))
        assert len(sols) <= 6, f"N={total}: {len(sols)} saddles"
        exact = amplitude_exact(tt, occ, occ)
        if exact.is_zero:
            continue
        res = amplitude_approx(tt, occ, occ)
        rel = abs((res.amplitude / exact).to_complex() - 1.0)
        rows.append((total, rel))
    c_of_n = [total * rel for total, rel in rows]
    half = len(c_of_n) // 2
    lower = float(np.median(c_of_n[:half]))
    upper = float(np.median(c_of_n[half:]))
    elapsed = time.time() - t0
    ok = upper <= 2.0 * lower and max_saddles <= 6 and elapsed < 600
    _report(
        6,
        "tritter: <= 6 saddles at every N and E(N)*N stays flat (median ratio <= 2)",
        ok,
        f"{len(rows)} points, median C lower/upper {lower:.3f}/{upper:.3f}, "
        f"max saddles {max_saddles}, {elapsed:.0f}s",
    )


def test_criterion_07_classical_exactness():
    bs = beam_splitter()
    tt = tritter()
    cases = [
        (bs, 2, Occupation.of(15, 15), Occupation.of(10, 20)),
        (bs, 2, Occupation.of(85, 85), Occupation.of(85, 85)),
        (bs, 2, Occupation.of(100, 70), Occupation.of(61, 109)),
        (tt, 3, Occupation.of(10, 10, 10), Occupation.of(6, 14, 10)),
        (tt, 3, Occupation.of(56, 57, 57), Occupation.of(57, 56, 57)),
        (tt, 3, Occupation.of(80, 45, 45), Occupation.of(56, 57, 57)),
    ]
    worst = 0.0
    worst_det = 0.0
    for u, modes, n, m in cases:
        got = classical_probability_approx(u, n, m)
        want = bell_classical_probability(modes, m)
        worst = max(worst, abs(got - want) / want)
        # the classical saddle determinant equals prod_k (n_k/N)(m_k/N)
        from bosonic_saddle import HessianBlocks, det_Dprime, sinkhorn_scale_classical

        sol = sinkhorn_scale_classical(np.abs(u.entries) ** 2, n, m, tol=1e-14)
        det = det_Dprime(HessianBlocks.from_solution(sol))
        det_want = float(np.prod(sol.n_frac()) * np.prod(sol.m_frac()))
        worst_det = max(worst_det, abs(det - det_want) / det_want)
    ok = worst <= 1e-12 and worst_det <= 1e-12
    _report(
        7,
        "classical saddle pipeline reproduces N!/(M^N prod m!) on Bell networks to 1e-12",
        ok,
        f"worst rel {worst:.2e}, worst det rel {worst_det:.2e}, "
        f"{len(cases)} cases up to N = 170",
    )


def test_criterion_08_determinant_identity_suite():
    rng = np.random.default_rng(42)
    # generalized Sylvester identity on the margin-constraint matrix
    worst_sylvester = 0.0
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
        worst_sylvester = max(worst_sylvester, rel_error_c(lhs, rhs))
    # 2x2-block determinant identity
    worst_block = 0.0
    for _ in range(50):
        k = int(rng.integers(1, 4))
        a1, a2, a3, a4 = (
            rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
            for _ in range(4)
        )
        full = np.linalg.det(np.block([[a1, a2], [a3, a4]]))
        via1 = np.linalg.det(a1) * np.linalg.det(a4 - a3 @ np.linalg.inv(a1) @ a2)
        via2 = np.linalg.det(a4) * np.linalg.det(a1 - a2 @ np.linalg.inv(a4) @ a3)
        worst_block = max(worst_block, rel_error_c(via1, full), rel_error_c(via2, full))
    # all 2M principal minors agree at accepted saddles
    bs = beam_splitter()
    tt = tritter()
    problems = [
        ScalingProblem(bs, Occupation.of(15, 15), Occupation.of(12, 18)),
        ScalingProblem(bs, Occupation.of(10, 50), Occupation.of(2, 58)),
        ScalingProblem(tt, Occupation.of(5, 5, 5), Occupation.of(4, 6, 5)),
        ScalingProblem(haar_random_unitary(4, 11), Occupation.of(3, 3, 3, 3), Occupation.of(3, 3, 3, 3)),
    ]
    worst_minor = 0.0
    for problem in problems:
        sols = solve_all_saddles(problem)
        if problem.U.dim == 4:
            assert len(sols) <= 20
        for sol in sols:
            dets = [
                det_dprime_schur(sol.n_frac(), sol.m_frac(), sol.p, crossed)
                for crossed in range(2 * problem.U.dim)
            ]
            ref = dets[0]
            for d in dets[1:]:
                worst_minor = max(worst_minor, abs(d - ref) / abs(ref))
    ok = worst_sylvester <= 1e-9 and worst_block <= 1e-9 and worst_minor <= 1e-12
    _report(
        8,
        "determinant identities: generalized Sylvester, block identity, equal minors",
        ok,
        f"sylvester {worst_sylvester:.2e}, block {worst_block:.2e}, minors {worst_minor:.2e}",
    )


def test_criterion_09_coalescing_detection(tmp_path):
    bs = beam_splitter()
    n = Occupation.of(10, 50)
    flagged = []
    window_ratios = {}
    ref_n = stirling_relative_error(n)
    for m1 in range(1, 60):
        m = Occupation.of(m1, 60 - m1)
        case = BeamSplitterCase.from_occupations(n, m)
        if classify_regime(case) == Regime.COALESCING:
            flagged.append(m1)
            continue
        if not 14 <= m1 <= 46:
            continue
        exact = amplitude_exact_bs(case)
        res = amplitude_approx(bs, n, m)
        prob_rel = abs(abs((res.amplitude / exact).to_complex()) ** 2 - 1.0)
        window_ratios[m1] = prob_rel / (ref_n + stirling_relative_error(m))
    near_10 = [m1 for m1 in flagged if 5 <= m1 <= 13]
    near_50 = [m1 for m1 in flagged if 47 <= m1 <= 55]
    inside_window = [m1 for m1 in flagged if 14 <= m1 <= 46]
    median_ratio = float(np.median(list(window_ratios.values())))
    max_ratio = max(window_ratios.values())
    # CLI surface: a flagged configuration exits with code 3
    from bosonic_saddle.cli import main as cli_main
    from bosonic_saddle.matrixio import save_matrix_json

    path = tmp_path / "bs.json"
    save_matrix_json(path, bs)
    with contextlib.redirect_stdout(io.StringIO()) as buf:
        code = cli_main(
            [
                "amplitude", "--matrix", str(path),
                "--in", "10,50", "--out", "8,52", "--method", "approx",
            ]
        )
    cli_flagged = code == 3 and "coalescing" in buf.getvalue()
    ok = (
        near_10
        and near_50
        and 10 in flagged
        and 50 in flagged
        and not inside_window
        and len(window_ratios) == 33
        and median_ratio <= 4.0
        and max_ratio <= 8.0
        and cli_flagged
    )
    _report(
        9,
        "coalescing flagged near m1 = 10 and 50 (exit 3), accurate inside [14, 46]",
        bool(ok),
        f"flagged {flagged}, window error ratios median {median_ratio:.2f} "
        f"max {max_ratio:.2f}, CLI exit-3 {cli_flagged}",
    )


def test_criterion_10_complexity_check():
    tt = tritter()
    points = []
    bracket_ok = True
    for total in (15, 30, 60):
        k = total // 3
        occ = Occupation.of(k, k, k)
        best = math.inf
        elapsed = 0.0
        stats = None
        while elapsed < 0.4:
            t0 = time.process_time()
            _, stats = permanent_repeated(tt, occ, occ)
            dt = time.process_time() - t0
            best = min(best, dt)
            elapsed += dt
        fe = flop_estimate(occ, occ)
        bracket_ok &= fe.lower < stats.instrumented_flops < fe.upper
        points.append((total, best))
    xs = np.log([p[0] for p in points])
    ys = np.log([p[1] for p in points])
    exponent = float(np.polyfit(xs, ys, 1)[0])
    ok = 3.0 <= exponent <= 4.6 and bracket_ok
    _report(
        10,
        "exact-engine runtime exponent in [3.0, 4.6] and flop bounds bracket the counts",
        ok,
        f"fitted exponent {exponent:.2f}, bounds bracket {bracket_ok}",
    )
