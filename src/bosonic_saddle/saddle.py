"""Leading-order saddle-point approximation of amplitudes and probabilities.

With all saddles p^(s) = diag(x) U diag(y) of the scaling problem in hand,
the permanent of the repeated-row/column matrix is approximated by

    per(U[n|m]) ~ N! sqrt(prod_k f_nk f_mk)
                  * sum_s prod_k (f_nk/x_k)^{n_k} (f_mk/y_k)^{m_k}
                    / sqrt(det D'(p^(s)))

summed over contributing saddles (f = margin fractions).  Everything stays
in LogComplex until the end; the relative error of the whole construction is
O(1/N) at fixed fractions.

Contributing-saddle rule: complex saddles contribute; real saddles contribute
only if their p lies inside [0,1]^{M x M}, and if several real saddles
survive, the one with the smallest contribution magnitude is kept.

The square-root branch in 1/sqrt(det D') is not fixed by the leading-order
algebra.  The principal branch is taken per saddle and a global +-1 per
saddle orbit is calibrated once against the exact engine at the smallest
boson number with the same margin fractions (conjugate-pair orbits, matched
by `scaling.conjugate_pairs`, share their sign so that parity cancellations
stay exact; sign choices that tie to rounding go to + before -).
Calibrations are cached per (network, fractions).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    CoalescingSaddles,
    EmptyMode,
    FormMismatch,
    MarginMismatch,
    NoConvergence,
    NonPositiveIntensity,
    NoSaddlesFound,
)
from .exact import amplitude_exact, flop_estimate, log_factorial_norm
from .hessian import det_dprime_schur, exponent_log
from .logcomplex import LogComplex
from .network import NetworkMatrix, Occupation, check_margins
from .scaling import (
    REAL_P_TOL,
    SaddleSolution,
    ScalingProblem,
    conjugate_pairs,
    sinkhorn_scale_classical,
    solve_all_saddles,
)

# |det D'| below this multiple of prod(f_n f_m) flags coalescing saddles
COALESCENCE_DET_FACTOR = 1e-3
# residual sums below this multiple of the largest term are exact cancellations
ZERO_SNAP_EPS = 1e-12
# two forms of det(D') must agree to this relative tolerance
DET_FORM_TOL = 1e-10

_CALIBRATION_FLOP_LIMIT = 10**8
_CALIBRATION_N_LIMIT = 64
_SIGN_CACHE: dict = {}


@dataclass(frozen=True)
class HessianBlocks:
    """Blocks of the constrained Hessian matrix D at one saddle."""

    lambda1: np.ndarray  # diagonal entries n_k/N
    lambda2: np.ndarray  # diagonal entries m_l/N
    p: np.ndarray
    crossed_index: int  # row/column of D removed, in [0, 2M)

    @classmethod
    def from_solution(cls, sol: SaddleSolution, crossed_index: Optional[int] = None):
        modes = sol.modes
        if crossed_index is None:
            crossed_index = 2 * modes - 1
        return cls(sol.n_frac(), sol.m_frac(), sol.p, crossed_index)


def det_Dprime(blocks: HessianBlocks) -> complex:
    """det(D') with a cross-check between its two reduced forms.

    The form that eliminates the input-side diagonal block and the form that
    eliminates the output-side one must agree (all principal minors of D are
    equal); disagreement beyond tolerance means the p matrix is not a valid
    saddle and raises FormMismatch.
    """
    modes = len(blocks.lambda1)
    primary = det_dprime_schur(
        blocks.lambda1, blocks.lambda2, blocks.p, blocks.crossed_index
    )
    alt_index = modes - 1 if blocks.crossed_index >= modes else 2 * modes - 1
    alt = det_dprime_schur(blocks.lambda1, blocks.lambda2, blocks.p, alt_index)
    # near a saddle coalescence det -> 0, so the comparison scale must include
    # the natural determinant magnitude (the classical-saddle value) or the
    # relative check would fire on roundoff noise of a vanishing quantity
    det_scale = float(np.prod(blocks.lambda1) * np.prod(blocks.lambda2))
    scale = max(abs(primary), abs(alt), det_scale)
    if scale > 0 and abs(primary - alt) > DET_FORM_TOL * scale:
        raise FormMismatch(
            f"det(D') forms disagree: {primary!r} vs {alt!r} "
            f"(rel {abs(primary - alt) / scale:.3e})"
        )
    return primary


def saddle_exponent(sol: SaddleSolution, n: Occupation, m: Occupation) -> LogComplex:
    """prod_k (f_nk/x_k)^{n_k} (f_mk/y_k)^{m_k}; gauge invariant."""
    if not (n.strictly_positive and m.strictly_positive):
        raise EmptyMode("saddle exponent requires strictly positive occupations")
    return exponent_log(sol.x, sol.y, n.counts, m.counts)


def _sqrt_log(z: complex) -> LogComplex:
    """Principal square root as a LogComplex (z != 0)."""
    mag = abs(z)
    return LogComplex.from_log_polar(0.5 * math.log(mag), 0.5 * math.atan2(z.imag, z.real))


@dataclass
class SaddleContribution:
    """One saddle's term in the approximation, with its selection flags."""

    solution: SaddleSolution
    exponent_term: LogComplex
    det_Dprime: complex
    term: LogComplex  # exponent / sqrt(det), principal branch, unsigned
    contributing: bool
    sign_choice: int = 1


def _contributions(solutions) -> list:
    out = []
    for sol in solutions:
        det = det_Dprime(HessianBlocks.from_solution(sol))
        expo = exponent_log(sol.x, sol.y, sol.n_counts, sol.m_counts)
        term = expo / _sqrt_log(det) if det != 0 else LogComplex.zero()
        out.append(
            SaddleContribution(
                solution=sol,
                exponent_term=expo,
                det_Dprime=det,
                term=term,
                contributing=False,
            )
        )
    return out


def select_contributing(solutions) -> list:
    """Flag which saddles enter the approximation.

    Complex-valued saddles always contribute.  Of the real saddles at most
    one contributes: the one with the smallest contribution magnitude,
    preferring saddles whose p lies inside the integration domain [0, 1]
    (the unique positive saddle of the classical problem is of this kind).
    In the exponential-decay regime both real saddles can fall outside the
    domain; the steepest-descent contour still passes through the
    smaller-modulus one, so it is kept.  An empty contributing set is a
    valid, reported outcome.
    """
    contribs = _contributions(solutions)
    real_saddles = []
    for c in contribs:
        p = c.solution.p
        if np.max(np.abs(p.imag)) > REAL_P_TOL:
            c.contributing = True
            continue
        real_saddles.append(c)
    if real_saddles:
        inside = [
            c
            for c in real_saddles
            if bool(
                np.all(c.solution.p.real >= -REAL_P_TOL)
                and np.all(c.solution.p.real <= 1.0 + REAL_P_TOL)
            )
        ]
        pool = inside if inside else real_saddles
        best = min(pool, key=lambda c: c.term.log_mag)
        best.contributing = True
    return contribs


@dataclass
class ApproxDiagnostics:
    """Run record of one saddle-point evaluation."""

    saddle_count: int = 0
    contributing_count: int = 0
    min_abs_det: float = math.inf
    coalescing: bool = False
    signs: tuple = ()
    calibrated: bool = False
    calibration_total: Optional[int] = None
    contributions: list = field(default_factory=list)


@dataclass
class ApproxResult:
    amplitude: LogComplex
    diagnostics: ApproxDiagnostics


def _prefactor_log(n: Occupation, m: Occupation) -> float:
    """log of N! sqrt(prod f_n f_m) / sqrt(prod n! m!)."""
    total = n.total
    s = math.lgamma(total + 1)
    for c in n.counts:
        s += 0.5 * math.log(c / total)
    for c in m.counts:
        s += 0.5 * math.log(c / total)
    return s - log_factorial_norm(n, m)


def _reduced_margins(n: Occupation, m: Occupation):
    g = 0
    for c in list(n.counts) + list(m.counts):
        g = math.gcd(g, c)
    return (
        Occupation(tuple(c // g for c in n.counts)),
        Occupation(tuple(c // g for c in m.counts)),
        g,
    )


def _orbits(contribs) -> list:
    """The contributing saddles in conjugate-pair orbits (else singletons)."""
    active = [c for c in contribs if c.contributing]
    groups = conjugate_pairs([c.solution for c in active])
    return [[active[i] for i in group] for group in groups]


def _assemble(orbits) -> LogComplex:
    """Sum of the signed terms, orbit by orbit.

    The two terms of a conjugate pair on a real network are exact
    conjugates, so their sum is exactly real and parity-suppressed amplitudes
    cancel.  A total at or below ZERO_SNAP_EPS times the largest term is an
    exact cancellation at this precision and comes back as the canonical zero.
    """
    total = LogComplex.zero()
    largest = -math.inf
    for group in orbits:
        part = LogComplex.zero()
        for c in group:
            part = part + (c.term if c.sign_choice == 1 else -c.term)
            largest = max(largest, c.term.log_mag)
        total = total + part
    if total.log_mag <= largest + math.log(ZERO_SNAP_EPS):
        return LogComplex.zero()
    return total


def _match_sign(p: np.ndarray, table) -> Optional[int]:
    for p_cal, sign in table:
        if p.shape == p_cal.shape and np.max(np.abs(p - p_cal)) <= 1e-6:
            return sign
    return None


def _calibration_points(U, n_base: Occupation, m_base: Occupation):
    """Up to two (n, m, exact) tuples at small multiples of the base margins.

    Multiples whose exact amplitude is structurally suppressed (exact zero)
    cannot discriminate sign choices and are skipped.
    """
    points = []
    k = 1
    base_total = n_base.total
    while len(points) < 2 and k * base_total <= _CALIBRATION_N_LIMIT:
        n_k = Occupation(tuple(c * k for c in n_base.counts))
        m_k = Occupation(tuple(c * k for c in m_base.counts))
        k += 1
        if flop_estimate(n_k, m_k).upper > _CALIBRATION_FLOP_LIMIT:
            break
        exact = amplitude_exact(U, n_k, m_k)
        if exact.is_zero:
            continue
        points.append((n_k, m_k, exact.to_complex()))
    return points


def _calibrate_signs(U, n_base, m_base):
    """Choose the per-orbit sign of 1/sqrt(det) against the exact engine.

    Returns a list of (p, sign) pairs keyed by the gauge-invariant saddle
    matrix, which is shared by every N with the same margin fractions.
    """
    key = (U.entries.tobytes(), n_base.counts, m_base.counts)
    if key in _SIGN_CACHE:
        return _SIGN_CACHE[key]
    points = _calibration_points(U, n_base, m_base)
    if not points:
        _SIGN_CACHE[key] = None
        return None
    evaluated = []
    for n_k, m_k, exact in points:
        try:
            sols = solve_all_saddles(ScalingProblem(U, n_k, m_k))
        except NoConvergence:
            continue
        orbits = _orbits(select_contributing(sols))
        pref = LogComplex.from_real_log(_prefactor_log(n_k, m_k))
        evaluated.append((orbits, pref, exact))
    if not evaluated:
        _SIGN_CACHE[key] = None
        return None
    ref_orbits = evaluated[0][0]
    n_orbits = len(ref_orbits)
    scored = []
    for mask in range(2 ** n_orbits):
        signs = [1 if not (mask >> i) & 1 else -1 for i in range(n_orbits)]
        err = 0.0
        for orbits, pref, exact in evaluated:
            for group in orbits:
                sign = 1
                # orbits are matched across points by the saddle matrix p,
                # which is N-independent at fixed fractions; compare against
                # every member so pair orientation cannot break the match
                for i, ref_group in enumerate(ref_orbits):
                    members = [(rc.solution.p, signs[i]) for rc in ref_group]
                    if _match_sign(group[0].solution.p, members) is not None:
                        sign = signs[i]
                        break
                for c in group:
                    c.sign_choice = sign
            approx = (pref * _assemble(orbits)).to_complex()
            err += abs(approx - exact) / abs(exact)
        scored.append((err, signs))
    # masks whose errors differ only by rounding are ties (e.g. a real saddle
    # with det D' < 0 has a purely imaginary term, and flipping it leaves the
    # error against a real exact value unchanged); the rule picks the first
    # sign tuple, + before - orbit by orbit
    least = min(err for err, _ in scored)
    signs = max(signs for err, signs in scored if err <= least * (1.0 + 1e-9))
    table = []
    for i, group in enumerate(ref_orbits):
        for c in group:
            table.append((c.solution.p.copy(), signs[i]))
    _SIGN_CACHE[key] = table
    return table


def amplitude_approx(U: NetworkMatrix, n: Occupation, m: Occupation) -> ApproxResult:
    """Leading-order saddle-point amplitude with diagnostics.

    Requires every input and output mode to hold at least one boson.  Raises
    CoalescingSaddles when the smallest contributing |det D'| falls below the
    coalescence threshold (the leading-order formula diverges there), and
    NoSaddlesFound when the scaling solver comes back empty.
    """
    check_margins(n, m)
    if n.modes != U.dim:
        raise MarginMismatch("occupation length must equal the matrix dimension")
    if not (n.strictly_positive and m.strictly_positive):
        raise EmptyMode("the approximation needs at least one boson per mode")
    try:
        sols = solve_all_saddles(ScalingProblem(U, n, m))
    except NoConvergence as exc:
        raise NoSaddlesFound(str(exc)) from exc
    contribs = select_contributing(sols)
    diags = ApproxDiagnostics(
        saddle_count=len(sols),
        contributing_count=sum(c.contributing for c in contribs),
        contributions=contribs,
    )
    active = [c for c in contribs if c.contributing]
    if active:
        diags.min_abs_det = min(abs(c.det_Dprime) for c in active)
        n_frac = np.array(n.counts, dtype=float) / n.total
        m_frac = np.array(m.counts, dtype=float) / m.total
        threshold = COALESCENCE_DET_FACTOR * float(np.prod(n_frac) * np.prod(m_frac))
        if diags.min_abs_det < threshold:
            diags.coalescing = True
            raise CoalescingSaddles(
                f"min |det D'| = {diags.min_abs_det:.3e} below coalescence "
                f"threshold {threshold:.3e}; leading-order result invalid",
                diagnostics=diags,
            )
    n_base, m_base, _ = _reduced_margins(n, m)
    table = _calibrate_signs(U, n_base, m_base)
    if table is not None:
        diags.calibrated = True
        diags.calibration_total = n_base.total
        for c in active:
            sign = _match_sign(c.solution.p, table)
            if sign is not None:
                c.sign_choice = sign
    diags.signs = tuple(c.sign_choice for c in contribs)
    total = _assemble(_orbits(contribs))
    amplitude = LogComplex.from_real_log(_prefactor_log(n, m)) * total
    return ApproxResult(amplitude=amplitude, diagnostics=diags)


def classical_probability_approx(U: NetworkMatrix, n: Occupation, m: Occupation) -> float:
    """Saddle-point approximation of the classical transition probability.

    The positive matrix |U|^2 has a unique positive scaling solution (found
    by Sinkhorn iteration) which is the only contributing saddle; the
    constrained Hessian determinant is real positive there, so the principal
    square root needs no sign calibration.  On equal-intensity networks
    |U_kl|^2 = 1/M the result reproduces the closed form N!/(M^N prod m_k!)
    to float rounding.
    """
    check_margins(n, m)
    if n.modes != U.dim:
        raise MarginMismatch("occupation length must equal the matrix dimension")
    if not (n.strictly_positive and m.strictly_positive):
        raise EmptyMode("the approximation needs at least one boson per mode")
    a = np.abs(U.entries) ** 2
    if np.min(a) <= 0.0:
        raise NonPositiveIntensity("some |U_kl| vanishes; positive scaling undefined")
    sol = sinkhorn_scale_classical(a, n, m, tol=1e-14)
    det = det_Dprime(HessianBlocks.from_solution(sol))
    if det.real <= 0.0 or abs(det.imag) > 1e-12 * abs(det):
        raise FormMismatch(f"classical det(D') not positive real: {det!r}")
    total = n.total
    expo = 0.0
    for k, nk in enumerate(n.counts):
        expo += nk * (math.log(nk / total) - math.log(sol.x[k].real))
    for k, mk in enumerate(m.counts):
        expo += mk * (math.log(mk / total) - math.log(sol.y[k].real))
    log_per = (
        math.lgamma(total + 1)
        + 0.5 * sum(math.log(c / total) for c in n.counts)
        + 0.5 * sum(math.log(c / total) for c in m.counts)
        + expo
        - 0.5 * math.log(det.real)
    )
    return math.exp(log_per - sum(math.lgamma(c + 1) for c in m.counts))


def multinomial_exact_log(n: Occupation) -> float:
    """log of the exact multinomial coefficient N!/prod n_k!."""
    return math.lgamma(n.total + 1) - sum(math.lgamma(c + 1) for c in n.counts)


def multinomial_approx(n: Occupation) -> float:
    """log of the entropy approximation of the multinomial coefficient.

    exp(N H(f)) / sqrt((2 pi N)^{M-1} prod f_k) with H the Shannon entropy of
    the fractions f_k = n_k/N; relative error O(1/N), exact for M = 1.
    Requires every count to be at least 1.
    """
    if not n.strictly_positive:
        raise EmptyMode("entropy approximation requires all counts >= 1")
    total = n.total
    modes = n.modes
    entropy = -sum((c / total) * math.log(c / total) for c in n.counts)
    return (
        total * entropy
        - 0.5 * (modes - 1) * math.log(2.0 * math.pi * total)
        - 0.5 * sum(math.log(c / total) for c in n.counts)
    )


def mortici_theta(k: int) -> float:
    """theta_k in the exact factorial form k! = sqrt(2 pi (k+theta)) (k/e)^k.

    Tightly bounded: 1/6 < theta_k < 0.177 for k >= 1, and theta_0 = 1/(2 pi).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k == 0:
        return 1.0 / (2.0 * math.pi)
    log_fact = math.lgamma(k + 1)
    return math.exp(2.0 * (log_fact - k * math.log(k) + k)) / (2.0 * math.pi) - k


def stirling_relative_error(n: Occupation) -> float:
    """|approx/exact - 1| of the entropy approximation; the reference error."""
    return abs(math.expm1(multinomial_approx(n) - multinomial_exact_log(n)))
