"""Complex matrix scaling: the saddle-point equations and their solvers.

For a unitary U and margin fractions n_k/N, m_l/N, a saddle is a pair of
complex vectors (x, y) with

    sum_l x_k U_kl y_l = n_k / N,    sum_k x_k U_kl y_l = m_l / N,

i.e. diagonal matrices X, Y scaling U to prescribed row and column sums.
Resolving the row equations through unitarity, y_l = sum_k conj(U_kl)
n_k/(N x_k) holds for any x, and the column equations become a reduced
system of M-1 bilinear equations in the ratios R_k = sqrt(n_M/n_k) x_k/x_M
(R_M = 1):

    (sum_k R_k Z^l_k)(sum_q conj(Z^l_q) / R_q) = m_l / N,
    Z^l_k = sqrt(n_k/N) U_kl,          l = 1..M-1.

All solutions are needed.  With S_k = 1/R_k as further unknowns every
equation is bilinear in (R, S), so the system has at most C(2M-2, M-1)
isolated roots (the 2-homogeneous Bezout number: 2, 6 and 20 for M = 2, 3,
4), and generic margins give exactly that many.  One homotopy from a
linear-product start system with that many roots tracks all of them as a
numpy batch, so all isolated roots are found, without random starts.  The
roots are deduplicated in the gauge-invariant p = X U Y matrix and
gauge-fixed so x_1 = sqrt(n_1/N) > 0.  On a real U they come in conjugate
pairs, which `conjugate_pairs` matches, both for the solver (to make each
pair exactly conjugate) and for the saddle assembly.  The classical analogue
(positive matrix |U|^2) has a unique positive solution found by Sinkhorn
iteration.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSaddle,
    EmptyMode,
    NoConvergence,
    NonPositiveMatrix,
)
from .hessian import contribution_log_mag
from .network import NetworkMatrix, Occupation, check_margins

SOLVER_TOL = 1e-12
DEDUP_TOL = 1e-8
DEGENERATE_P_TOL = 1e-12
# a saddle whose p has no imaginary part above this is real
REAL_P_TOL = 1e-9

# homotopy tracking; the seed draws the start system and gamma
HOMOTOPY_SEED = 1987
MAX_STEP = 0.2
MIN_STEP = 1e-10
TRACK_MAX_STEPS = 2000
CORRECTOR_STEPS = 3
CORRECTOR_TOL = 1e-6
ENDGAME_T = 1.0 - 1e-4
ENDGAME_NEWTON = 30


@dataclass(frozen=True)
class ScalingProblem:
    """A unitary together with strictly positive input/output margins."""

    U: NetworkMatrix
    n: Occupation
    m: Occupation

    def __post_init__(self):
        check_margins(self.n, self.m)
        if self.n.modes != self.U.dim:
            raise EmptyMode("occupation length must equal the matrix dimension")
        if not (self.n.strictly_positive and self.m.strictly_positive):
            raise EmptyMode("matrix scaling requires at least one boson per mode")

    def n_frac(self) -> np.ndarray:
        return self.n.fractions()

    def m_frac(self) -> np.ndarray:
        return self.m.fractions()


@dataclass
class SaddleSolution:
    """One solution of the scaling problem, gauge-fixed and margin-checked.

    p = diag(x) U diag(y) is gauge invariant; x and y are reported in the
    canonical gauge x_1 = sqrt(n_1/N) > 0 and `gauge` records the multiplier
    that was applied to x (y was divided by it).
    """

    x: np.ndarray
    y: np.ndarray
    p: np.ndarray
    residual: float
    gauge: complex = 1.0 + 0j
    n_counts: tuple = field(default_factory=tuple)
    m_counts: tuple = field(default_factory=tuple)

    @property
    def modes(self) -> int:
        return len(self.x)

    @property
    def total(self) -> int:
        return sum(self.n_counts)

    def n_frac(self) -> np.ndarray:
        return np.array(self.n_counts, dtype=float) / self.total

    def m_frac(self) -> np.ndarray:
        return np.array(self.m_counts, dtype=float) / self.total

    def margin_residual(self) -> float:
        row = np.max(np.abs(self.p.sum(axis=1) - self.n_frac()))
        col = np.max(np.abs(self.p.sum(axis=0) - self.m_frac()))
        return float(max(row, col))

    def conjugated(self) -> "SaddleSolution":
        return SaddleSolution(
            x=self.x.conj(),
            y=self.y.conj(),
            p=self.p.conj(),
            residual=self.residual,
            gauge=complex(self.gauge).conjugate(),
            n_counts=self.n_counts,
            m_counts=self.m_counts,
        )


@dataclass
class ReducedSystem:
    """The M-1 bilinear equations in the independent ratios R_1..R_{M-1}."""

    problem: ScalingProblem
    Z: np.ndarray  # (M-1, M): Z[l, k] = sqrt(n_k/N) U_kl
    m_target: np.ndarray  # (M-1,): m_l / N
    sqrt_n_frac: np.ndarray  # (M,)

    def residual(self, r_reduced: np.ndarray) -> np.ndarray:
        r = np.append(r_reduced, 1.0 + 0j)
        a = self.Z @ r
        b = self.Z.conj() @ (1.0 / r)
        return a * b - self.m_target

    def recover(self, r_reduced: np.ndarray) -> SaddleSolution:
        """Build (x, y, p) from converged ratios, in the lam = 1 gauge."""
        problem = self.problem
        x = np.append(r_reduced, 1.0 + 0j) * self.sqrt_n_frac
        u = problem.U.entries
        y = u.conj().T @ (problem.n_frac() / x)
        p = x[:, None] * u * y[None, :]
        sol = SaddleSolution(
            x=x,
            y=y,
            p=p,
            residual=0.0,
            n_counts=problem.n.counts,
            m_counts=problem.m.counts,
        )
        sol.residual = sol.margin_residual()
        return sol


def build_reduced_system(problem: ScalingProblem) -> ReducedSystem:
    sqrt_n = np.sqrt(problem.n_frac()).astype(complex)
    z = (sqrt_n[:, None] * problem.U.entries).T[:-1]  # Z[l, k]
    return ReducedSystem(problem, z, problem.m_frac()[:-1], sqrt_n)


def _bilinear(a, b, c, z):
    """Values and Jacobians of (a_i . R~)(b_i . S~) - c_i at points z (P, 2K).

    A row of z is (R_1..R_K, S_1..S_K); R~ and S~ append R_M = S_M = 1.
    """
    k = z.shape[1] // 2
    alpha = z[:, :k] @ a[:, :k].T + a[:, k]
    beta = z[:, k:] @ b[:, :k].T + b[:, k]
    jac = np.concatenate([a[:, :k] * beta[..., None], b[:, :k] * alpha[..., None]], axis=2)
    return alpha * beta - c, jac


def _solve(jac, rhs):
    """Batched jac^-1 rhs; a singular matrix gives a NaN row, not an error."""
    try:
        return np.linalg.solve(jac, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if len(rhs) == 1:
            return np.full(rhs.shape, np.nan + 0j)
        return np.concatenate([_solve(j[None], r[None]) for j, r in zip(jac, rhs)])


def _track(system: ReducedSystem) -> np.ndarray:
    """Endpoints R (P, K) of the paths of H = (1-t) gamma G + t F, t: 0 -> 1.

    F is the reduced system in R and S = 1/R: (Z_l . R~)(conj(Z_l) . S~) =
    m_l/N and R_k S_k = 1.  G_i = (a_i . R~)(b_i . S~) has a root for each
    choice of the K equations whose a-factor vanishes.  Each path steps on
    its own: Euler predictor, CORRECTOR_STEPS Newton corrections, the step
    doubled on success (up to MAX_STEP) and halved on failure.  A path that
    stalls beyond ENDGAME_T (paths meeting at a double root of F) is
    finished by Newton on F; any other failure raises NoConvergence.
    """
    k = len(system.m_target)
    rng = np.random.default_rng(HOMOTOPY_SEED)
    shape = (2 * k, k + 1)
    ga, gb = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in "ab")
    gamma = np.exp(2j * math.pi * rng.uniform())

    def vanish(rows):  # the v with rows . (v, 1) = 0
        return np.linalg.solve(rows[:, :k], -rows[:, k])

    z = np.array([
        np.concatenate([vanish(ga[list(rows)]), vanish(np.delete(gb, rows, axis=0))])
        for rows in itertools.combinations(range(2 * k), k)
    ])
    eye = np.eye(k, k + 1)
    a, b = np.vstack([ga, system.Z, eye]), np.vstack([gb, system.Z.conj(), eye])
    c = np.concatenate([np.zeros(2 * k), system.m_target, np.ones(k)])

    def homotopy(z, t):
        """H, dH/dz and dH/dt at points z and times t."""
        value, jac = _bilinear(a, b, c, z)
        w, s = (1.0 - t)[:, None] * gamma, t[:, None]
        g, f = value[:, : 2 * k], value[:, 2 * k :]
        jac_h = w[..., None] * jac[:, : 2 * k] + s[..., None] * jac[:, 2 * k :]
        return w * g + s * f, jac_h, f - gamma * g

    paths = len(z)
    t, step = np.zeros(paths), np.full(paths, MAX_STEP)
    live, failed = np.ones(paths, dtype=bool), np.zeros(paths, dtype=bool)
    with np.errstate(all="ignore"):
        for _ in range(TRACK_MAX_STEPS):
            idx = np.flatnonzero(live)
            if not len(idx):
                break
            t0, z0 = t[idx], z[idx]
            t1 = np.minimum(t0 + step[idx], 1.0)
            _, jac, dh_dt = homotopy(z0, t0)
            z1 = z0 - (t1 - t0)[:, None] * _solve(jac, dh_dt)
            for _ in range(CORRECTOR_STEPS):
                value, jac, _ = homotopy(z1, t1)
                delta = _solve(jac, value)
                z1 = z1 - delta
            ok = np.abs(delta).max(-1) <= CORRECTOR_TOL * (1.0 + np.abs(z1).max(-1))
            good, bad = idx[ok], idx[~ok]
            t[good], z[good] = t1[ok], z1[ok]
            step[good] = np.minimum(2.0 * step[good], MAX_STEP)
            step[bad] *= 0.5
            stalled = bad[step[bad] < MIN_STEP]
            live[good[t[good] == 1.0]] = live[stalled] = False
            failed[stalled[t[stalled] <= ENDGAME_T]] = True
        failed |= live
        if failed.any():
            raise NoConvergence(f"{int(failed.sum())} of {paths} paths failed to reach t = 1")
        # Newton on F; at a double root it gains a bit per step, not
        # monotonically at first, so each path keeps its best iterate
        ones = np.ones(paths)
        value, jac, _ = homotopy(z, ones)
        best, least = z.copy(), np.abs(value).max(-1)
        for _ in range(ENDGAME_NEWTON):
            z = z - _solve(jac, value)
            value, jac, _ = homotopy(z, ones)
            size = np.abs(value).max(-1)
            better = size < least
            best[better], least[better] = z[better], size[better]
    return best[:, :k]


def canonicalize_and_dedup(solutions, dedup_tol: float = DEDUP_TOL):
    """Gauge-fix each solution and collapse gauge/duplicate orbits.

    The canonical gauge makes x_1 = sqrt(n_1/N) real positive.  Two solutions
    are identified when their gauge-invariant p matrices agree to dedup_tol
    in max-norm; the representative with the smaller residual is kept.
    """
    canonical = []
    for sol in solutions:
        x = sol.x.copy()
        y = sol.y.copy()
        target = math.sqrt(sol.n_counts[0] / sol.total) if sol.n_counts else 1.0
        lam = target / x[0]
        x *= lam
        y /= lam
        canonical.append(
            SaddleSolution(
                x=x,
                y=y,
                p=sol.p,
                residual=sol.residual,
                gauge=complex(lam) * complex(sol.gauge),
                n_counts=sol.n_counts,
                m_counts=sol.m_counts,
            )
        )
    kept = []
    for sol in canonical:
        for i, other in enumerate(kept):
            if np.max(np.abs(sol.p - other.p)) <= dedup_tol:
                if sol.residual < other.residual:
                    kept[i] = sol
                break
        else:
            kept.append(sol)
    return kept


def conjugate_pairs(solutions) -> list:
    """Index groups of the solutions: conjugate pairs, otherwise singletons.

    j joins i (i < j) when p_j == conj(p_i) to DEDUP_TOL in max-norm; each
    index is in one group, and groups come in the order of their first
    member.  On a real network the saddles come in such pairs; this is the
    one place they are matched.
    """
    groups = []
    paired = set()
    for i, sol in enumerate(solutions):
        if i in paired:
            continue
        group = [i]
        for j in range(i + 1, len(solutions)):
            if j in paired:
                continue
            if np.max(np.abs(sol.p.conj() - solutions[j].p)) <= DEDUP_TOL:
                group.append(j)
                paired.add(j)
                break
        groups.append(group)
    return groups


def solve_all_saddles(problem: ScalingProblem):
    """All isolated scaling solutions, from one homotopy over C(2M-2, M-1) paths.

    The path count is the 2-homogeneous Bezout bound of the reduced system in
    (R, 1/R), so with the gamma trick every isolated root ends a path
    (Sommese & Wampler 2005; Morgan 1987).  The start system, gamma and step
    rules are module constants: the result repeats bit for bit, and a failed
    path raises NoConvergence instead of returning a partial set.  Endpoints
    are recovered to (x, y, p), roots with a (near-)zero p entry are dropped
    as degenerate, and the rest are gauge-fixed, deduplicated (paths meeting
    at a double root give one saddle or two nearby ones) and sorted by
    descending contribution magnitude.
    """
    if np.any(problem.U.entries == 0):
        raise DegenerateSaddle("U has a zero entry, so p vanishes there at every scaling solution")
    system = build_reduced_system(problem)
    recovered = []
    degenerate = 0
    for root in _track(system):
        sol = system.recover(root)
        if sol.residual > 10 * SOLVER_TOL:
            continue
        if np.min(np.abs(sol.p)) <= DEGENERATE_P_TOL:
            degenerate += 1
            continue
        recovered.append(sol)
    if not recovered:
        if degenerate:
            raise DegenerateSaddle(
                "all scaling solutions have a vanishing p entry; "
                "the saddle-point exponent is undefined here"
            )
        raise NoConvergence("no scaling solutions satisfied the residual tolerance")
    sols = canonicalize_and_dedup(recovered)
    if problem.U.is_real:
        # tie each pair together bit for bit, so that parity cancellations
        # downstream come out exactly zero; the representative is the member
        # whose first significantly imaginary p entry is positive
        for group in conjugate_pairs(sols):
            if len(group) == 2:
                i, j = group
                lead = next((v.imag for v in sols[i].p.flat if abs(v.imag) > DEDUP_TOL), 0.0)
                rep, other = (i, j) if lead > 0 else (j, i)
                sols[other] = sols[rep].conjugated()
    for sol in sols:
        # a real saddle is made exactly real: with det D' < 0 its term is
        # purely imaginary, and its sign must not come from rounding noise
        if np.max(np.abs(sol.p.imag)) <= REAL_P_TOL:
            sol.p = sol.p.real + 0j
            if problem.U.is_real:
                sol.x, sol.y = sol.x.real + 0j, sol.y.real + 0j
    # saddles of equal magnitude (symmetric networks) are ordered by p, not
    # by the rounding noise in their magnitudes
    sols.sort(
        key=lambda s: (
            -round(contribution_log_mag(s.x, s.y, s.p, s.n_counts, s.m_counts), 9),
            tuple(np.round(s.p, 10).flatten().view(float)),
        )
    )
    return sols


def sinkhorn_scale_classical(
    matrix,
    n: Occupation,
    m: Occupation,
    tol: float = 1e-14,
    max_sweeps: int = 100000,
) -> SaddleSolution:
    """Positive matrix scaling by alternating row/column normalization.

    For strictly positive matrices the scaling problem has a unique positive
    solution; the iteration is a contraction, so the margin residual
    decreases monotonically and the limit does not depend on the start.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonPositiveMatrix(f"square matrix required, got shape {a.shape}")
    if np.min(a) <= 0.0:
        raise NonPositiveMatrix("Sinkhorn scaling needs strictly positive entries")
    check_margins(n, m)
    if not (n.strictly_positive and m.strictly_positive):
        raise EmptyMode("matrix scaling requires at least one boson per mode")
    n_frac = n.fractions()
    m_frac = m.fractions()
    x = n_frac.copy()
    y = np.ones_like(m_frac)
    residual = math.inf
    for _ in range(max_sweeps):
        y = m_frac / (a.T @ x)
        x = n_frac / (a @ y)
        p = x[:, None] * a * y[None, :]
        row = np.max(np.abs(p.sum(axis=1) - n_frac))
        col = np.max(np.abs(p.sum(axis=0) - m_frac))
        residual = float(max(row, col))
        if residual <= tol:
            break
    sol = SaddleSolution(
        x=x.astype(complex),
        y=y.astype(complex),
        p=(x[:, None] * a * y[None, :]).astype(complex),
        residual=residual,
        n_counts=n.counts,
        m_counts=m.counts,
    )
    (sol,) = canonicalize_and_dedup([sol])
    return sol
