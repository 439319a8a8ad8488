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

All solutions are needed; they are found by multi-start damped Newton on the
realified system, deduplicated in the gauge-invariant p = X U Y matrix, and
gauge-fixed so x_1 = sqrt(n_1/N) > 0.  On a real U they come in conjugate
pairs, which `conjugate_pairs` matches, both for the solver (to make each
pair exactly conjugate) and for the saddle assembly.  The classical analogue
(positive matrix |U|^2) has a unique positive solution found by Sinkhorn
iteration.
"""

from __future__ import annotations

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
NEWTON_MAX_ITER = 100
DEDUP_TOL = 1e-8
DEGENERATE_P_TOL = 1e-12


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

    @property
    def total(self) -> int:
        return self.n.total

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

    def full_ratios(self, r_reduced: np.ndarray) -> np.ndarray:
        return np.concatenate([r_reduced, [1.0 + 0j]])

    def residual(self, r_reduced: np.ndarray) -> np.ndarray:
        r = self.full_ratios(r_reduced)
        a = self.Z @ r
        b = self.Z.conj() @ (1.0 / r)
        return a * b - self.m_target

    def jacobian(self, r_reduced: np.ndarray) -> np.ndarray:
        r = self.full_ratios(r_reduced)
        a = self.Z @ r
        b = self.Z.conj() @ (1.0 / r)
        modes = self.problem.U.dim
        zr = self.Z[:, : modes - 1]
        jac = zr * b[:, None] - (a[:, None] * zr.conj()) / (r_reduced[None, :] ** 2)
        return jac

    def recover(self, r_reduced: np.ndarray) -> SaddleSolution:
        """Build (x, y, p) from converged ratios, in the lam = 1 gauge."""
        problem = self.problem
        r = self.full_ratios(r_reduced)
        x = r * self.sqrt_n_frac
        u = problem.U.entries
        n_frac = problem.n_frac()
        y = u.conj().T @ (n_frac / x)
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
    n_frac = problem.n_frac()
    u = problem.U.entries
    sqrt_n = np.sqrt(n_frac).astype(complex)
    z = (sqrt_n[:, None] * u).T[: problem.U.dim - 1]  # Z[l, k]
    return ReducedSystem(
        problem=problem,
        Z=z,
        m_target=problem.m_frac()[: problem.U.dim - 1],
        sqrt_n_frac=sqrt_n,
    )


def _to_real(v: np.ndarray) -> np.ndarray:
    return np.concatenate([v.real, v.imag])


def _newton_start(system: ReducedSystem, r0: np.ndarray):
    """Damped Newton on the realified system; returns converged ratios or None.

    The complex residual F and its complex Jacobian J are holomorphic in R;
    the real formulation solves [[Re J, -Im J], [Im J, Re J]] on
    (Re dR, Im dR), with backtracking on |F|^2.
    """
    r = r0.astype(complex)
    k = len(r)
    f = system.residual(r)
    f2 = float(np.sum(np.abs(f) ** 2))
    for _ in range(NEWTON_MAX_ITER):
        if np.max(np.abs(f)) <= SOLVER_TOL:
            break
        jc = system.jacobian(r)
        j_real = np.block(
            [[jc.real, -jc.imag], [jc.imag, jc.real]]
        )
        try:
            step = np.linalg.solve(j_real, -_to_real(f))
        except np.linalg.LinAlgError:
            return None
        dz = step[:k] + 1j * step[k:]
        alpha = 1.0
        for _ in range(30):
            r_new = r + alpha * dz
            if np.any(np.abs(r_new) < 1e-8) or np.any(np.abs(r_new) > 1e8):
                alpha *= 0.5
                continue
            f_new = system.residual(r_new)
            f2_new = float(np.sum(np.abs(f_new) ** 2))
            if f2_new <= (1.0 - 1e-4 * alpha) * f2:
                r, f, f2 = r_new, f_new, f2_new
                break
            alpha *= 0.5
        else:
            return None
    if np.max(np.abs(f)) > SOLVER_TOL:
        return None
    # polish: a few undamped steps sharpen the root to machine precision
    for _ in range(3):
        jc = system.jacobian(r)
        j_real = np.block([[jc.real, -jc.imag], [jc.imag, jc.real]])
        try:
            step = np.linalg.solve(j_real, -_to_real(f))
        except np.linalg.LinAlgError:
            break
        r_new = r + (step[:k] + 1j * step[k:])
        f_new = system.residual(r_new)
        if float(np.max(np.abs(f_new))) < float(np.max(np.abs(f))):
            r, f = r_new, f_new
        else:
            break
    return r


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


def default_start_count(modes: int) -> int:
    """200 random starts up to three modes, 1000 beyond."""
    return 200 if modes <= 3 else 1000


def solve_all_saddles(
    problem: ScalingProblem,
    starts: int | None = None,
    seed: int = 0,
):
    """Multi-start Newton over random initial ratios; all distinct roots found.

    Starts are seeded per (seed, index) so the run is deterministic and the
    start loop is safely partitionable.  Initial guesses follow the
    empirically dominant form x_k ~ sqrt(n_k/N) e^{i theta_k} with uniform
    phases.  Converged roots are recovered to (x, y, p), roots with a
    (near-)zero p entry are discarded as degenerate, the rest are gauge-fixed,
    deduplicated, and sorted by descending contribution magnitude.

    The returned list is the set of roots *found*; no completeness claim is
    made (no counting formula exists).
    """
    if starts is None:
        starts = default_start_count(problem.U.dim)
    if starts < 1:
        raise ValueError("need at least one start")
    system = build_reduced_system(problem)
    modes = problem.U.dim
    roots = []
    for s in range(starts):
        rng = np.random.default_rng([seed, s])
        theta = rng.uniform(0.0, 2.0 * math.pi, modes)
        r0 = np.exp(1j * (theta[: modes - 1] - theta[modes - 1]))
        if s % 2:
            # unit-modulus starts match the dominant oscillatory solutions but
            # miss real decay-regime roots off the unit circle; jitter the radii
            r0 = r0 * np.exp(rng.uniform(-1.5, 1.5, modes - 1))
        root = _newton_start(system, r0)
        if root is None:
            continue
        # cheap R-space dedup before the expensive recovery
        if any(np.max(np.abs(root - seen)) <= 1e-9 for seen in roots):
            continue
        roots.append(root)
    if not roots:
        raise NoConvergence(
            f"no scaling solutions found in {starts} starts (tol={SOLVER_TOL:g})"
        )
    recovered = []
    degenerate = 0
    for root in roots:
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
    sols.sort(
        key=lambda s: (
            -contribution_log_mag(s.x, s.y, s.p, s.n_counts, s.m_counts),
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
