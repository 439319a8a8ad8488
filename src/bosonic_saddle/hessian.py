"""Constrained-Hessian determinant and saddle-exponent building blocks.

At a saddle p_kl = x_k U_kl y_l of the margin-constrained amplitude integral,
the leading-order term needs two ingredients:

* the exponent factor prod_k (n_k/(N x_k))^{n_k} (m_k/(N y_k))^{m_k}, which is
  gauge invariant because the scale freedom x -> lam x, y -> y/lam cancels
  between the two products (integer powers, so no branch ambiguity);

* det(D') where D' is any (2M-1)-dimensional principal minor of the
  symmetric block matrix D = [[diag(n/N), p], [p^T, diag(m/N)]].  All 2M
  principal minors are equal (D has a unique null vector), and each reduces
  by a Schur complement to a determinant of size M-1.

These helpers are shared by the scaling solver (for ordering solutions by
contribution size) and by the saddle-approximation module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ZeroScalingComponent
from .logcomplex import LogComplex


def det_dprime_schur(n_frac, m_frac, p, crossed_index: int | None = None) -> complex:
    """det(D') by Schur complement; crossed_index in [0, 2M) picks the minor.

    Indices below M cross an input-side row/column, the rest cross an
    output-side one; the default crosses the last output index.
    """
    modes = len(n_frac)
    if crossed_index is None:
        crossed_index = 2 * modes - 1
    if not 0 <= crossed_index < 2 * modes:
        raise ValueError(f"crossed_index must be in [0, {2*modes}), got {crossed_index}")
    if crossed_index >= modes:
        c = crossed_index - modes
        cols = [l for l in range(modes) if l != c]
        pp = p[:, cols]
        schur = np.diag(m_frac[cols]) - pp.T @ (pp / n_frac[:, None])
        return complex(np.prod(n_frac) * np.linalg.det(schur))
    r = crossed_index
    rows = [k for k in range(modes) if k != r]
    pp = p[rows, :]
    schur = np.diag(n_frac[rows]) - pp @ (pp.T / m_frac[:, None])
    return complex(np.prod(m_frac) * np.linalg.det(schur))


def exponent_log(x, y, n_counts, m_counts) -> LogComplex:
    """prod_k (f_nk / x_k)^{n_k} (f_mk / y_k)^{m_k} as a LogComplex.

    f denotes the margin fractions n_k/N, m_k/N.  Raises
    ZeroScalingComponent when a scaling vector entry vanishes.
    """
    n_total = sum(n_counts)
    result = LogComplex.one()
    for k, nk in enumerate(n_counts):
        xk = complex(x[k])
        if xk == 0:
            raise ZeroScalingComponent(f"x[{k}] is zero")
        base = LogComplex.from_complex((nk / n_total) / xk)
        result = result * base.pow_int(nk)
    for k, mk in enumerate(m_counts):
        yk = complex(y[k])
        if yk == 0:
            raise ZeroScalingComponent(f"y[{k}] is zero")
        base = LogComplex.from_complex((mk / n_total) / yk)
        result = result * base.pow_int(mk)
    return result


def contribution_log_mag(x, y, p, n_counts, m_counts) -> float:
    """log |exponent / sqrt(det D')| used to order saddle contributions."""
    n_frac = np.array(n_counts, dtype=float) / sum(n_counts)
    m_frac = np.array(m_counts, dtype=float) / sum(m_counts)
    det = det_dprime_schur(n_frac, m_frac, p)
    exp_log = exponent_log(x, y, n_counts, m_counts).log_mag
    amag = abs(det)
    if amag == 0.0:
        return math.inf
    return exp_log - 0.5 * math.log(amag)
