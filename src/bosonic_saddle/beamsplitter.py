"""Closed-form two-mode (symmetric beam splitter) reference results.

For U = [[-1,1],[1,1]]/sqrt(2) everything is explicit: the reduced scaling
system is the quadratic R^2 - 2 gamma R + 1 = 0 with
gamma = (m2-m1)/(2 sqrt(n1 n2)), the two saddles and the Hessian determinant
have closed forms, and the amplitude itself is an alternating single sum

  <m|n> = sqrt(n1! n2! m1! m2!) / 2^{N/2}
          * sum_q (-1)^q / (q! (n1-q)! (m1-q)! (m2+q-n1)!)

evaluated here in exact integer arithmetic, so it stays accurate at any N
and yields exact zeros for the parity-suppressed configurations.  The sign
of gamma^2 - 1 separates the oscillatory regime (two complex saddles) from
the exponential-decay regime (one contributing real saddle); the transition
circle (Dn)^2 + (Dm)^2 = N^2 is where the saddles coalesce and the
leading-order approximation fails.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .errors import EmptyMode, MarginMismatch
from .logcomplex import LogComplex
from .network import Occupation, beam_splitter
from .scaling import SaddleSolution, canonicalize_and_dedup

COALESCING_BAND = 12.0  # width of the flagged band in gamma^2, in units of 1/N


class Regime(str, Enum):
    OSCILLATORY = "oscillatory"
    DECAY = "decay"
    COALESCING = "coalescing"


@dataclass(frozen=True)
class BeamSplitterCase:
    """Margins (n1, n2) -> (m1, m2) on the symmetric beam splitter."""

    n1: int
    n2: int
    m1: int
    m2: int

    def __post_init__(self):
        for v in (self.n1, self.n2, self.m1, self.m2):
            if v < 0:
                raise ValueError("occupations must be nonnegative")
        if self.n1 + self.n2 != self.m1 + self.m2:
            raise MarginMismatch(
                f"totals differ: {self.n1 + self.n2} vs {self.m1 + self.m2}"
            )

    @classmethod
    def from_occupations(cls, n: Occupation, m: Occupation) -> "BeamSplitterCase":
        if n.modes != 2 or m.modes != 2:
            raise MarginMismatch("beam splitter cases need exactly two modes")
        return cls(n[0], n[1], m[0], m[1])

    @property
    def total(self) -> int:
        return self.n1 + self.n2

    @property
    def delta_n(self) -> int:
        return self.n2 - self.n1

    @property
    def delta_m(self) -> int:
        return self.m2 - self.m1

    @property
    def gamma(self) -> float:
        prod = self.n1 * self.n2
        if prod == 0:
            return math.inf if self.delta_m != 0 else 0.0
        return self.delta_m / (2.0 * math.sqrt(prod))

    @property
    def sigma(self) -> float:
        prod = self.m1 * self.m2
        if prod == 0:
            return math.inf if self.delta_n != 0 else 0.0
        return self.delta_n / (2.0 * math.sqrt(prod))

    @property
    def regime(self) -> Regime:
        return classify_regime(self)


def classify_regime(case: BeamSplitterCase) -> Regime:
    """Oscillatory / decay / coalescing by the sign of N^2 - (Dn)^2 - (Dm)^2.

    The coalescing band is |gamma^2 - 1| <= min(COALESCING_BAND/N, 1/2),
    expressed through the integer identity
    4 n1 n2 (1 - gamma^2) = N^2 - (Dn)^2 - (Dm)^2 so that zero-occupation
    edges are classified consistently.  The 1/2 cap keeps the band meaningful
    at small N (without it, COALESCING_BAND/N >= 1 would swallow the whole
    oscillatory region).
    """
    total = case.total
    disc = total**2 - case.delta_n**2 - case.delta_m**2
    four_n1n2 = 4 * case.n1 * case.n2
    if four_n1n2 == 0:
        return Regime.COALESCING if disc == 0 else Regime.DECAY
    if abs(disc) <= min(COALESCING_BAND / total, 0.5) * four_n1n2:
        return Regime.COALESCING
    return Regime.OSCILLATORY if disc > 0 else Regime.DECAY


def analytic_saddles(case: BeamSplitterCase):
    """The two scaling solutions in closed form (gauge-canonicalized).

    x = (sqrt(n1/N) e^{i phi/2}, sqrt(n2/N) e^{-i phi/2}) with
    e^{i phi} = gamma -+ i sqrt(1 - gamma^2); the y vector follows from the
    unitarity elimination and p = diag(x) U diag(y).  For gamma^2 > 1 the
    phase continues analytically and both saddles become real.
    """
    if min(case.n1, case.n2, case.m1, case.m2) < 1:
        raise EmptyMode("analytic saddles require at least one boson per mode")
    total = case.total
    gamma = case.gamma
    w = cmath.sqrt(complex(1.0 - gamma * gamma, 0.0))
    u = beam_splitter().entries
    n_frac = np.array([case.n1, case.n2], dtype=float) / total
    out = []
    for sign in (-1.0, 1.0):
        eiphi = complex(gamma, 0.0) + sign * 1j * w
        h = cmath.sqrt(eiphi)
        x = np.array([math.sqrt(n_frac[0]) * h, math.sqrt(n_frac[1]) / h])
        y = u.conj().T @ (n_frac / x)
        p = x[:, None] * u * y[None, :]
        sol = SaddleSolution(
            x=x,
            y=y,
            p=p,
            residual=0.0,
            n_counts=(case.n1, case.n2),
            m_counts=(case.m1, case.m2),
        )
        sol.residual = sol.margin_residual()
        out.append(sol)
    return canonicalize_and_dedup(out, dedup_tol=0.0)


# E32 sign pairing per saddle index: (t, prefactor_sign) such that
# det = prefactor_sign * (1/8) e^{i delta} A B W with
# e^{i delta} = (i nu mu + t W)/(A B).  Fixed by requiring agreement with the
# generic Schur-complement determinant on the analytic saddles (verified in
# the test suite over both regimes).
_DET_SIGNS = ((1, 1), (-1, -1))


def analytic_det(case: BeamSplitterCase, saddle_index: int) -> complex:
    """Closed-form det(D') for one of the two analytic saddles.

    -+ (1/8) e^{i delta} sqrt(1-nu^2) sqrt(1-mu^2) sqrt(1-nu^2-mu^2), with
    nu = Dn/N, mu = Dm/N and e^{i delta} continued off the oscillatory
    regime together with the saddle.  Vanishes on the transition circle.
    """
    if min(case.n1, case.n2, case.m1, case.m2) < 1:
        raise EmptyMode("analytic determinant requires at least one boson per mode")
    if saddle_index not in (0, 1):
        raise ValueError("saddle_index must be 0 or 1")
    total = case.total
    nu = case.delta_n / total
    mu = case.delta_m / total
    a = math.sqrt(1.0 - nu * nu)
    b = math.sqrt(1.0 - mu * mu)
    w = cmath.sqrt(complex(1.0 - nu * nu - mu * mu, 0.0))
    t, pref = _DET_SIGNS[saddle_index]
    eidelta = (1j * nu * mu + t * w) / (a * b)
    return pref * 0.125 * eidelta * a * b * w


def amplitude_exact_bs(case: BeamSplitterCase) -> LogComplex:
    """Exact amplitude from the alternating single sum, in integer arithmetic.

    The alternating series loses up to N digits when summed in floats; the
    exact rational core keeps full accuracy at any N and yields literal zeros
    for parity-suppressed outputs (n1 = n2 = N/2 with odd m1).
    """
    n1, n2, m1, m2 = case.n1, case.n2, case.m1, case.m2
    total = case.total
    q_lo = max(0, n1 - m2)
    q_hi = min(n1, m1)
    series = Fraction(0)
    for q in range(q_lo, q_hi + 1):
        den = (
            math.factorial(q)
            * math.factorial(n1 - q)
            * math.factorial(m1 - q)
            * math.factorial(m2 + q - n1)
        )
        if q % 2:
            series -= Fraction(1, den)
        else:
            series += Fraction(1, den)
    if series == 0:
        return LogComplex.zero()
    fact_prod = (
        math.factorial(n1) * math.factorial(n2) * math.factorial(m1) * math.factorial(m2)
    )
    log_mag = (
        0.5 * math.log(fact_prod)
        - 0.5 * total * math.log(2.0)
        + math.log(abs(series.numerator))
        - math.log(series.denominator)
    )
    return LogComplex.from_real_log(log_mag, negative=series < 0)
