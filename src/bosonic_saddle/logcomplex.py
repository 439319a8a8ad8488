"""Overflow-safe complex values in log-polar form.

Transition amplitudes involve factors like N! and row-sum powers w^n that
overflow float64 long before the final, normalized result does.  ``LogComplex``
presents the (log-magnitude, phase) interface while internally storing a
complex mantissa together with a power-of-two exponent, so that conversions to
and from ordinary complex numbers are exact whenever the value is representable
at all.  Sums of a few such values (the saddle terms) use ``+``, which aligns
the exponents exactly; the long alternating series of the exact engine is
summed in integers instead.
"""

from __future__ import annotations

import cmath
import math

_LN2 = math.log(2.0)
# ldexp shifts beyond this magnitude can only produce 0 or inf
_SHIFT_LIMIT = 4400


def _scaled(z: complex, shift: int) -> complex:
    """z * 2**shift with exact power-of-two scaling per component."""
    if shift == 0:
        return z
    if shift < -_SHIFT_LIMIT:
        return 0j
    if shift > _SHIFT_LIMIT:
        raise OverflowError("power-of-two shift out of float range")
    return complex(math.ldexp(z.real, shift), math.ldexp(z.imag, shift))


class LogComplex:
    """Complex number stored as a unit-scale mantissa and a binary exponent.

    The public contract is the log-polar view: ``log_mag`` (natural log of the
    magnitude, ``-inf`` for an exact zero) and ``phase`` in (-pi, pi].  The
    exact zero is canonical: its phase is 0.  Multiplication adds log
    magnitudes and wraps phases; integer powers use binary exponentiation with
    renormalization at every step.
    """

    __slots__ = ("_mant", "_exp2")

    def __init__(self, mant: complex, exp2: int = 0, _normalized: bool = False):
        if not _normalized:
            mant = complex(mant)
            a = abs(mant)
            if a == 0.0:
                mant, exp2 = 0j, 0
            else:
                _, e = math.frexp(a)
                mant = _scaled(mant, -e)
                exp2 = exp2 + e
        self._mant = mant
        self._exp2 = exp2

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LogComplex":
        return cls(0j, 0, _normalized=True)

    @classmethod
    def one(cls) -> "LogComplex":
        return cls(0.5 + 0j, 1, _normalized=True)

    @classmethod
    def from_complex(cls, z: complex) -> "LogComplex":
        return cls(complex(z))

    @classmethod
    def from_log_polar(cls, log_mag: float, phase: float = 0.0) -> "LogComplex":
        if log_mag == -math.inf:
            return cls.zero()
        if not math.isfinite(log_mag):
            raise ValueError("log magnitude must be finite or -inf")
        e = int(math.floor(log_mag / _LN2))
        rem = log_mag - e * _LN2
        return cls(cmath.rect(math.exp(rem), phase), e)

    @classmethod
    def from_real_log(cls, log_mag: float, negative: bool = False) -> "LogComplex":
        return cls.from_log_polar(log_mag, math.pi if negative else 0.0)

    # -- views --------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self._mant == 0j

    @property
    def log_mag(self) -> float:
        if self.is_zero:
            return -math.inf
        return math.log(abs(self._mant)) + self._exp2 * _LN2

    @property
    def phase(self) -> float:
        if self.is_zero:
            return 0.0
        ph = math.atan2(self._mant.imag, self._mant.real)
        if ph <= -math.pi:
            ph = math.pi
        return ph

    @property
    def mantissa(self) -> complex:
        return self._mant

    @property
    def exp2(self) -> int:
        return self._exp2

    def to_complex(self) -> complex:
        """Plain complex value; exact when the magnitude fits in float64."""
        if self.is_zero:
            return 0j
        if self._exp2 > 1100:
            raise OverflowError("value exceeds float64 range")
        return _scaled(self._mant, self._exp2)

    def scaled_by_exp2(self, shift: int) -> complex:
        """Complex value of self * 2**shift (for comparisons at a common scale)."""
        if self.is_zero:
            return 0j
        total = self._exp2 + shift
        if total > 1020:
            raise OverflowError("scaled value exceeds float64 range")
        return _scaled(self._mant, total)

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, LogComplex):
            if self.is_zero or other.is_zero:
                return LogComplex.zero()
            return LogComplex(self._mant * other._mant, self._exp2 + other._exp2)
        if isinstance(other, (int, float, complex)):
            return self * LogComplex.from_complex(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, LogComplex):
            if other.is_zero:
                raise ZeroDivisionError("division by exact LogComplex zero")
            if self.is_zero:
                return LogComplex.zero()
            return LogComplex(self._mant / other._mant, self._exp2 - other._exp2)
        if isinstance(other, (int, float, complex)):
            return self / LogComplex.from_complex(other)
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, LogComplex):
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        d = other._exp2 - self._exp2
        if d > 2100:
            return other
        if d < -2100:
            return self
        if d >= 0:
            return LogComplex(_scaled(self._mant, -d) + other._mant, other._exp2)
        return LogComplex(self._mant + _scaled(other._mant, d), self._exp2)

    def __neg__(self):
        return LogComplex(-self._mant, self._exp2, _normalized=True)

    def __sub__(self, other):
        if not isinstance(other, LogComplex):
            return NotImplemented
        return self + (-other)

    def conj(self) -> "LogComplex":
        return LogComplex(self._mant.conjugate(), self._exp2, _normalized=True)

    def pow_int(self, n: int) -> "LogComplex":
        """Integer power by binary exponentiation (renormalized every square)."""
        if n == 0:
            return LogComplex.one()
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("zero to a negative power")
            return (LogComplex.one() / self).pow_int(-n)
        if self.is_zero:
            return LogComplex.zero()
        result = LogComplex.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __abs__(self) -> float:
        if self.is_zero:
            return 0.0
        lm = self.log_mag
        if lm > 709.0:
            return math.inf
        return math.exp(lm)

    def __repr__(self) -> str:
        if self.is_zero:
            return "LogComplex(0)"
        return f"LogComplex(log_mag={self.log_mag:.12g}, phase={self.phase:.12g})"
