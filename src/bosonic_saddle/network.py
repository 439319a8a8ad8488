"""Core domain types for M-mode unitary networks.

A network is an M x M unitary U mapping input modes to output modes; a state
of N bosons on it is described by an occupation vector per side.  This module
owns the validated matrix and occupation types, Haar-random network
generation and the enumeration of output configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import BadDimension, MarginMismatch, NotUnitary

UNITARITY_TOL = 1e-10


class NetworkMatrix:
    """M x M complex unitary, validated at construction.

    The entries array is frozen (read-only) so instances can be shared freely
    across threads.
    """

    __slots__ = ("entries", "dim", "unitarity_deviation")

    def __init__(self, entries):
        a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise BadDimension(f"expected a square matrix, got shape {a.shape}")
        m = a.shape[0]
        if m < 2:
            raise BadDimension(f"network needs at least 2 modes, got {m}")
        dev = float(np.max(np.abs(a.conj().T @ a - np.eye(m))))
        if dev > UNITARITY_TOL:
            raise NotUnitary(dev)
        a.flags.writeable = False
        self.entries = a
        self.dim = m
        self.unitarity_deviation = dev

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.entries.imag == 0.0))

    def dagger(self) -> "NetworkMatrix":
        return NetworkMatrix(self.entries.conj().T)

    def permuted(self, perm: Iterable[int]) -> "NetworkMatrix":
        """Relabel modes: rows and columns reordered by the same permutation."""
        idx = np.asarray(list(perm), dtype=int)
        return NetworkMatrix(self.entries[np.ix_(idx, idx)])

    def __repr__(self) -> str:
        return f"NetworkMatrix(dim={self.dim})"


def validate_unitary(matrix) -> NetworkMatrix:
    """Validate a square complex matrix as a network unitary.

    Raises NotUnitary when max |U^dag U - I| exceeds 1e-10, BadDimension for
    non-square input or fewer than two modes.
    """
    return NetworkMatrix(matrix)


def beam_splitter() -> NetworkMatrix:
    """The symmetric two-mode beam splitter [[-1,1],[1,1]]/sqrt(2)."""
    s = 1.0 / math.sqrt(2.0)
    return NetworkMatrix([[-s, s], [s, s]])


def tritter() -> NetworkMatrix:
    """The canonical symmetric three-mode multiport (discrete Fourier matrix)."""
    w = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    s = 1.0 / math.sqrt(3.0)
    return NetworkMatrix([[s, s, s], [s, s * w, s * w.conjugate()], [s, s * w.conjugate(), s * w]])


def haar_random_unitary(dim: int, seed: int) -> NetworkMatrix:
    """Haar-distributed random unitary, deterministic per seed.

    QR of a complex Ginibre matrix with the phase fix: each column of Q is
    divided by the phase of the corresponding diagonal entry of R.  Plain QR
    is not Haar-distributed; the phase fix restores invariance.
    """
    if dim < 2:
        raise BadDimension(f"network needs at least 2 modes, got {dim}")
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return NetworkMatrix(q)


@dataclass(frozen=True)
class Occupation:
    """Per-mode particle counts (a length-M vector of nonnegative integers).

    The zero-total occupation is permitted only as an enumeration artifact
    (the single N=0 output configuration); every amplitude-level operation
    requires a total of at least one particle.
    """

    counts: tuple

    def __post_init__(self):
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValueError(f"occupation counts must be nonnegative, got {counts}")
        if len(counts) == 0:
            raise ValueError("occupation needs at least one mode")
        object.__setattr__(self, "counts", counts)

    @classmethod
    def of(cls, *counts: int) -> "Occupation":
        return cls(tuple(counts))

    @classmethod
    def parse(cls, text: str) -> "Occupation":
        try:
            counts = tuple(int(part.strip()) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse occupation {text!r}: {exc}") from None
        return cls(counts)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def modes(self) -> int:
        return len(self.counts)

    @property
    def strictly_positive(self) -> bool:
        return all(c >= 1 for c in self.counts)

    def fractions(self) -> np.ndarray:
        if self.total == 0:
            raise ValueError("fractions undefined for a zero-total occupation")
        return np.array(self.counts, dtype=float) / self.total

    def __iter__(self):
        return iter(self.counts)

    def __len__(self):
        return len(self.counts)

    def __getitem__(self, i):
        return self.counts[i]

    def __str__(self):
        return ",".join(str(c) for c in self.counts)


def check_margins(n: Occupation, m: Occupation):
    """Raise MarginMismatch unless both occupations describe the same N and M."""
    if n.modes != m.modes:
        raise MarginMismatch(f"mode counts differ: {n.modes} vs {m.modes}")
    if n.total != m.total:
        raise MarginMismatch(f"particle totals differ: {n.total} vs {m.total}")


def output_config_count(modes: int, total: int) -> int:
    """Number of ways to place `total` bosons on `modes` modes: C(M+N-1, N)."""
    return math.comb(modes + total - 1, total)


def enumerate_output_configs(modes: int, total: int) -> list:
    """All length-M compositions of N in lexicographic order.

    The list has C(M+N-1, N) entries; the count is exact integer arithmetic,
    so there is no overflow, but callers scanning large networks should check
    output_config_count first.
    """
    if modes < 1:
        raise BadDimension("need at least one mode")
    if total < 0:
        raise ValueError("total must be nonnegative")
    configs = []
    prefix = [0] * modes

    def fill(pos: int, remaining: int):
        if pos == modes - 1:
            prefix[pos] = remaining
            configs.append(Occupation(tuple(prefix)))
            return
        for c in range(remaining + 1):
            prefix[pos] = c
            fill(pos + 1, remaining - c)

    fill(0, total)
    return configs
