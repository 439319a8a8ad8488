"""Request decks for the three benchmark workloads.

A deck is the list of CLI requests one run may issue, generated from the
seed before the first request.  Request kinds repeat in a fixed cycle, and
each kind steps through its boson numbers N in a fixed order that covers the
range evenly, so every run sees the same mix of kinds and sizes and runs with
different seeds stay comparable.  What sets the cost of a request is fixed
too: a plan per kind, the same for every seed, draws the occupation
profiles (the margins as multisets), and the Haar networks are a fixed
series.  The seed relabels modes -- which mode holds which count, and the
order of a Haar network's modes -- so runs with different seeds do the same
work on different inputs, and their spread measures the program and the
host rather than the luck of the draw.  Inputs are fresh per request, so no
(network, n, m) tuple and no sign-calibration key (network, reduced
margins) repeats within a process.  That makes the package's in-process
calibration cache behave as it would in a fresh CLI process, and keeps a
future result cache from turning a run into lookups.

Networks are built here, not by the package, so that a change to the package
cannot change the inputs it is measured on.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("query", "scan", "sweep")

# a kind moves to its next size after this many draws without a fresh input;
# once every size is exhausted (a program many times faster than today's
# gets there), inputs may repeat
DRAWS_PER_SIZE = 100
# relabelings tried for a planned profile before it counts as seen
RELABELINGS = 8


@dataclass
class Request:
    """One CLI invocation and what the checker needs to judge its output."""

    kind: str
    network: str  # "bs", "tritter", or "haar3#k" / "haar4#k" for the k-th Haar network
    command: str  # amplitude | scan | error-sweep
    method: str
    entries: tuple  # rows of complex: the network exactly as written to disk
    argv: list = field(default_factory=list)
    n: tuple = ()
    m: tuple = ()
    rows: list = field(default_factory=list)  # error-sweep: expected (n, m) per row


def beam_splitter():
    s = 1.0 / math.sqrt(2.0)
    return ((-s + 0j, s + 0j), (s + 0j, s + 0j))


def tritter():
    w = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    s = 1.0 / math.sqrt(3.0)
    return (
        (s + 0j, s + 0j, s + 0j),
        (s + 0j, s * w, s * w.conjugate()),
        (s + 0j, s * w.conjugate(), s * w),
    )


def haar(dim: int, seed) -> tuple:
    """Haar-random unitary: QR of a complex Ginibre matrix with the phase fix."""
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return tuple(tuple(complex(v) for v in row) for row in q)


def write_matrix(path: Path, entries) -> None:
    payload = {
        "dim": len(entries),
        "entries": [[[z.real, z.imag] for z in row] for row in entries],
    }
    path.write_text(json.dumps(payload) + "\n")


def compositions(modes: int, total: int):
    """Every occupation of `modes` modes by `total` bosons, in lexicographic order."""
    if modes == 1:
        yield (total,)
        return
    for c in range(total + 1):
        for rest in compositions(modes - 1, total - c):
            yield (c,) + rest


@functools.lru_cache(maxsize=256)
def bounded_compositions(modes: int, total: int, lo: Fraction, hi: Fraction) -> tuple:
    """The compositions with every part in [lo * total, hi * total]."""
    low, high = math.ceil(lo * total), math.floor(hi * total)
    return tuple(c for c in compositions(modes, total) if all(low <= p <= high for p in c))


def bs_far_from_coalescence(n, m, margin: float = 0.25) -> bool:
    """True when (n, m) lies well off the saddle-merging circle (Dn)^2 + (Dm)^2 = N^2.

    The package flags a band |1 - gamma^2| <= min(12/N, 1/2) as coalescing;
    this keeps |1 - gamma^2| >= margin, so neither the band nor the
    determinant threshold can fire.
    """
    total = sum(n)
    disc = total**2 - (n[1] - n[0]) ** 2 - (m[1] - m[0]) ** 2
    return abs(disc) >= margin * 4 * n[0] * n[1]


def spread_order(values) -> list:
    """values reordered so that every prefix covers their range evenly.

    Position i takes the value at fraction vdc(i) of the range, vdc being the
    base-2 van der Corput sequence 0, 1/2, 1/4, 3/4, ...; repeats are skipped.
    """
    values = list(values)
    out, used = [], set()
    i = 0
    while len(out) < len(values):
        x, denom, k = 0.0, 1.0, i
        while k:
            denom *= 2
            x += (k & 1) / denom
            k >>= 1
        idx = int(x * len(values))
        if idx not in used:
            used.add(idx)
            out.append(values[idx])
        i += 1
    return out


def _csv(occ) -> str:
    return ",".join(str(c) for c in occ)


F = Fraction
MODES = {"bs": 2, "tritter": 3, "haar3": 3, "haar4": 4}
# (kind, network, method, N range, part bounds for n, part bounds for m)
QUERY_CYCLE = (
    ("exact-haar3", "haar3", "exact", (24, 42), (F(1, 5), F(1, 2)), (F(1, 5), F(1, 2))),
    ("approx-bs", "bs", "approx", (24, 60), (F(3, 10), F(7, 10)), (F(3, 20), F(17, 20))),
    ("exact-haar4", "haar4", "exact", (12, 20), (F(1, 10), F(9, 20)), (F(1, 10), F(9, 20))),
    ("classical-m3", "haar3", "classical", (12, 24), (F(1, 5), F(1, 2)), (F(1, 5), F(1, 2))),
    ("exact-tritter", "tritter", "exact", (24, 45), (F(1, 4), F(9, 20)), (F(1, 4), F(9, 20))),
    ("approx-tritter", "tritter", "approx", (13, 24), (F(1, 4), F(9, 20)), (F(1, 4), F(9, 20))),
    ("exact-bs", "bs", "exact", (100, 150), (F(3, 10), F(7, 10)), (F(1, 5), F(4, 5))),
    ("classical-m4", "haar4", "classical", (8, 14), (F(3, 20), F(2, 5)), (F(3, 20), F(2, 5))),
)

# (kind, network, method, N range, part bounds for n)
SCAN_CYCLE = (
    ("scan-exact-tritter", "tritter", "exact", (9, 15), (F(1, 5), F(1, 2))),
    ("scan-classical-haar3", "haar3", "classical", (9, 15), (F(1, 5), F(1, 2))),
    ("scan-exact-haar4", "haar4", "exact", (8, 10), (F(3, 20), F(2, 5))),
    ("scan-classical-tritter", "tritter", "classical", (9, 15), (F(1, 5), F(1, 2))),
    ("scan-exact-haar3", "haar3", "exact", (9, 15), (F(1, 5), F(1, 2))),
    ("scan-classical-haar4", "haar4", "classical", (8, 10), (F(3, 20), F(2, 5))),
    ("scan-exact-bs", "bs", "exact", (40, 50), (F(3, 10), F(7, 10))),
    ("scan-exact-tritter", "tritter", "exact", (9, 15), (F(1, 5), F(1, 2))),
    ("scan-classical-haar3", "haar3", "classical", (9, 15), (F(1, 5), F(1, 2))),
    ("scan-exact-haar4", "haar4", "exact", (8, 10), (F(3, 20), F(2, 5))),
    ("scan-classical-tritter", "tritter", "classical", (9, 15), (F(1, 5), F(1, 2))),
    ("scan-exact-haar3", "haar3", "exact", (9, 15), (F(1, 5), F(1, 2))),
    ("scan-classical-haar4", "haar4", "classical", (8, 10), (F(3, 20), F(2, 5))),
    ("scan-classical-bs", "bs", "classical", (40, 50), (F(3, 10), F(7, 10))),
)

SWEEP_N_MAX = {"bs": 100, "tritter": 36}
SWEEP_ROWS = 3
SWEEP_PARTS = {"bs": (F(1, 5), F(4, 5)), "tritter": (F(1, 6), F(1, 2))}
# every fraction of a sweep is a multiple of 1/D; D sets the rows' N values.
# The tritter's only D = 3 sweep, 1/3:1/3:1/3 on both sides, has the known
# saddle-point wrong zero at N = 12 in its first row (see README), so D >= 4.
SWEEP_DENOMINATORS = {"bs": range(4, 11), "tritter": range(4, 10)}


class Deck:
    """The workload's requests in order, generated on demand from the seed."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}")
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.rng = random.Random(seed)
        self._plans = {}
        self._fixed = {}
        self._haar_count = 0
        self._seen = set()
        self._visits = {}
        self._made = []
        self._taken = 0

    def prepare(self, size: int):
        """Generate (and write the networks of) the first size requests."""
        while len(self._made) < size:
            i = len(self._made)
            if self.workload == "query":
                req = self._query(*QUERY_CYCLE[i % len(QUERY_CYCLE)])
            elif self.workload == "scan":
                req = self._scan(*SCAN_CYCLE[i % len(SCAN_CYCLE)])
            else:
                req = self._sweep(("bs", "tritter")[i % 2])
            self._made.append(req)

    def __iter__(self):
        return self

    def __next__(self) -> Request:
        self.prepare(self._taken + 1)
        self._taken += 1
        return self._made[self._taken - 1]

    def _size(self, kind: str, values) -> int:
        """The next value, in spread order, for this request kind."""
        order = spread_order(values)
        i = self._visits.get(kind, 0)
        self._visits[kind] = i + 1
        return order[i % len(order)]

    def _plan(self, kind: str) -> random.Random:
        """The kind's seed-independent stream of occupation profiles."""
        if kind not in self._plans:
            self._plans[kind] = random.Random(f"plan:{kind}")
        return self._plans[kind]

    def _place(self, net: str, profiles, tag=(), exhausted=False):
        """(network id, entries, path, occupations) for an unseen input, or None.

        The seed relabels modes without changing the work: a Haar network
        and every profile get one common permutation, and the BS and the
        tritter, equal to themselves up to phases under any relabeling of
        either side, get one permutation per profile.  After RELABELINGS
        seen inputs the profiles count as taken.
        """
        for _ in range(RELABELINGS):
            if net.startswith("haar"):
                perm = self.rng.sample(range(MODES[net]), MODES[net])
                net_id, entries, path = self._network(net, perm)
                occs = tuple(tuple(p[i] for i in perm) for p in profiles)
            else:
                net_id, entries, path = self._network(net)
                occs = tuple(tuple(self.rng.sample(p, len(p))) for p in profiles)
            if self._fresh((net_id, *occs, *tag), exhausted):
                return net_id, entries, path, occs
        return None

    def _network(self, name: str, perm=None):
        """(network id, entries, path).

        Every 'haar3'/'haar4' call makes a fresh network: the next one of a
        seed-independent series, with its modes relabeled by perm
        (entries[i][j] = U[perm[i]][perm[j]]).
        """
        if name.startswith("haar"):
            dim = MODES[name]
            self._haar_count += 1
            base = haar(dim, [dim, self._haar_count])
            entries = tuple(tuple(base[i][j] for j in perm) for i in perm)
            path = self.workdir / f"haar{dim}_{self._haar_count}.json"
            write_matrix(path, entries)
            return f"{name}#{self._haar_count}", entries, path
        if name not in self._fixed:
            entries = {"bs": beam_splitter, "tritter": tritter}[name]()
            path = self.workdir / f"{name}.json"
            write_matrix(path, entries)
            self._fixed[name] = (entries, path)
        return (name,) + self._fixed[name]

    def _fresh(self, key, exhausted: bool) -> bool:
        if key in self._seen and not exhausted:
            return False
        self._seen.add(key)
        return True

    def _query(self, kind, net, method, n_range, n_parts, m_parts) -> Request:
        sizes = range(n_range[0], n_range[1] + 1)
        plan = self._plan(kind)
        for attempt in itertools.count():
            if attempt % DRAWS_PER_SIZE == 0:
                total = self._size(kind, sizes)
            n_prof = plan.choice(bounded_compositions(MODES[net], total, *n_parts))
            m_prof = plan.choice(bounded_compositions(MODES[net], total, *m_parts))
            if method == "approx":
                # coprime margins: the sign calibration, cached per (network,
                # reduced margins), runs cold at the request's own N every time
                if math.gcd(*n_prof, *m_prof) != 1:
                    continue
                if net == "bs" and not bs_far_from_coalescence(n_prof, m_prof):
                    continue
            placed = self._place(net, (n_prof, m_prof), (), attempt >= DRAWS_PER_SIZE * len(sizes))
            if placed:
                break
        net_id, entries, path, (n, m) = placed
        argv = ["amplitude", "--matrix", str(path), "--in", _csv(n), "--out", _csv(m), "--method", method]
        return Request(kind, net_id, "amplitude", method, entries, argv, n=n, m=m)

    def _scan(self, kind, net, method, n_range, n_parts) -> Request:
        sizes = range(n_range[0], n_range[1] + 1)
        plan = self._plan(kind)
        for attempt in itertools.count():
            if attempt % DRAWS_PER_SIZE == 0:
                total = self._size(kind, sizes)
            n_prof = plan.choice(bounded_compositions(MODES[net], total, *n_parts))
            placed = self._place(net, (n_prof,), (method,), attempt >= DRAWS_PER_SIZE * len(sizes))
            if placed:
                break
        net_id, entries, path, (n,) = placed
        argv = ["scan", "--matrix", str(path), "--in", _csv(n), "--method", method]
        return Request(kind, net_id, "scan", method, entries, argv, n=n)

    def _sweep(self, net: str) -> Request:
        kind = f"sweep-{net}"
        d = self._size(kind, SWEEP_DENOMINATORS[net])
        choices = bounded_compositions(MODES[net], d, *SWEEP_PARTS[net])
        pairs = [
            (n_unit, m_unit)
            for n_unit, m_unit in itertools.product(choices, repeat=2)
            # coprime: the fractions' common denominator is d, and
            # (n_unit, m_unit) are the reduced margins of every row
            if math.gcd(d, *n_unit, *m_unit) == 1
            and (net != "bs" or bs_far_from_coalescence(n_unit, m_unit))
        ]
        profiles = self._plan(kind).choice(pairs)
        # once every relabeling of the profiles is taken, the sweep repeats
        placed = self._place(net, profiles) or self._place(net, profiles, exhausted=True)
        net_id, entries, path, (n_unit, m_unit) = placed
        # SWEEP_ROWS multiples of d ending at the largest one <= N max
        top = SWEEP_N_MAX[net] // d
        step = max(1, top // SWEEP_ROWS)
        first = top - step * (min(SWEEP_ROWS, top) - 1)
        rows = [
            (tuple(c * j for c in n_unit), tuple(c * j for c in m_unit))
            for j in range(first, top + 1, step)
        ]
        argv = [
            "error-sweep", "--matrix", str(path),
            "--in-fractions", ":".join(f"{c}/{d}" for c in n_unit),
            "--out-fractions", ":".join(f"{c}/{d}" for c in m_unit),
            "--n-min", str(first * d), "--n-max", str(top * d), "--n-step", str(step * d),
        ]
        return Request(kind, net_id, "error-sweep", "both", entries, argv, rows=rows)
