"""Judge every value a CLI request printed against the independent reference.

A value fails if the request raised or exited with an unexpected code, if
the value is missing or disagrees with the reference, or if it is a wrong
zero.  Two flags are expected and pass: `coalescing` where the package's own
beam-splitter regime classification says so, and `suppressed` where the
reference is an exact zero (or, on networks whose rounding is not a common
scale, below the input-rounding floor of `reference.rounding_floor`).

Exact values pass when |value - ref| <= TOL |ref|; an exact zero also passes
when |ref| is at most the rounding floor.  Approximate values fail only as
wrong zeros: their accuracy away from the symmetric networks' uniform
margins is an open correctness item, so it is measured (rel_error * N), not
gated.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from . import reference
from .workloads import compositions

DIGITS_CAP = 15.0

EXIT_OK = 0
EXIT_COALESCING = 3


@dataclass
class Outcome:
    """What one request returned: exit code, captured output, latency."""

    request: object
    code: object  # int exit code, or None when main() raised
    stdout: str
    stderr: str
    latency: float


@dataclass
class Verdict:
    attempted: int = 0
    failed: int = 0
    delivered: int = 0  # numeric values printed: exact, approx, classical
    exact_digits: list = field(default_factory=list)
    approx_err_n: list = field(default_factory=list)
    exact_wrong: int = 0
    failures: list = field(default_factory=list)

    def add(self, ok: bool, what: str, exact: bool = False):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.exact_wrong += exact
            if len(self.failures) < 20:
                self.failures.append(what)

    def merge(self, other: "Verdict"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.delivered += other.delivered
        self.exact_digits += other.exact_digits
        self.approx_err_n += other.approx_err_n
        self.exact_wrong += other.exact_wrong
        self.failures += other.failures[: max(0, 20 - len(self.failures))]


def _reference(entries, n, m):
    return reference.amplitude(entries, n, m), reference.rounding_floor(entries, n, m)


def _digits(err: float) -> float:
    return DIGITS_CAP if err <= 10.0**-DIGITS_CAP else min(DIGITS_CAP, -math.log10(err))


def judge_exact(v: Verdict, value: complex, ref: complex, floor: float, what: str):
    v.delivered += 1
    if value == 0:
        v.add(abs(ref) <= floor, f"{what}: wrong zero, reference {ref!r}", exact=True)
        return
    err = abs(value - ref)
    ok = err <= reference.TOL * abs(ref)
    if ok and abs(ref) > floor:
        v.exact_digits.append(_digits(err / abs(ref)))
    v.add(ok, f"{what}: {value!r} vs reference {ref!r}", exact=True)


def judge_probability(v: Verdict, value: float, ref: float, what: str):
    v.delivered += 1
    err = abs(value - ref)
    ok = err <= reference.TOL * ref if ref > 0 else value == 0
    if ok and ref > 0:
        v.exact_digits.append(_digits(err / ref))
    v.add(ok, f"{what}: {value!r} vs reference {ref!r}", exact=True)


def judge_approx(v: Verdict, value: complex, ref: complex, floor: float, total: int, what: str):
    v.delivered += 1
    if abs(ref) <= floor:
        v.add(True, what)  # suppressed output: nothing to approximate
        return
    if value == 0:
        v.add(False, f"{what}: wrong zero, reference {ref!r}")
        return
    v.approx_err_n.append(abs(value - ref) / abs(ref) * total)
    v.add(True, what)


def judge_approx_probability(v: Verdict, value: float, ref: float, what: str):
    v.delivered += 1
    v.add(value > 0, f"{what}: {value!r}, reference {ref!r}")


def _coalescing_expected(req, n, m) -> bool:
    if req.network != "bs":
        return False
    from bosonic_saddle.beamsplitter import BeamSplitterCase, Regime, classify_regime

    return classify_regime(BeamSplitterCase(n[0], n[1], m[0], m[1])) == Regime.COALESCING


def _cplx(re, im) -> complex:
    return complex(float(re), float(im))


def _occ(text: str) -> tuple:
    return tuple(int(c) for c in text.split(":"))


def _csv_rows(stdout: str, header: str):
    lines = stdout.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"missing header {header!r}")
    return list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))


def _expected_slots(req) -> int:
    if req.command == "amplitude":
        return 2 if req.method == "classical" else 1
    if req.command == "scan":
        return sum(1 for _ in compositions(len(req.entries), sum(req.n))) + 1
    return 2 * len(req.rows)


def check(outcome: Outcome) -> Verdict:
    """Judge one request; a request that broke fails every value it owed."""
    req = outcome.request
    v = Verdict()
    try:
        if outcome.code not in (EXIT_OK, EXIT_COALESCING):
            raise ValueError(f"exit code {outcome.code!r}: {outcome.stderr.strip()[:200]}")
        {"amplitude": _check_amplitude, "scan": _check_scan, "error-sweep": _check_sweep}[
            req.command
        ](v, req, outcome)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        missing = _expected_slots(req) - v.attempted
        for _ in range(max(1, missing)):
            v.add(False, f"{req.kind} {req.argv[3:]}: {exc}")
    return v


def _check_amplitude(v: Verdict, req, outcome: Outcome):
    record = json.loads(outcome.stdout.strip().splitlines()[-1])
    results = record["results"]
    n, m, total = req.n, req.m, sum(req.n)
    what = f"{req.kind} {n}->{m}"
    if req.method == "exact":
        ref, floor = _reference(req.entries, n, m)
        judge_exact(v, _cplx(results["exact"]["re"], results["exact"]["im"]), ref, floor, what)
    elif req.method == "approx":
        approx = results["approx"]
        if "error" in approx:
            ok = approx["error"] == "coalescing-saddles" and _coalescing_expected(req, n, m)
            v.add(ok, f"{what}: unexpected {approx['error']}")
        else:
            ref, floor = _reference(req.entries, n, m)
            judge_approx(v, _cplx(approx["re"], approx["im"]), ref, floor, total, what)
    elif req.method == "classical":
        ref = reference.classical_probability(req.entries, n, m)
        judge_probability(v, float(results["classical"]["probability"]), ref, what)
        judge_approx_probability(
            v, float(results["classical_approx"]["probability"]), ref, what + " approx"
        )
    if outcome.code == EXIT_COALESCING and "error" not in results.get("approx", {}):
        v.add(False, f"{what}: exit code {outcome.code}")


def _check_scan(v: Verdict, req, outcome: Outcome):
    rows = {_occ(r["m"]): r for r in _csv_rows(outcome.stdout, "# bosonic-saddle scan v1")}
    n = req.n
    total_prob = 0.0
    for m in compositions(len(req.entries), sum(n)):
        what = f"{req.kind} {n}->{m}"
        row = rows.get(m)
        if row is None:
            v.add(False, f"{what}: missing row", exact=True)
            continue
        if req.method == "exact":
            ref, floor = _reference(req.entries, n, m)
            judge_exact(v, _cplx(row["exact_re"], row["exact_im"]), ref, floor, what)
            total_prob += float(row["exact_prob"])
        else:
            p = float(row["classical_prob"])
            judge_probability(v, p, reference.classical_probability(req.entries, n, m), what)
            total_prob += p
    # completeness: the printed probabilities of all outputs sum to one
    v.add(abs(total_prob - 1.0) <= reference.SUM_TOL, f"{req.kind} {n}: sum {total_prob!r}")


def _check_sweep(v: Verdict, req, outcome: Outcome):
    rows = {int(r["N"]): r for r in _csv_rows(outcome.stdout, "# bosonic-saddle sweep v1")}
    for n, m in req.rows:
        total = sum(n)
        what = f"{req.kind} N={total} {n}->{m}"
        row = rows.get(total)
        if row is None or _occ(row["n"]) != n or _occ(row["m"]) != m:
            v.add(False, f"{what}: missing row", exact=True)
            v.add(False, f"{what}: missing row")
            continue
        ref, floor = _reference(req.entries, n, m)
        judge_exact(v, _cplx(row["exact_re"], row["exact_im"]), ref, floor, what)
        flag = row["flag"]
        if flag == "coalescing":
            v.add(_coalescing_expected(req, n, m), f"{what}: unexpected coalescing flag")
        elif row["approx_re"] == "":
            v.add(False, f"{what}: no approximation ({flag or 'no flag'})")
        else:
            judge_approx(v, _cplx(row["approx_re"], row["approx_im"]), ref, floor, total, what)
