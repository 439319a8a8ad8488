"""Tests of the benchmark's reference, checker and tracer.

    python3 -m pytest -q perfbench/checks.py

The file is not named test_*.py so that the package's own test run does not
collect it.  Three tests pin known defects of the package and show that the
checker counts them as failed values: the beam-splitter wrong zero at N=192,
the threaded error-sweep race, and the saddle-point wrong zero on the tritter
at n = m = (4, 4, 4).  When a defect is fixed, its test fails and should be
turned into a regression test that requires the value to pass.
"""

from __future__ import annotations

import itertools
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bosonic_saddle import BeamSplitterCase, amplitude_exact_bs  # noqa: E402

from perfbench import reference  # noqa: E402
from perfbench.checker import Verdict, check, judge_exact  # noqa: E402
from perfbench.run import closed_loop  # noqa: E402
from perfbench.tracing import REQUEST, Tracer, install  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    Request, beam_splitter, compositions, haar, tritter, write_matrix,
)


def _permanent(a) -> complex:
    n = len(a)
    return sum(math.prod(a[i][p[i]] for i in range(n)) for p in itertools.permutations(range(n)))


def _brute_amplitude(entries, n, m) -> complex:
    rows = [k for k, c in enumerate(n) for _ in range(c)]
    cols = [l for l, c in enumerate(m) for _ in range(c)]
    sub = [[entries[k][l] for l in cols] for k in rows]
    norm = math.sqrt(math.prod(math.factorial(c) for c in list(n) + list(m)))
    return _permanent(sub) / norm


def _run(request):
    """One request through the benchmark's closed loop, then the checker."""
    (outcome,), _ = closed_loop(iter([request]), count=1)
    return check(outcome)


def _amplitude_request(tmp_path, name, entries, n, m, method="exact"):
    path = tmp_path / f"{name}.json"
    write_matrix(path, entries)
    argv = ["amplitude", "--matrix", str(path), "--in", ",".join(map(str, n)),
            "--out", ",".join(map(str, m)), "--method", method]
    return Request(f"{method}-{name}", name, "amplitude", method, entries, argv, n=tuple(n), m=tuple(m))


def _bs_sweep_request(tmp_path, n_min, n_max, step):
    path = tmp_path / "bs.json"
    write_matrix(path, beam_splitter())
    argv = ["error-sweep", "--matrix", str(path), "--in-fractions", "1/2:1/2",
            "--out-fractions", "1/2:1/2", "--n-min", str(n_min), "--n-max", str(n_max),
            "--n-step", str(step)]
    rows = [((t // 2, t // 2), (t // 2, t // 2)) for t in range(n_min, n_max + 1, step)]
    return Request("sweep-bs", "bs", "error-sweep", "both", beam_splitter(), argv, rows=rows)


# -- reference -----------------------------------------------------------------


@pytest.mark.parametrize("entries", [beam_splitter(), tritter(), haar(3, [7, 1]), haar(4, [7, 2])])
def test_reference_matches_permutation_sum(entries):
    rng = np.random.default_rng(3)
    modes = len(entries)
    for _ in range(4):
        n = tuple(int(c) for c in np.bincount(rng.integers(0, modes, 6), minlength=modes))
        m = tuple(int(c) for c in np.bincount(rng.integers(0, modes, 6), minlength=modes))
        want = _brute_amplitude(entries, n, m)
        got = reference.amplitude(entries, n, m)
        # the brute force rounds; a suppressed output is only zero to rounding
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("n,m", [((15, 15), (12, 18)), ((96, 96), (48, 144)), ((30, 20), (7, 43)), ((10, 10), (5, 15))])
def test_beam_splitter_reference_matches_closed_form(n, m):
    want = amplitude_exact_bs(BeamSplitterCase(*n, *m)).to_complex()
    got = reference.amplitude(beam_splitter(), n, m)
    # amplitude_exact_bs rounds its log-magnitude, about 1e-13 at N=192
    assert abs(got - want) <= 1e-12 * abs(want)
    assert (got == 0) == (want == 0)


def test_reference_probabilities_sum_to_one():
    entries = haar(3, [5, 5])
    n = (2, 3, 1)
    outputs = list(compositions(3, 6))
    assert sum(abs(reference.amplitude(entries, n, m)) ** 2 for m in outputs) == pytest.approx(1.0, abs=1e-14)
    assert sum(reference.classical_probability(tritter(), n, m) for m in outputs) == pytest.approx(1.0, abs=1e-14)


def test_rounding_floor_separates_suppressed_outputs():
    # Tichy suppression on the tritter: (2,2,2) -> (2,1,3) vanishes for the
    # ideal network and is rounding noise for the float64 one
    floor = reference.rounding_floor(tritter(), (2, 2, 2), (2, 1, 3))
    assert abs(reference.amplitude(tritter(), (2, 2, 2), (2, 1, 3))) < floor
    assert abs(reference.amplitude(tritter(), (2, 2, 2), (2, 2, 2))) > 1e6 * floor
    assert reference.rounding_floor(beam_splitter(), (3, 3), (3, 3)) == 0.0


# -- checker -------------------------------------------------------------------


def test_judge_exact_rules():
    ref = 0.25 + 0.1j
    v = Verdict()
    judge_exact(v, ref * (1 + 1e-13), ref, 0.0, "close")
    assert v.failed == 0 and v.exact_digits[0] == pytest.approx(13.0, abs=0.01)
    judge_exact(v, ref * (1 + 1e-8), ref, 0.0, "off")
    judge_exact(v, 0j, ref, 0.0, "wrong zero")
    judge_exact(v, 0j, 1e-17, 1e-15, "unresolved zero")
    judge_exact(v, 0j, 0j, 0.0, "exact zero")
    assert (v.attempted, v.failed, v.exact_wrong) == (5, 2, 2)


def test_scan_checker_counts_missing_rows(tmp_path):
    path = tmp_path / "tritter.json"
    write_matrix(path, tritter())
    req = Request("scan-exact-tritter", "tritter", "scan", "exact", tritter(),
                  ["scan", "--matrix", str(path), "--in", "2,1,1", "--method", "exact"], n=(2, 1, 1))
    (outcome,), _ = closed_loop(iter([req]), count=1)
    assert check(outcome).failed == 0
    lines = outcome.stdout.splitlines()
    outcome.stdout = "\n".join(lines[:-1])  # drop the last output configuration
    v = check(outcome)
    assert v.failed == 2  # the missing row and the probability sum


def test_beam_splitter_wrong_zero_is_counted(tmp_path):
    # known defect: amplitude_exact reports an exact zero; |<m|n>| = e^-2.44
    req = _amplitude_request(tmp_path, "bs", beam_splitter(), (96, 96), (48, 144))
    assert abs(reference.amplitude(beam_splitter(), (96, 96), (48, 144))) == pytest.approx(math.exp(-2.44), rel=0.01)
    v = _run(req)
    assert (v.attempted, v.failed, v.exact_wrong) == (1, 1, 1)
    assert "wrong zero" in v.failures[0]


def test_threaded_sweep_race_is_counted(tmp_path, monkeypatch):
    # known defect: concurrent rows change mpmath's global precision
    req = _bs_sweep_request(tmp_path, 8, 48, 2)
    monkeypatch.setenv("BOSONIC_SADDLE_THREADS", "1")
    assert _run(req).failed == 0
    monkeypatch.setenv("BOSONIC_SADDLE_THREADS", "2")
    verdicts = [_run(req) for _ in range(3)]
    assert max(v.failed / v.attempted for v in verdicts) > 0, [v.failures for v in verdicts]


def test_tritter_approx_wrong_zero_is_counted(tmp_path):
    # known defect: the calibrated saddle sum cancels; <m|n> = 1/81
    req = _amplitude_request(tmp_path, "tritter", tritter(), (4, 4, 4), (4, 4, 4), method="approx")
    v = _run(req)
    assert (v.attempted, v.failed) == (1, 1)
    assert "wrong zero" in v.failures[0]


# -- tracer --------------------------------------------------------------------


def test_tracer_parents_pool_thread_spans_to_the_request(tmp_path, monkeypatch):
    monkeypatch.setenv("BOSONIC_SADDLE_THREADS", "2")
    tracer = Tracer()
    install(tracer)
    try:
        closed_loop(iter([_bs_sweep_request(tmp_path, 8, 20, 4)]), count=1, tracer=tracer)
    finally:
        tracer.restore()
    (request,) = [s for s in tracer.spans if s.name == REQUEST]
    by_id = {s.sid: s for s in tracer.spans}
    exact = [s for s in tracer.spans if s.name == "exact.amplitude"]
    assert len(exact) == 4 and all(s.parent == request.sid for s in exact)
    for s in tracer.spans:
        if s is not request:
            parent = by_id[s.parent]
            assert parent.start <= s.start and s.end <= parent.end
    totals = tracer.totals()
    count, total, self_time, _ = totals[REQUEST]
    assert count == 1 and 0.0 <= self_time <= total


def test_tracer_tolerates_missing_layers(monkeypatch):
    from bosonic_saddle import saddle

    monkeypatch.delattr(saddle, "amplitude_exact")
    monkeypatch.delattr(saddle, "_calibrate_signs")
    tracer = Tracer()
    assert tracer.wrap(SimpleNamespace(), "amplitude_exact", "x") is False
    install(tracer)
    tracer.restore()
    assert tracer.totals()["saddle.calibration_exact"][0] == 0


def test_tracer_is_thread_safe():
    tracer = Tracer()
    ns = SimpleNamespace(work=lambda: sum(range(100)))
    tracer.wrap(ns, "work", "work")
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [ns.work() for _ in range(500)]) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert len(tracer.spans) == 4000
    assert len({s.sid for s in tracer.spans}) == 4000


# -- harness -------------------------------------------------------------------


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
