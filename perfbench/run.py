"""Closed-loop, reference-checked benchmark of the bosonic-saddle CLI.

    python3 perfbench/run.py --workload query|scan|sweep --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  One client calls bosonic_saddle.cli.main(argv)
in process and issues each request only after the previous one returned,
for S seconds after one untimed request of each kind.  Every value printed
is then checked against the independent reference in perfbench/reference.py,
outside the timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 reports the per-layer
metrics: two worker processes set up the same requests, one with spans
around the package's layer boundaries (perfbench/tracing.py) and one
without, and the run alternates requests between them for S seconds in all,
so that the tracing overhead (traced minus untraced time) is not swamped by
drift in the host's speed.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

# requests generated before the first one is issued, per second of run
# time; about four times what today's code completes, so the deck rarely
# has to grow inside the timed loop
DECK_RATE = {"query": 16, "scan": 4, "sweep": 3}
SETUP_PROBES = 4
# untimed requests first, one of each request kind, so that lazy set-up and
# the host's ramp from idle stay out of the timed loop; a count, not a time,
# so that every run times the same stretch of the deck.  Their values are
# still checked
WARMUP_REQUESTS = {"query": 8, "scan": 7, "sweep": 2}
CHILD_TIMEOUT = 170
# the CLI's error-sweep thread pool shares mpmath's global precision between
# rows and corrupts exact values (see README); the benchmark runs rows on one
# thread so that every value it times is also a value it can pass
SWEEP_THREADS = "1"


def _child(args, *extra) -> dict:
    """Run this script again in a fresh interpreter; its last stdout line is JSON."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=False
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(extra)} child failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup(workload: str, seed: int, seconds: float, workdir: Path):
    """Import the package and generate the inputs; returns (deck, seconds taken)."""
    start = time.perf_counter()
    import bosonic_saddle.cli  # noqa: F401  (import cost is part of set-up)

    from perfbench.workloads import Deck

    workdir.mkdir(parents=True)
    deck = Deck(workload, seed, workdir)
    deck.prepare(WARMUP_REQUESTS[workload] + int(DECK_RATE[workload] * seconds) + 1)
    return deck, time.perf_counter() - start


def closed_loop(requests, seconds=None, count=None, tracer=None):
    """Issue requests one after another; returns (outcomes, wall seconds)."""
    from bosonic_saddle import cli

    from perfbench.checker import Outcome
    from perfbench.tracing import REQUEST

    outcomes = []
    start = time.perf_counter()
    while len(outcomes) < count if count is not None else time.perf_counter() - start < seconds:
        req = next(requests)
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                if tracer is None:
                    code = cli.main(req.argv)
                else:
                    code = tracer.call(REQUEST, cli.main, req.argv)
            except Exception:  # the loop must go on; the checker fails this request
                code = None
                traceback.print_exc(file=err)
        latency = time.perf_counter() - t0
        outcomes.append(Outcome(req, code, out.getvalue(), err.getvalue(), latency))
    return outcomes, time.perf_counter() - start


def check_all(outcomes):
    from perfbench.checker import Verdict, check

    verdict = Verdict()
    for outcome in outcomes:
        verdict.merge(check(outcome))
    return verdict


def tail(latencies):
    """(value, percentile, samples): the highest percentile with ten samples beyond it."""
    ordered = sorted(latencies)
    idx = max(0, len(ordered) - 11)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered), len(ordered)


def environment() -> str:
    import mpmath
    import numpy

    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"mpmath {mpmath.__version__} (backend {mpmath.libmp.BACKEND}), "
        f"nproc {os.cpu_count()}, sweep threads {os.environ['BOSONIC_SADDLE_THREADS']}"
    )


def untraced(args, deck):
    warmup, _ = closed_loop(deck, count=WARMUP_REQUESTS[args.workload])
    outcomes, wall = closed_loop(deck, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict = check_all(outcomes)
    delivered = verdict.delivered
    verdict.merge(check_all(warmup))
    latencies = [o.latency for o in outcomes]
    tail_s, tail_pct, samples = tail(latencies)
    metrics = {
        "throughput_values_per_s": (delivered / wall, "values/s"),
        "request_p50_s": (statistics.median(latencies), "s"),
        "request_tail_s": (tail_s, "s"),
        "pass_share": (1.0 - verdict.failed / verdict.attempted, "share"),
        "exact_digits_min": (min(verdict.exact_digits, default=0.0), "digits"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"requests {samples} in {wall:.2f} s after {len(warmup)} warm-up requests; "
        f"tail is p{tail_pct:.1f} over {samples} samples",
        f"failed_share {verdict.failed / verdict.attempted:.6g} (= 1 - pass_share)",
        "approx_err_n_max "
        + (f"{max(verdict.approx_err_n):.6g}" if verdict.approx_err_n else "null (no approximations)"),
    ]
    return verdict, metrics, notes


def traced(args):
    """Alternate the same requests between an untraced and a traced worker."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--role", "worker",
    ]
    workers = [
        subprocess.Popen(
            cmd + ["--trace", str(t)], cwd=ROOT, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        for t in (0, 1)
    ]
    try:
        for w in workers:
            if w.stdout.readline().strip() != "ready":
                raise RuntimeError("worker failed to set up")
        walls = [0.0, 0.0]
        rounds = 0
        # S seconds in all, so a traced run takes about as long as an untraced one
        while walls[0] + walls[1] < args.seconds:
            # alternate which worker goes first, so neither gains from the order
            for i in ((0, 1), (1, 0))[rounds % 2]:
                workers[i].stdin.write("next\n")
                workers[i].stdin.flush()
                walls[i] += float(workers[i].stdout.readline())
            rounds += 1
        reports = []
        for w in workers:
            w.stdin.close()
            reports.append(json.loads(w.stdout.read().strip().splitlines()[-1]))
            w.wait(timeout=CHILD_TIMEOUT)
    finally:
        for w in workers:
            if w.poll() is None:
                w.kill()
                w.wait()
    from perfbench.checker import Verdict

    report = reports[1]
    verdict = Verdict(**report["verdict"])
    metrics = {k: tuple(v) for k, v in report["metrics"].items()}
    metrics["trace.overhead_s"] = (walls[1] - walls[0], "s")
    notes = [f"requests {report['requests']}: traced {walls[1]:.3f} s, untraced {walls[0]:.3f} s"]
    return verdict, metrics, notes


def worker(args, deck) -> dict:
    """Run one request per line read from stdin; report once stdin closes."""
    from perfbench.tracing import Tracer, install

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        install(tracer)
    outcomes = []
    print("ready", flush=True)
    for _ in sys.stdin:
        (outcome,), _ = closed_loop(deck, count=1, tracer=tracer)
        outcomes.append(outcome)
        print(outcome.latency, flush=True)
    if tracer is None:
        return {}
    tracer.restore()
    verdict = check_all(outcomes)
    return {
        "requests": len(outcomes),
        "verdict": {k: getattr(verdict, k) for k in ("attempted", "failed", "exact_wrong", "failures")},
        "metrics": layer_metrics(tracer, verdict),
    }


def layer_metrics(tracer, verdict) -> dict:
    from perfbench.tracing import REQUEST, exact_stats

    stats = exact_stats(tracer.exact_inputs)
    totals = tracer.totals()

    def count(name):
        return (totals[name][0], "count")

    def secs(name, column=1):
        return (totals[name][column], "s")

    starts = sum(s for s, _ in tracer.solves)
    found = sum(f for _, f in tracer.solves)
    return {
        "cli.requests": count(REQUEST),
        "cli.self_s": secs(REQUEST, 2),
        "matrixio.load_s": secs("matrixio.load"),
        "exact.amplitude_calls": count("exact.amplitude"),
        "exact.amplitude_s": secs("exact.amplitude"),
        "exact.terms": (stats["terms"], "count"),
        "exact.rescue_share": (stats["rescue_share"], "share"),
        "exact.dps_max": (stats["dps_max"], "digits"),
        "exact.passes_mean": (stats["passes_mean"], "count"),
        "exact.float_s": (stats["float_s"], "s"),
        "exact.classical_calls": count("exact.classical"),
        "exact.classical_s": secs("exact.classical"),
        "exact.wrong": (verdict.exact_wrong, "count"),
        "saddle.approx_calls": count("saddle.approx"),
        "saddle.approx_s": secs("saddle.approx"),
        "saddle.approx_self_s": secs("saddle.approx", 2),
        "saddle.select_s": secs("saddle.select"),
        "saddle.calibrated_share": (
            sum(tracer.calibrated) / len(tracer.calibrated) if tracer.calibrated else 0.0,
            "share",
        ),
        "saddle.calibration_s": secs("saddle.calibrate"),
        "saddle.calibration_exact_calls": count("saddle.calibration_exact"),
        "saddle.calibration_exact_s": secs("saddle.calibration_exact"),
        "saddle.classical_approx_s": secs("saddle.classical_approx"),
        "saddle.approx_err_n_max": (max(verdict.approx_err_n, default=0.0), "1"),
        "scaling.solve_calls": count("scaling.solve"),
        "scaling.solve_s": secs("scaling.solve"),
        "scaling.calibration_solve_s": secs("scaling.solve", 3),
        "scaling.starts": (starts, "count"),
        "scaling.saddles_found": (found, "count"),
        "scaling.yield": (found / starts if starts else 0.0, "share"),
        "scaling.sinkhorn_s": secs("scaling.sinkhorn"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["query", "scan", "sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # internal: set-up probes and trace workers are this script in child processes
    parser.add_argument("--role", choices=["main", "setup", "worker"], default="main")
    args = parser.parse_args(argv)

    if not (SRC / "bosonic_saddle" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ["BOSONIC_SADDLE_THREADS"] = SWEEP_THREADS

    if args.role == "main" and args.trace:
        verdict, metrics, notes = traced(args)
    else:
        workdir = WORK / f"{os.getpid()}"
        try:
            deck, setup_s = setup(args.workload, args.seed, args.seconds, workdir)
            import bosonic_saddle

            if Path(bosonic_saddle.__file__).resolve().parent != SRC / "bosonic_saddle":
                print(f"error: imported {bosonic_saddle.__file__}, not {SRC}", file=sys.stderr)
                return 2
            if args.role == "setup":
                print(json.dumps({"setup_s": setup_s}))
                return 0
            if args.role == "worker":
                print(json.dumps(worker(args, deck)))
                return 0
            probes = [_child(args, "--role", "setup")["setup_s"] for _ in range(SETUP_PROBES)]
            verdict, metrics, notes = untraced(args, deck)
            metrics["setup_s"] = (statistics.median([setup_s] + probes), "s")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:
                pass  # another run's files are still there

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"environment: {environment()}")
    for note in notes:
        print(note)
    print(f"checked {verdict.attempted} values, {verdict.failed} failed")
    for failure in verdict.failures:
        print(f"  FAIL {failure}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": verdict.failed == 0,
                "attempted": verdict.attempted,
                "failed": verdict.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
