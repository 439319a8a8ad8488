"""Command-line front end: amplitude queries, scans, error sweeps, benchmarks.

Subcommands: amplitude, scan, error-sweep, saddles, bench.  The saddles
come from one deterministic homotopy that tracks C(2M-2, M-1) paths and
finds all isolated roots, so there is no seed or start count to set, and
all outputs are deterministic (wall-time fields excepted, by nature).
JSON records carry "schema": "v1"; CSV output starts with a versioned
header comment.  Exit codes: 0 ok, 2 input error, 3 coalescing
saddles flagged, 4 no saddles found.  Sweep rows run one after another:
the work is pure Python and holds the GIL, so threads would buy nothing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from .beamsplitter import BeamSplitterCase, Regime, classify_regime
from .errors import (
    BosonicSaddleError,
    CoalescingSaddles,
    DegenerateSaddle,
    EmptyMode,
    NoConvergence,
    NoSaddlesFound,
)
from .exact import amplitude_exact, classical_probability, flop_estimate, permanent_repeated
from .logcomplex import LogComplex
from .matrixio import load_matrix, occupation_from_fractions, parse_fractions, parse_occupation
from .network import (
    Occupation,
    beam_splitter,
    enumerate_output_configs,
    output_config_count,
)
from .saddle import (
    amplitude_approx,
    classical_probability_approx,
    select_contributing,
    stirling_relative_error,
)
from .scaling import ScalingProblem, solve_all_saddles

SCHEMA = "v1"
SWEEP_HEADER = "# bosonic-saddle sweep v1"
SCAN_HEADER = "# bosonic-saddle scan v1"
SCAN_LIMIT = 10**6
EXACT_FLOP_LIMIT = 10**9

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_COALESCING = 3
EXIT_NO_SADDLES = 4


def _value_record(value: LogComplex) -> dict:
    log_mag = value.log_mag
    z = value.to_complex() if log_mag < 700 else complex(math.nan, math.nan)
    return {
        "log_mag": log_mag if math.isfinite(log_mag) else None,
        "phase": value.phase,
        "re": z.real if math.isfinite(z.real) else None,
        "im": z.imag if math.isfinite(z.imag) else None,
    }


def _diag_record(diags, regime=None) -> dict:
    rec = {
        "saddle_count": diags.saddle_count,
        "contributing_count": diags.contributing_count,
        "min_abs_det": diags.min_abs_det if math.isfinite(diags.min_abs_det) else None,
        "coalescing": diags.coalescing,
        "signs": list(diags.signs),
        "calibrated": diags.calibrated,
        "calibration_total": diags.calibration_total,
    }
    if regime is not None:
        rec["regime"] = str(regime.value)
    return rec


def _is_symmetric_bs(matrix) -> bool:
    if matrix.dim != 2:
        return False
    return bool(np.allclose(matrix.entries, beam_splitter().entries, atol=1e-12))


def _bs_regime(matrix, n: Occupation, m: Occupation):
    if not _is_symmetric_bs(matrix):
        return None
    return classify_regime(BeamSplitterCase.from_occupations(n, m))


def _emit(payload: dict):
    print(json.dumps(payload, sort_keys=True))


def cmd_amplitude(args) -> int:
    matrix = load_matrix(args.matrix)
    n = parse_occupation(args.in_occ)
    m = parse_occupation(args.out_occ)
    record = {"schema": SCHEMA, "method": args.method, "n": list(n), "m": list(m)}
    results: dict = {}
    record["results"] = results
    regime = _bs_regime(matrix, n, m)
    if regime is not None:
        record["regime"] = str(regime.value)
    exit_code = EXIT_OK

    if args.method in ("exact", "both"):
        results["exact"] = _value_record(amplitude_exact(matrix, n, m))
    if args.method in ("approx", "both"):
        try:
            if regime == Regime.COALESCING:
                raise CoalescingSaddles(
                    "beam-splitter margins lie in the coalescing band", diagnostics=None
                )
            res = amplitude_approx(matrix, n, m)
            results["approx"] = _value_record(res.amplitude)
            results["approx"]["diagnostics"] = _diag_record(res.diagnostics, regime)
        except CoalescingSaddles as exc:
            results["approx"] = {
                "error": "coalescing-saddles",
                "message": str(exc),
            }
            if exc.diagnostics is not None:
                results["approx"]["diagnostics"] = _diag_record(exc.diagnostics, regime)
            elif regime is not None:
                results["approx"]["diagnostics"] = {"regime": str(regime.value)}
            exit_code = EXIT_COALESCING
    if args.method in ("classical", "both"):
        p_exact = classical_probability(matrix, n, m)
        results["classical"] = {"probability": p_exact}
        try:
            p_approx = classical_probability_approx(matrix, n, m)
            results["classical_approx"] = {"probability": p_approx}
            if p_exact > 0:
                record["classical_rel_error"] = abs(p_approx - p_exact) / p_exact
        except (EmptyMode, BosonicSaddleError) as exc:
            results["classical_approx"] = {"error": str(exc)}

    if "exact" in results and "approx" in results and "re" in results.get("approx", {}):
        ze = complex(results["exact"]["re"], results["exact"]["im"])
        za = complex(results["approx"]["re"], results["approx"]["im"])
        if ze != 0:
            record["rel_error"] = abs(za - ze) / abs(ze)
    primary = next(iter(results.values()))
    for key in ("log_mag", "phase", "re", "im"):
        if key in primary:
            record[key] = primary[key]
    _emit(record)
    return exit_code


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return repr(x)
    return str(x)


def cmd_scan(args) -> int:
    matrix = load_matrix(args.matrix)
    n = parse_occupation(args.in_occ)
    if n.modes != matrix.dim:
        raise ValueError("occupation length must equal the matrix dimension")
    count = output_config_count(matrix.dim, n.total)
    if count > SCAN_LIMIT and not args.force:
        raise ValueError(
            f"scan would enumerate {count} output configurations; rerun with --force"
        )
    out = sys.stdout
    print(SCAN_HEADER, file=out)
    cols = ["m", "flag"]
    if args.method in ("exact", "both"):
        cols += ["exact_re", "exact_im", "exact_prob"]
    if args.method in ("approx", "both"):
        cols += ["approx_re", "approx_im", "approx_prob"]
    if args.method == "classical":
        cols += ["classical_prob"]
    print(",".join(cols), file=out)
    for m in enumerate_output_configs(matrix.dim, n.total):
        row = {"m": ":".join(str(c) for c in m), "flag": ""}
        if args.method in ("exact", "both"):
            amp = amplitude_exact(matrix, n, m)
            z = amp.to_complex()
            row.update(exact_re=z.real, exact_im=z.imag, exact_prob=abs(z) ** 2)
        if args.method in ("approx", "both"):
            try:
                res = amplitude_approx(matrix, n, m)
                z = res.amplitude.to_complex()
                row.update(approx_re=z.real, approx_im=z.imag, approx_prob=abs(z) ** 2)
            except EmptyMode:
                row["flag"] = "empty-mode"
            except CoalescingSaddles:
                row["flag"] = "coalescing"
            except (NoSaddlesFound, DegenerateSaddle, NoConvergence):
                row["flag"] = "no-saddles"
        if args.method == "classical":
            row["classical_prob"] = classical_probability(matrix, n, m)
        print(",".join(_fmt(row.get(c)) for c in cols), file=out)
    return EXIT_OK


def _sweep_row(matrix, n, m):
    total = n.total
    row = {
        "N": total,
        "n": ":".join(str(c) for c in n),
        "m": ":".join(str(c) for c in m),
        "regime": "",
        "flag": "",
        "exact_re": None,
        "exact_im": None,
        "approx_re": None,
        "approx_im": None,
        "rel_error": None,
        "c_of_n": None,
        "stirling_ref": None,
        "saddle_count": None,
        "contributing_count": None,
        "min_det": None,
        "wall_time_exact": None,
        "wall_time_approx": None,
    }
    regime = _bs_regime(matrix, n, m)
    if regime is not None:
        row["regime"] = str(regime.value)
    try:
        row["stirling_ref"] = stirling_relative_error(m)
    except EmptyMode:
        pass
    exact = None
    if flop_estimate(n, m).upper <= EXACT_FLOP_LIMIT:
        t0 = time.perf_counter()
        exact = amplitude_exact(matrix, n, m)
        row["wall_time_exact"] = time.perf_counter() - t0
        z = exact.to_complex()
        row["exact_re"], row["exact_im"] = z.real, z.imag
    else:
        row["flag"] = "no-exact"
    if regime == Regime.COALESCING:
        row["flag"] = "coalescing"
        return row
    try:
        t0 = time.perf_counter()
        res = amplitude_approx(matrix, n, m)
        row["wall_time_approx"] = time.perf_counter() - t0
    except CoalescingSaddles:
        row["flag"] = "coalescing"
        return row
    except EmptyMode:
        row["flag"] = "empty-mode"
        return row
    except (NoSaddlesFound, DegenerateSaddle, NoConvergence):
        row["flag"] = "no-saddles"
        return row
    z = res.amplitude.to_complex()
    row["approx_re"], row["approx_im"] = z.real, z.imag
    diags = res.diagnostics
    row["saddle_count"] = diags.saddle_count
    row["contributing_count"] = diags.contributing_count
    row["min_det"] = diags.min_abs_det if math.isfinite(diags.min_abs_det) else None
    if exact is not None:
        if exact.is_zero:
            row["flag"] = "suppressed" if not res.amplitude.is_zero else "suppressed-both"
        else:
            rel = abs((res.amplitude - exact).to_complex()) / abs(exact.to_complex())
            row["rel_error"] = rel
            row["c_of_n"] = rel * total
    return row


def cmd_error_sweep(args) -> int:
    matrix = load_matrix(args.matrix)
    in_fracs = parse_fractions(args.in_fractions)
    out_fracs = parse_fractions(args.out_fractions)
    if len(in_fracs) != matrix.dim or len(out_fracs) != matrix.dim:
        raise ValueError("fraction lists must match the matrix dimension")
    rows = []
    for total in range(args.n_min, args.n_max + 1, args.n_step):
        n = occupation_from_fractions(in_fracs, total)
        m = occupation_from_fractions(out_fracs, total)
        if n is None or m is None:
            continue  # fractions do not give integers at this N
        rows.append(_sweep_row(matrix, n, m))
    out = sys.stdout
    print(SWEEP_HEADER, file=out)
    cols = [
        "N", "n", "m", "regime", "flag",
        "exact_re", "exact_im", "approx_re", "approx_im",
        "rel_error", "c_of_n", "stirling_ref",
        "saddle_count", "contributing_count", "min_det",
        "wall_time_exact", "wall_time_approx",
    ]
    print(",".join(cols), file=out)
    for row in rows:
        print(",".join(_fmt(row.get(c)) for c in cols), file=out)
    return EXIT_OK


def cmd_saddles(args) -> int:
    matrix = load_matrix(args.matrix)
    n = parse_occupation(args.in_occ)
    m = parse_occupation(args.out_occ)
    try:
        sols = solve_all_saddles(ScalingProblem(matrix, n, m))
    except (NoConvergence, DegenerateSaddle) as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc), "saddles": []}))
        return EXIT_NO_SADDLES
    contribs = select_contributing(sols)

    def cplx(z):
        return [float(np.real(z)), float(np.imag(z))]

    payload = {
        "schema": SCHEMA,
        "n": list(n),
        "m": list(m),
        "count": len(sols),
        "saddles": [
            {
                "x": [cplx(v) for v in c.solution.x],
                "y": [cplx(v) for v in c.solution.y],
                "p": [[cplx(v) for v in row] for row in c.solution.p],
                "residual": c.solution.residual,
                "det_dprime": cplx(c.det_Dprime),
                "term_log_mag": c.term.log_mag,
                "contributing": c.contributing,
            }
            for c in contribs
        ],
    }
    _emit(payload)
    return EXIT_OK


def cmd_bench(args) -> int:
    matrix = load_matrix(args.matrix)
    totals = [int(s) for s in args.n_list.split(",") if s.strip()]
    if not totals:
        raise ValueError("empty --n-list")
    rows = []
    for total in totals:
        if total % matrix.dim:
            raise ValueError(f"N={total} not divisible by M={matrix.dim}")
        k = total // matrix.dim
        occ = Occupation(tuple([k] * matrix.dim))
        best = math.inf
        elapsed = 0.0
        reps = 0
        stats = None
        while elapsed < args.min_time and reps < 50:
            t0 = time.perf_counter()
            _, stats = permanent_repeated(matrix, occ, occ)
            dt = time.perf_counter() - t0
            best = min(best, dt)
            elapsed += dt
            reps += 1
        fe = flop_estimate(occ, occ)
        rows.append(
            {
                "N": total,
                "terms": stats.terms,
                "weighted_terms": stats.weighted_terms,
                "instrumented_flops": stats.instrumented_flops,
                "flop_lower": fe.lower,
                "flop_upper": fe.upper,
                "dps_used": stats.dps_used,
                "condition_log10": (
                    stats.condition_log10 if math.isfinite(stats.condition_log10) else None
                ),
                "wall_time_s": best,
                "repetitions": reps,
            }
        )
    exponent = None
    if len(rows) >= 2:
        xs = np.log([r["N"] for r in rows])
        ys = np.log([r["wall_time_s"] for r in rows])
        exponent = float(np.polyfit(xs, ys, 1)[0])
    _emit(
        {
            "schema": SCHEMA,
            "matrix_dim": matrix.dim,
            "rows": rows,
            "fitted_exponent": exponent,
        }
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bosonic-saddle",
        description="Exact and saddle-point N-boson transition amplitudes "
        "in M-mode unitary networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--matrix", required=True, help="matrix file (.json or .csv)")

    p = sub.add_parser("amplitude", help="one transition amplitude")
    add_common(p)
    p.add_argument("--in", dest="in_occ", required=True, help="input occupation n1,...,nM")
    p.add_argument("--out", dest="out_occ", required=True, help="output occupation m1,...,mM")
    p.add_argument(
        "--method",
        choices=["exact", "approx", "classical", "both"],
        default="exact",
    )
    p.set_defaults(func=cmd_amplitude)

    p = sub.add_parser("scan", help="all output configurations for one input")
    add_common(p)
    p.add_argument("--in", dest="in_occ", required=True)
    p.add_argument(
        "--method", choices=["exact", "approx", "classical", "both"], default="exact"
    )
    p.add_argument("--force", action="store_true", help="allow very large scans")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("error-sweep", help="exact-vs-approx error over N at fixed fractions")
    add_common(p)
    p.add_argument("--in-fractions", required=True, help="input fractions, e.g. 1/2:1/2")
    p.add_argument("--out-fractions", required=True, help="output fractions, e.g. 1/2:1/2")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--n-step", type=int, default=1)
    p.set_defaults(func=cmd_error_sweep)

    p = sub.add_parser("saddles", help="list deduplicated scaling solutions")
    add_common(p)
    p.add_argument("--in", dest="in_occ", required=True)
    p.add_argument("--out", dest="out_occ", required=True)
    p.set_defaults(func=cmd_saddles)

    p = sub.add_parser(
        "bench", help="runtime, flop and digit accounting of the exact kernel (uniform occupations)"
    )
    add_common(p)
    p.add_argument("--n-list", required=True, help="comma-separated N values")
    p.add_argument("--min-time", type=float, default=0.25, help="seconds of timing per N")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CoalescingSaddles as exc:
        print(json.dumps({"schema": SCHEMA, "error": "coalescing-saddles", "message": str(exc)}))
        return EXIT_COALESCING
    except (NoSaddlesFound, DegenerateSaddle, NoConvergence) as exc:
        print(json.dumps({"schema": SCHEMA, "error": "no-saddles", "message": str(exc)}))
        return EXIT_NO_SADDLES
    except (BosonicSaddleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
