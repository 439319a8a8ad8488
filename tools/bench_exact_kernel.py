"""Wall time of the exact engine on the fixed Baseline rows of ROADMAP.md.

    PYTHONPATH=src python3 tools/bench_exact_kernel.py [--repeats 3]

Prints one JSON object: per row, the best-of-repeats wall time of the public
call (`amplitude_exact` or `classical_probability`) and, for amplitudes, the
kernel's own `RyserStats` for the permanent (from `permanent_repeated`).
Only the public API is used, so the same script times any version of the
package that PYTHONPATH points at.
"""

from __future__ import annotations

import argparse
import json
import platform
import time

import numpy as np

from bosonic_saddle import (
    Occupation,
    amplitude_exact,
    beam_splitter,
    classical_probability,
    haar_random_unitary,
    permanent_repeated,
    tritter,
)


def _rows():
    tt, bs, haar4 = tritter(), beam_splitter(), haar_random_unitary(4, 1)
    for total in (15, 30, 60, 90):
        k = total // 3
        yield f"amplitude_exact tritter ({k},{k},{k})->({k},{k},{k})", amplitude_exact, tt, (k,) * 3, (k,) * 3
    for total in (12, 20, 32):
        k = total // 4
        yield f"amplitude_exact haar_random_unitary(4, 1) N={total} uniform", amplitude_exact, haar4, (k,) * 4, (k,) * 4
    yield "amplitude_exact BS (50,50)->(49,51) parity zero", amplitude_exact, bs, (50, 50), (49, 51)
    yield "classical_probability tritter (20,20,20)->(15,25,20)", classical_probability, tt, (20, 20, 20), (15, 25, 20)


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    out = []
    for name, fn, U, n, m in _rows():
        n, m = Occupation(n), Occupation(m)
        row = {"row": name, "total_s": _best(lambda: fn(U, n, m), args.repeats)}
        if fn is amplitude_exact:  # the classical row sums |U|^2, not U
            _, stats = permanent_repeated(U, n, m)
            row.update(terms=stats.terms, dps_used=stats.dps_used,
                       condition_log10=stats.condition_log10)
        out.append(row)
    env = f"python {platform.python_version()}, numpy {np.__version__}, {platform.machine()}"
    print(json.dumps({"environment": env, "repeats": args.repeats, "rows": out}, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
