"""Snapshot of `amplitude_approx` over a fixed deck of queries, and a diff of two snapshots.

    PYTHONPATH=src python3 tools/approx_snapshot.py write snap.json
    python3 tools/approx_snapshot.py diff before.json after.json [--rel 1e-14]

`write` runs the leading-order approximation on every query of the deck
(beam splitter, tritter, real orthogonal and Haar networks; see `deck`) and
records per query the value, whether it is the canonical zero, the per-saddle
signs, the `calibrated` flag, or the name of the error raised.  Only the
public API is used, so the same script snapshots any version of the package
that PYTHONPATH points at.  `diff` pairs the queries of two snapshots and
prints counts of those that match (value within --rel relative, same zero,
signs, calibration and error) and a list of every query that does not.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np


def _orthogonal(dim: int, seed: int):
    from bosonic_saddle import validate_unitary

    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, dim)))
    return validate_unitary(q * np.sign(np.diag(r)))


def _positive_outputs(modes: int, total: int):
    from bosonic_saddle import enumerate_output_configs

    return [m for m in enumerate_output_configs(modes, total) if m.strictly_positive]


def deck():
    """(network name, network, n, m) for every query, in a fixed order."""
    from bosonic_saddle import Occupation, beam_splitter, haar_random_unitary, tritter

    bs, tt = beam_splitter(), tritter()
    for total in (6, 11, 20, 30):
        n = Occupation.of(total // 2, total - total // 2)
        for m in _positive_outputs(2, total):
            yield "bs", bs, n, m
    for k, step in ((2, 1), (3, 2)):
        for m in _positive_outputs(3, 3 * k)[::step]:
            yield "tritter", tt, Occupation.of(k, k, k), m
    for seed in (1, 2, 3):
        for kind, U in (("orthogonal", _orthogonal(3, seed)), ("haar", haar_random_unitary(3, seed))):
            for m in _positive_outputs(3, 6)[::2]:
                yield f"{kind}3-{seed}", U, Occupation.of(2, 2, 2), m
    # the orthogonal network whose calibration ties (purely imaginary real-saddle terms)
    nine = Occupation.of(3, 3, 3)
    yield "orthogonal3-1", _orthogonal(3, 1), nine, nine
    # M = 4 on real networks only: conjugate pairs halve the calibration's
    # sign orbits, while a complex 4-mode network has ~19 singleton orbits and
    # 2**19 sign choices to try
    for seed in (1, 2, 3):
        U = _orthogonal(4, seed)
        for n, m in (((1, 1, 1, 1), (1, 1, 1, 1)), ((2, 1, 1, 1), (1, 1, 2, 1))):
            yield f"orthogonal4-{seed}", U, Occupation(n), Occupation(m)


def write(path: str) -> int:
    from bosonic_saddle import BosonicSaddleError, amplitude_approx

    records = []
    start = time.perf_counter()
    for name, U, n, m in deck():
        rec = {"network": name, "n": list(n.counts), "m": list(m.counts)}
        try:
            res = amplitude_approx(U, n, m)
        except BosonicSaddleError as exc:
            rec["error"] = type(exc).__name__
        else:
            z = res.amplitude.to_complex()
            rec.update(
                value=[z.real, z.imag],
                is_zero=res.amplitude.is_zero,
                signs=list(res.diagnostics.signs),
                calibrated=res.diagnostics.calibrated,
            )
        records.append(rec)
    elapsed = time.perf_counter() - start
    with open(path, "w") as fh:
        json.dump({"seconds": round(elapsed, 1), "records": records}, fh, indent=0)
    print(f"{len(records)} queries in {elapsed:.1f} s -> {path}")
    return 0


def _key(rec) -> tuple:
    return rec["network"], tuple(rec["n"]), tuple(rec["m"])


def _differences(a, b, rel: float) -> list:
    if a.get("error") or b.get("error"):
        return [] if a.get("error") == b.get("error") else ["error"]
    out = [f for f in ("is_zero", "signs", "calibrated") if a[f] != b[f]]
    za, zb = complex(*a["value"]), complex(*b["value"])
    scale = max(abs(za), abs(zb))
    if scale and abs(za - zb) > rel * scale:
        out.append("value")
    return out


def diff(before: str, after: str, rel: float) -> int:
    with open(before) as fh:
        old = {_key(r): r for r in json.load(fh)["records"]}
    with open(after) as fh:
        new = {_key(r): r for r in json.load(fh)["records"]}
    counts = {"queries": len(old.keys() | new.keys()), "match": 0, "missing": 0}
    listed = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            counts["missing"] += 1
            listed.append((key, ["missing"]))
            continue
        fields = _differences(old[key], new[key], rel)
        if not fields:
            counts["match"] += 1
        for f in fields:
            counts[f] = counts.get(f, 0) + 1
        if fields:
            listed.append((key, fields))
    print(json.dumps(counts))
    for (name, n, m), fields in listed:
        a, b = old.get((name, n, m), {}), new.get((name, n, m), {})
        print(f"{name} {n}->{m}: {','.join(fields)}")
        for label, rec in (("before", a), ("after", b)):
            print(f"  {label}: value={rec.get('value')} signs={rec.get('signs')} "
                  f"zero={rec.get('is_zero')} calibrated={rec.get('calibrated')} error={rec.get('error')}")
    return 0 if not listed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    w = sub.add_parser("write", help="snapshot the deck to a JSON file")
    w.add_argument("path")
    d = sub.add_parser("diff", help="compare two snapshots")
    d.add_argument("before")
    d.add_argument("after")
    d.add_argument("--rel", type=float, default=1e-14, help="relative value tolerance")
    args = parser.parse_args(argv)
    if args.command == "write":
        return write(args.path)
    return diff(args.before, args.after, args.rel)


if __name__ == "__main__":
    sys.exit(main())
