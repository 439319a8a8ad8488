"""Spans around the package's layer boundaries, for the traced run only.

The tracer replaces module attributes that the `cli` and `saddle` modules
look up at call time with wrappers that record a span (name, parent, start,
end) and, where a layer reports its own work, a count.  The untraced run
installs nothing.  Span stacks are per thread: error-sweep rows may run on a
thread pool, and a span opened on a pool thread with an empty stack is
parented to the request in flight.  A wrapped attribute that no longer exists
is skipped, and its metrics read zero.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

REQUEST = "cli.request"


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    parent: int  # 0 for a request span
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._patched = []
        self.root = 0  # span id of the request in flight
        self.spans = []
        self.exact_inputs = []  # (U, n, m) of every exact amplitude the CLI asked for
        self.calibrated = []  # ApproxDiagnostics.calibrated per approx call
        self.solves = []  # (starts, saddles found) per solver call

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name; returns (result, span id)."""
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            sid = next(self._ids)
        if name == REQUEST:
            parent, self.root = 0, sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, parent, start, end))

    def wrap(self, module, attr: str, name: str, record=None) -> bool:
        """Trace calls to module.attr; record(args, kwargs, result) runs after each."""
        original = getattr(module, attr, None)
        if original is None:
            return False

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if record is not None:
                with self._lock:
                    record(args, kwargs, result)
            return result

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))
        return True

    def restore(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- aggregation ---------------------------------------------------------

    def totals(self):
        """Per span name: (count, total seconds, self seconds, seconds under calibration)."""
        children = defaultdict(list)
        by_id = {}
        for s in self.spans:
            by_id[s.sid] = s
            children[s.parent].append(s)
        out = defaultdict(lambda: [0, 0.0, 0.0, 0.0])
        for s in self.spans:
            row = out[s.name]
            row[0] += 1
            row[1] += s.duration
            row[2] += s.duration - _covered(s, children[s.sid])
            if _under(s, "saddle.calibrate", by_id):
                row[3] += s.duration
        return out


def _covered(span: Span, kids) -> float:
    """Length of the part of span's interval that its child spans cover."""
    pieces = sorted((max(k.start, span.start), min(k.end, span.end)) for k in kids)
    covered = 0.0
    reach = span.start
    for lo, hi in pieces:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def _under(span: Span, name: str, by_id) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


def install(tracer: Tracer):
    """Wrap every layer boundary the benchmark reports on."""
    from bosonic_saddle import cli, saddle, scaling

    def exact_input(args, kwargs, result):
        tracer.exact_inputs.append(args[:3])

    def approx_result(args, kwargs, result):
        diags = getattr(result, "diagnostics", None)
        tracer.calibrated.append(bool(getattr(diags, "calibrated", False)))

    def solve_result(args, kwargs, result):
        starts = kwargs.get("starts")
        default = getattr(scaling, "default_start_count", None)
        if starts is None and default is not None and args:
            starts = default(args[0].U.dim)
        tracer.solves.append((starts or 0, len(result)))

    tracer.wrap(cli, "load_matrix", "matrixio.load")
    tracer.wrap(cli, "amplitude_exact", "exact.amplitude", exact_input)
    tracer.wrap(cli, "classical_probability", "exact.classical")
    tracer.wrap(cli, "amplitude_approx", "saddle.approx", approx_result)
    tracer.wrap(cli, "classical_probability_approx", "saddle.classical_approx")
    tracer.wrap(saddle, "select_contributing", "saddle.select")
    tracer.wrap(saddle, "_calibrate_signs", "saddle.calibrate")
    tracer.wrap(saddle, "amplitude_exact", "saddle.calibration_exact")
    tracer.wrap(saddle, "solve_all_saddles", "scaling.solve", solve_result)
    tracer.wrap(saddle, "sinkhorn_scale_classical", "scaling.sinkhorn")


def exact_stats(inputs):
    """Replay the CLI's exact calls for the engine's own counters.

    Returns terms, rescue share, max digits, mean passes and the time of the
    float64 pass alone.  All read zero if the package no longer offers
    permanent_ryser_repeated_with_stats or RepeatedMatrixSpec.
    """
    from bosonic_saddle import exact

    out = {"terms": 0, "rescue_share": 0.0, "dps_max": 0, "passes_mean": 0.0, "float_s": 0.0}
    stats_fn = getattr(exact, "permanent_ryser_repeated_with_stats", None)
    spec_cls = getattr(exact, "RepeatedMatrixSpec", None)
    if stats_fn is None or spec_cls is None or not inputs:
        return out
    rescued = passes = 0
    for U, n, m in inputs:
        spec = spec_cls(U, n, m)
        _, stats = stats_fn(spec)
        start = time.perf_counter()
        stats_fn(spec, precision="double")
        out["float_s"] += time.perf_counter() - start
        out["terms"] += stats.terms
        out["dps_max"] = max(out["dps_max"], stats.dps_used)
        rescued += stats.dps_used > 0
        passes += stats.passes
    out["rescue_share"] = rescued / len(inputs)
    out["passes_mean"] = passes / len(inputs)
    return out
