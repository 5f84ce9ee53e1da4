"""Run one workload: untraced for the end-to-end metrics, or traced for the
per-layer metrics.

An untraced run sets up `setup_reps` times and reports the median, then runs
operations in a closed loop (one at a time) until `seconds` have passed and
at least `min_ops` have run, and reports the median throughput over them.
A traced run records the spans of one set-up and of operation 0, and times
operation 0 with and without spans; every pass must produce the same bytes.
"""
from __future__ import annotations

import resource
import statistics
import sys
import time

from .layers import install, layer_metrics
from .spans import Tracer


class Tally:
    """Attempted and failed operations and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {name}", file=sys.stderr)

    def op(self, fn, *args):
        """Run one operation and its checks; None if it raised."""
        self.attempted += 1
        try:
            result = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        for name, ok in result.checks:
            self.check(name, ok)
        return result


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def run_untraced(workload, inputs, seconds: float, tally: Tally):
    """End-to-end metrics, the medians of the workload's named timings, and
    the number of operations."""
    setup_walls = []
    for _ in range(workload.setup_reps):
        ctx, wall = _timed(workload.setup, inputs)
        setup_walls.append(wall)
    ops = []
    start = time.perf_counter()
    i = 0
    while i < workload.min_ops or time.perf_counter() - start < seconds:
        op = tally.op(workload.op, inputs, ctx, i)
        if op is not None:
            ops.append(op)
        i += 1
    for name, ok in workload.run_checks(inputs):
        tally.check(name, ok)
    if not ops:
        raise RuntimeError("no operation completed")
    metrics = {
        "setup_s": statistics.median(setup_walls),
        "words_per_s": statistics.median(op.items / op.wall for op in ops),
        "peak_rss_mb": peak_rss_mb(),
    }
    named = {key: statistics.median(op.named[key] for op in ops) for key in ops[0].named}
    return metrics, named, len(ops)


def _op0(workload, inputs, ctx, tally: Tally, tracer):
    """Operation 0, with spans when a tracer is given: (op, wall seconds)."""
    if tracer is None:
        return _timed(tally.op, workload.op, inputs, ctx, 0)
    with tracer:
        install(tracer)
        return _timed(tally.op, workload.op, inputs, ctx, 0)


def run_traced(workload, inputs, seconds: float, tally: Tally) -> dict:
    """Per-layer metrics of one traced set-up plus operation 0.

    Operation 0 then runs in untraced/traced pairs, in alternating order,
    until `seconds` have passed (at least one pair); trace.overhead_frac is
    the median over the pairs of traced wall / untraced wall - 1. Every
    pass must produce the same bytes as the first untraced one.
    """
    ctx = workload.setup(inputs)
    tracer = Tracer()
    with tracer:
        install(tracer)
        workload.setup(inputs)
    reference = None
    ratios = []
    start = time.perf_counter()
    while not ratios or time.perf_counter() - start < seconds:
        # only the first pair's traced pass adds to the reported spans
        pair_tracer = tracer if not ratios else Tracer()
        order = (None, pair_tracer) if len(ratios) % 2 == 0 else (pair_tracer, None)
        walls = {}
        for pass_tracer in order:
            kind = "plain" if pass_tracer is None else "traced"
            op, walls[kind] = _op0(workload, inputs, ctx, tally, pass_tracer)
            if reference is None:
                reference = op
            tally.check(
                "outputs byte-identical with and without spans",
                op is not None and reference is not None and op.output == reference.output,
            )
        ratios.append(walls["traced"] / walls["plain"] - 1.0)
    for name, ok in workload.run_checks(inputs):
        tally.check(name, ok)
    return layer_metrics(tracer, statistics.median(ratios))
