"""Timed passes over a workload's ops, the tracer, and the metrics.

A run repeats passes over the whole op list, closed loop with one caller,
until its time is spent, and takes each op's time as its median over the
passes. The median and tail are taken over these per-op times, so their
sample count is the op count and does not change with machine speed.

Times are calibrated. On a shared machine the interpreter's speed drifts
by a fifth or more over tens of seconds, which no run length averages
away. So a fixed mix of interpreter, dict and numpy work, the probe, is
timed just before and just after every op, and the op's wall time is
scaled by PROBE_REF_S over the mean of the two probe times: a calibrated
second is a wall second at the speed where the probe takes PROBE_REF_S.
The raw wall-time figures are reported beside the metrics.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import statistics
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# probe work: interpreter arithmetic, dict and sort traffic, small numpy
# array ops, each about a millisecond on a 2.1 GHz Xeon VM
PROBE_LOOPS, PROBE_KEYS, PROBE_ARRAY_OPS = 14_000, 2_400, 190
PROBE_REF_S = 0.0025  # about the median probe time on that machine
MIN_PASSES = 3
TAIL_BEYOND = 10  # the tail percentile keeps this many samples above it

LAYERS = ("graphs", "routing", "constructions", "network", "verify")
# layer spans the ops record; each gives the time metric "<span>_s"
SPANS = ("graphs.generate", "routing.route", "constructions.build",
         "network.to_json", "network.from_json", "verify.exhaustive",
         "verify.zero_one", "verify.random", "verify.sandwich", "verify.st",
         "verify.rt", "verify.rt_p")
COUNTERS = ("graphs.edges", "routing.calls", "routing.swaps",
            "constructions.calls", "constructions.comparators",
            "network.stages_loaded", "network.comparators_loaded",
            "network.json_bytes", "verify.inputs_checked", "verify.cmp_evals",
            "verify.failed", "verify.st_states", "verify.rt_states")


def probe() -> float:
    """Wall time of a fixed mix of the work the workloads do: the
    machine's speed for that work now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    d = {}
    for i in range(PROBE_KEYS):
        d[i * 7919 % 100_003] = (i, s)
    s = sum(d[k][0] for k in sorted(d))
    a = np.arange(2048, dtype=np.int32)
    b = a[::-1].copy()
    for _ in range(PROBE_ARRAY_OPS):
        x, y = a.copy(), b.copy()
        np.minimum(x, y, out=a)
        np.maximum(x, y, out=b)
    return time.perf_counter() - t0


def calibrated(fn):
    """Run fn() between two probes; return (result, wall s, calibrated s)."""
    p0 = probe()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, wall * PROBE_REF_S * 2 / (p0 + probe())


class Tracer:
    """Spans kept in memory: name, start, end, parent span and op id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.passes = 0  # traced passes begun
        self.op = None  # "pass:index" of the op being run
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name, "op": self.op,
               "parent": self._open[-1] if self._open else None,
               "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._open.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict:
        """Per span: its duration minus the time its children cover."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


@dataclass
class OpResult:
    wall: float
    seconds: float  # calibrated
    error: str | None
    digest: bytes = b""  # sha256 of the op's canonical output
    depth: tuple | None = None
    counts: dict = field(default_factory=dict)


def describe(e: Exception) -> str:
    """The exception's type, the line that raised it, and its message."""
    where = traceback.extract_tb(e.__traceback__)[-1]
    return (f"{type(e).__name__} at {os.path.basename(where.filename)}:"
            f"{where.lineno}: {e}")


def run_op(op, tr, full: bool) -> OpResult:
    """Run and check one op; any exception is a failed op, not a crash."""
    def attempt():
        try:
            if tr is None:
                return op.run(None), None
            with tr.span("op"):
                return op.run(tr), None
        except Exception as e:  # the run goes on; the op counts as failed
            return None, describe(e)

    gc.collect()
    (out, error), wall, seconds = calibrated(attempt)
    if error is not None:
        return OpResult(wall, seconds, error)
    try:
        error = op.check(out, full)
        if error is not None:
            return OpResult(wall, seconds, error)
        return OpResult(wall, seconds, None,
                        hashlib.sha256(op.canon(out)).digest(), op.depth(out),
                        op.counts(out) if tr is not None else {})
    except Exception as e:  # a malformed output fails its check
        return OpResult(wall, seconds, "check: " + describe(e))


def run_pass(ops, tr=None, reference=None) -> list[OpResult]:
    """One pass over all ops. With `reference` (the first pass), outputs
    must repeat it byte for byte and only the cheap checks run."""
    results = []
    if tr is not None:
        tr.passes += 1
    for i, op in enumerate(ops):
        if tr is not None:
            tr.op = f"{tr.passes - 1}:{i}"
        r = run_op(op, tr, full=reference is None)
        if r.error is None and reference is not None \
                and r.digest != reference[i].digest:
            r.error = "output differs from the first pass"
        results.append(r)
    return results


def digest(results: list[OpResult]) -> str:
    h = hashlib.sha256()
    for r in results:
        h.update(r.digest if r.error is None else b"<failed>")
    return h.hexdigest()


def timed_passes(ops, seconds: float, traced: bool):
    """Passes until the next would end past `seconds`, and at least
    MIN_PASSES. A traced run alternates untraced and traced passes."""
    passes, modes = [], []
    tracer = Tracer() if traced else None
    start = time.perf_counter()
    while True:
        tr = tracer if traced and len(passes) % 2 == 1 else None
        passes.append(run_pass(ops, tr, passes[0] if passes else None))
        modes.append(tr is not None)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and \
                elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes, modes, tracer


def op_times(passes, attr="seconds") -> list[float]:
    """Each op's median time over the passes."""
    return [statistics.median(getattr(p[i], attr) for p in passes)
            for i in range(len(passes[0]))]


def quantile(values: list[float], p: float, grid: int = 20_000) -> float:
    """Harrell-Davis estimate of quantile p.

    A mean of the order statistics weighted by the Beta(p(n+1),
    (1-p)(n+1)) density, not the one sample at the rank: an op mix has
    gaps between groups of ops, and a single order statistic jumps across
    a gap whenever one op's time crosses its neighbour's.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    ts = [(j + 0.5) / grid for j in range(grid)]
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log1p(-t) for t in ts]
    top = max(logs)
    weights = [0.0] * n
    for t, lg in zip(ts, logs):
        weights[min(int(t * n), n - 1)] += math.exp(lg - top)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with TAIL_BEYOND
    samples above it, or the maximum when there are too few samples."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return max(values), 100.0
    p = (n - TAIL_BEYOND) / n
    return quantile(values, p), 100.0 * p


def timing(times: list[float]) -> dict:
    return {"ops_per_s": len(times) / sum(times),
            "op_p50_ms": 1000 * quantile(times, 0.5),
            "op_tail_ms": 1000 * tail(times)[0]}


def depth_ratio(results: list[OpResult]) -> float:
    pairs = [r.depth for r in results if r.depth is not None]
    bound = sum(b for _, b in pairs)
    return sum(d for d, _ in pairs) / bound if bound else 0.0


def end_to_end(passes) -> tuple[dict, dict]:
    """End-to-end metrics (bar setup_s) and the facts reported beside them."""
    times = op_times(passes)
    attempted = sum(len(p) for p in passes)
    failed = sum(r.error is not None for p in passes for r in p)
    metrics = {k: (v, "1/s" if k == "ops_per_s" else "ms")
               for k, v in timing(times).items()}
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics["ok_frac"] = (1 - failed / attempted, "frac")
    metrics["depth_ratio"] = (depth_ratio(passes[0]), "ratio")
    facts = {"op_samples": len(times), "op_tail_pct": tail(times)[1],
             "passes": len(passes), "fail_frac": failed / attempted,
             "wall": timing(op_times(passes, "wall"))}
    return metrics, facts


def per_layer(passes, modes, tracer) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run and the facts beside them.

    Span times are calibrated with the factor of the op they belong to;
    each layer time is the median over traced passes of the pass total.
    """
    traced = [p for p, t in zip(passes, modes) if t]
    plain = [p for p, t in zip(passes, modes) if not t]
    own = tracer.self_times()
    by_pass: list[dict] = [dict() for _ in traced]
    for s in tracer.spans:
        k, i = map(int, s["op"].split(":"))
        r = traced[k][i]
        scale = r.seconds / r.wall
        acc = by_pass[k].setdefault(s["name"], [0.0, 0.0])
        acc[0] += (s["end"] - s["start"]) * scale
        acc[1] += own[s["id"]] * scale
    metrics = {}
    for name in SPANS:
        metrics[name + "_s"] = (statistics.median(
            b.get(name, (0.0, 0.0))[0] for b in by_pass), "s")
    for layer in LAYERS + ("op",):
        metrics[f"{layer}.self_s"] = (statistics.median(
            sum((v[1] for n, v in b.items() if n.split(".")[0] == layer),
                0.0) for b in by_pass), "s")
    counts = {c: 0 for c in COUNTERS}
    depth = {"routing": [0, 0], "constructions": [0, 0]}
    for r in traced[0]:
        for c, v in r.counts.items():
            if c in counts:
                counts[c] += v
        for layer, acc in depth.items():
            acc[0] += r.counts.get(f"{layer}.depth", 0)
            acc[1] += r.counts.get(f"{layer}.bound", 0)
    for c, v in counts.items():
        metrics[c] = (v, "count")
    for layer, (d, b) in depth.items():
        metrics[f"{layer}.depth_over_bound"] = (d / b if b else 0.0, "ratio")
    sim_s = sum(metrics[m][0] for m in
                ("verify.exhaustive_s", "verify.zero_one_s", "verify.random_s"))
    metrics["verify.cmp_evals_per_s"] = (
        counts["verify.cmp_evals"] / sim_s if sim_s else 0.0, "1/s")
    bfs_s = sum(metrics[m][0] for m in
                ("verify.st_s", "verify.rt_s", "verify.rt_p_s"))
    states = counts["verify.st_states"] + counts["verify.rt_states"]
    metrics["verify.states_per_s"] = (states / bfs_s if bfs_s else 0.0, "1/s")
    on = timing(op_times(traced))["ops_per_s"]
    off = timing(op_times(plain))["ops_per_s"]
    metrics["trace.ops_per_s"] = (on, "1/s")
    metrics["trace.untraced_ops_per_s"] = (off, "1/s")
    metrics["trace.overhead_frac"] = (1 - on / off, "frac")
    facts = {"traced_passes": len(traced), "untraced_passes": len(plain),
             "spans": len(tracer.spans)}
    return metrics, facts


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
