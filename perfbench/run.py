"""matchnet benchmark: one workload per run, in one process, no threads.

    python3 perfbench/run.py --workload route --seed 1 --seconds 35 --trace 0

Workloads (see workloads.py): `route` (generate, route_auto, plan JSON
round trip), `build_verify` (build a network, JSON round trip, verify it)
and `oracle` (sandwich_check and the exact st / rt / rt_p BFS oracles).

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` passes alternate untraced and traced, and it holds the
per-layer metrics, the layer self times and the tracing overhead. Times
are calibrated (see measure.py). `ok_frac` is the share of op runs that
passed their checks, 1 - fail_frac, so that no metric reads 0 when all is
well. The line before the metrics reports the output digest, fail_frac,
the tail percentile and its sample count, the raw wall-time figures and
the environment. The full record, with every op's times, is written to
perfbench/out/, and the spans of a traced run as JSON lines beside it.

The library is imported from the `src/` directory next to this one; the
run stops with an error when that is missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads: no threads

import measure  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # check a claimed gain here too; never tune on it
SETUP_REPEATS = 5


def load_matchnet():
    """Import matchnet afresh from SRC, dropping any earlier import."""
    if not (SRC / "matchnet" / "__init__.py").is_file():
        raise SystemExit(f"error: no matchnet sources at {SRC}")
    for name in [m for m in sys.modules
                 if m == "matchnet" or m.startswith("matchnet.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("matchnet")
    if Path(lib.__file__).resolve().parent != (SRC / "matchnet").resolve():
        raise SystemExit(f"error: matchnet imported from {lib.__file__}")
    return lib


def setup(workload: str, seed: int):
    """Import and build the inputs SETUP_REPEATS times; keep the last.

    Returns the ops and the median calibrated and wall set-up times.
    """
    walls, times = [], []
    for _ in range(SETUP_REPEATS):
        ops, wall, seconds = measure.calibrated(
            lambda: workloads.make_ops(workload, load_matchnet(), seed))
        walls.append(wall)
        times.append(seconds)
    return ops, statistics.median(times), statistics.median(walls)


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "numpy": measure.np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "loadavg": os.getloadavg(), "seed": seed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        epilog=f"default seed {DEFAULT_SEED}, held-out seed {HELD_OUT_SEED}")
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    env = environment(args.seed)  # load average before the run adds to it
    ops, setup_s, setup_wall = setup(args.workload, args.seed)
    passes, modes, tracer = measure.timed_passes(ops, args.seconds,
                                                 bool(args.trace))
    if args.trace:
        metrics, facts = measure.per_layer(passes, modes, tracer)
    else:
        metrics, facts = measure.end_to_end(passes)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
        facts["wall"]["setup_s"] = setup_wall
    attempted = sum(len(p) for p in passes)
    failures = sorted({f"{ops[i].name}: {r.error}" for p in passes
                       for i, r in enumerate(p) if r.error is not None})
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "digest": measure.digest(passes[0]),
               "ops": len(ops), **facts, "env": env, "failures": failures}
    result = {"correct": not failures, "attempted": attempted,
              "failed": sum(r.error is not None for p in passes for r in p),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = [[op.name, [[r.wall, r.seconds] for r in rs]]
               for op, rs in zip(ops, zip(*passes))]
    stem.with_suffix(".json").write_text(json.dumps(
        {**summary, **result, "samples": samples}, indent=1) + "\n")
    if tracer is not None:
        with open(f"{stem}.spans.jsonl", "w") as f:
            for s in tracer.spans:
                f.write(json.dumps(s) + "\n")
    for f in failures:
        print("FAILED", f, file=sys.stderr)
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
