"""Benchmark suites: build networks, verify them, report depth vs bound.

Rows come in suite-definition order, one after another, so the CSV is
byte-identical across runs with the same seed.  Wall time is
shown in the text table only; it can never be byte-stable.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import dataclass

from . import constructions as cons
from .errors import ParameterError
from .graphs import generate
from .verify import verify_auto

CSV_COLUMNS = ["suite", "family", "construction", "n", "achieved_depth",
               "certificate_bound", "method", "verdict", "seed"]

PYRAMID_NOTE = ("pyramid certificates use the product mesh sorter, an extra "
                "log factor over the original mesh-sorter bound")


@dataclass(frozen=True)
class BenchRow:
    suite: str
    family: str
    construction: str
    n: int
    achieved_depth: int
    certificate_bound: int
    method: str
    verdict: str
    seed: int
    wall_time: float

    def csv_values(self) -> list:
        return [getattr(self, c) for c in CSV_COLUMNS]


def _run_row(args) -> BenchRow:
    suite, construction, spec, seed = args
    t0 = time.perf_counter()
    net = cons.BUILDERS[construction](generate(spec))
    report = verify_auto(net)
    wall = time.perf_counter() - t0
    cert = net.certificate or {}
    return BenchRow(
        suite=suite,
        family=spec,
        construction=construction,
        n=net.graph.n,
        achieved_depth=net.depth,
        certificate_bound=cert.get("claimed_bound", net.depth),
        method=report.method,
        verdict="pass" if report.passed else "fail",
        seed=seed,
        wall_time=wall,
    )


def _suite_specs(suite: str, seed: int) -> list[tuple[str, str, str, int]]:
    if suite == "paths":
        return [("paths", "odd_even", f"path:{n}", seed) for n in (4, 8, 16)]
    if suite == "trees":
        rows = [("trees", "contour", f"random_tree:{n},{seed + i}", seed)
                for i, n in enumerate((8, 10, 12))]
        rows.append(("trees", "contour", "star:8", seed))
        rows.append(("trees", "longest_path", f"random_tree:12,{seed}", seed))
        return rows
    if suite == "meshes":
        return [("meshes", "product", "mesh:2,4", seed),
                ("meshes", "product", "mesh:4,4", seed),
                ("meshes", "longest_path", "mesh:3,3", seed)]
    if suite == "hypercubes":
        return [("hypercubes", "bitonic", f"hypercube:{d}", seed)
                for d in (1, 2, 3, 4)]
    if suite == "multipartite":
        return [("multipartite", "simulate_complete", "multipartite:2,2", seed),
                ("multipartite", "simulate_complete", "multipartite:3,2", seed),
                ("multipartite", "simulate_complete", "multipartite:2,4", seed),
                ("multipartite", "batcher", "complete:8", seed)]
    if suite == "pyramids":
        return [("pyramids", "pyramid", "pyramid:2,1", seed),
                ("pyramids", "pyramid", "pyramid:2,2", seed),
                ("pyramids", "pyramid", "pyramid:3,1", seed),
                ("pyramids", "pyramid", "pyramid:4,1", seed)]
    raise ParameterError(f"unknown suite {suite!r}")


SUITES = ["paths", "trees", "meshes", "hypercubes", "multipartite", "pyramids"]


def run_suite(suite: str, seed: int = 0) -> list[BenchRow]:
    names = SUITES if suite == "all" else [suite]
    return [_run_row(spec) for name in names
            for spec in _suite_specs(name, seed)]


def rows_to_csv(rows: list[BenchRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow(row.csv_values())
    return buf.getvalue()


def rows_to_table(rows: list[BenchRow], seed: int = 0) -> str:
    headers = CSV_COLUMNS + ["wall_time"]
    cells = [[str(v) for v in row.csv_values()] + [f"{row.wall_time:.3f}s"]
             for row in rows]
    widths = [max(len(h), *(len(c[i]) for c in cells)) if cells else len(h)
              for i, h in enumerate(headers)]
    def fmt(vals):
        return "  ".join(v.ljust(w) for v, w in zip(vals, widths)).rstrip()
    lines = [f"seed: {seed}", fmt(headers), fmt(["-" * w for w in widths])]
    lines += [fmt(c) for c in cells]
    if any(r.construction == "pyramid" for r in rows):
        lines.append(f"note: {PYRAMID_NOTE}")
    return "\n".join(lines) + "\n"
