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


def _run_row(suite: str, construction: str, spec: str, seed: int) -> BenchRow:
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


def _suite_specs(seed: int) -> dict[str, list[tuple[str, str]]]:
    """Each suite's (construction, spec) rows, suites in run order."""
    return {
        "paths": [("odd_even", f"path:{n}") for n in (4, 8, 16)],
        "trees": [("contour", f"random_tree:{n},{seed + i}")
                  for i, n in enumerate((8, 10, 12))]
                 + [("contour", "star:8"),
                    ("longest_path", f"random_tree:12,{seed}")],
        "meshes": [("product", "mesh:2,4"), ("product", "mesh:4,4"),
                   ("longest_path", "mesh:3,3")],
        "hypercubes": [("bitonic", f"hypercube:{d}") for d in (1, 2, 3, 4)],
        "multipartite": [("simulate_complete", f"multipartite:{ps}")
                         for ps in ("2,2", "3,2", "2,4")]
                        + [("batcher", "complete:8")],
        "pyramids": [("pyramid", f"pyramid:{md}")
                     for md in ("2,1", "2,2", "3,1", "4,1")],
    }


SUITES = list(_suite_specs(0))


def run_suite(suite: str, seed: int = 0) -> list[BenchRow]:
    specs = _suite_specs(seed)
    if suite != "all" and suite not in specs:
        raise ParameterError(f"unknown suite {suite!r}")
    names = SUITES if suite == "all" else [suite]
    return [_run_row(name, construction, spec, seed) for name in names
            for construction, spec in specs[name]]


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
