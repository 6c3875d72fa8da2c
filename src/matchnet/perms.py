"""Permutations as 1-based tuples: p[v-1] is the image of vertex v."""

from __future__ import annotations

from typing import Sequence

from .errors import TaskError


def identity(n: int) -> tuple:
    return tuple(range(1, n + 1))


def check_permutation(p: Sequence[int], n: int) -> tuple:
    """p as a tuple; like vertex ids, its entries must be plain ints."""
    p = tuple(p)
    if len(p) != n or not {int}.issuperset(map(type, p)) \
            or sorted(p) != list(range(1, n + 1)):
        raise TaskError(f"not a permutation of 1..{n}: {p}")
    return p


def inverse(p: Sequence[int]) -> tuple:
    inv = [0] * len(p)
    for v, img in enumerate(p, start=1):
        inv[img - 1] = v
    return tuple(inv)


def compose(p2: Sequence[int], p1: Sequence[int]) -> tuple:
    """Apply p1 first, then p2."""
    return tuple(p2[p1[v - 1] - 1] for v in range(1, len(p1) + 1))


def cycles(p: Sequence[int]) -> list[list[int]]:
    """Cycle decomposition; fixed points omitted, each cycle starts at its
    smallest element, cycles sorted by that element."""
    n = len(p)
    seen = [False] * n
    out = []
    for v in range(1, n + 1):
        if seen[v - 1] or p[v - 1] == v:
            seen[v - 1] = True
            continue
        cyc = []
        w = v
        while not seen[w - 1]:
            seen[w - 1] = True
            cyc.append(w)
            w = p[w - 1]
        out.append(cyc)
    return out


def random_permutation(n: int, rng) -> tuple:
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return tuple(vals)


def all_permutations(n: int):
    import itertools

    return itertools.permutations(range(1, n + 1))
