"""Shared fixtures: tiny hand-built designs, random-graph helpers, verdicts.

Acceptance tests append one PASS/FAIL line per criterion to VERDICTS; the
terminal-summary hook prints them after capture ends so they are visible in
every pytest run.
"""

from __future__ import annotations

import numpy as np
import pytest

from giftplace import (
    Design,
    Region,
    SparseSymMatrix,
)
from giftplace.graph import _incidence, _self_loops


def make_design(names, nets, region: Region, sizes=(1.0, 1.0), pads=None) -> Design:
    """Build a Design from plain lists; construction validates it.

    ``names`` is a list of cell names, or a count for cells c0, c1, ...
    ``nets`` lists each net's pins; a pin is a cell id or (cell, dx, dy).
    ``sizes`` is one (width, height) for every cell, or one per cell.
    ``pads`` maps fixed cell ids to their centers.
    """
    names = [f"c{i}" for i in range(names)] if isinstance(names, int) else list(names)
    wh = np.broadcast_to(np.asarray(sizes, dtype=float), (len(names), 2))
    fixed_xy = np.full((len(names), 2), np.nan)
    for cell, xy in (pads or {}).items():
        fixed_xy[cell] = xy
    pins = [p if isinstance(p, tuple) else (p, 0.0, 0.0) for net in nets for p in net]
    return Design(
        names=names,
        widths=wh[:, 0],
        heights=wh[:, 1],
        fixed_xy=fixed_xy,
        net_names=[f"n{j}" for j in range(len(nets))],
        net_start=np.cumsum([0] + [len(net) for net in nets]),
        pin_cell=[p[0] for p in pins],
        pin_dx=[p[1] for p in pins],
        pin_dy=[p[2] for p in pins],
        region=region,
    )


@pytest.fixture
def tri_design() -> Design:
    """Three movable unit cells joined by one 3-pin net, plus a 2-pin net."""
    return make_design(["a", "b", "c"], [[0, 1, 2], [0, 1]], Region(0.0, 0.0, 10.0, 10.0))


@pytest.fixture
def anchored_design() -> Design:
    """Two movable cells between two fixed pads on a 12x4 strip."""
    return make_design(
        ["p_left", "m0", "m1", "p_right"],
        [[0, 1], [1, 2], [2, 3]],
        Region(0.0, 0.0, 12.0, 4.0),
        pads={0: (1.0, 2.0), 3: (11.0, 2.0)},
    )


def from_coo(n: int, rows, cols, vals) -> SparseSymMatrix:
    """The operator of a symmetric matrix given as coordinate triplets: each edge i < j a 2-pin net of weight a_ij.

    Only the i < j and i == j entries are read. Duplicates are summed in input
    order, the edges numbered in (row, col) order, and an edge whose sum is
    zero dropped; the i == j entries sum to the diagonal.
    """
    rows, cols, vals = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64), np.asarray(vals, dtype=float)
    upper, loop = rows < cols, rows == cols
    keys, edge = np.unique(rows[upper] * n + cols[upper], return_inverse=True)
    sums = np.bincount(edge, vals[upper], minlength=keys.size).astype(float)  # bincount of nothing is int64
    kept = sums != 0
    i, j = np.divmod(keys[kept], n)
    w = sums[kept]
    incidence = _incidence(np.concatenate([i, j]), np.tile(np.arange(w.size), 2), n, w.size)
    diag = np.bincount(rows[loop], vals[loop], minlength=n)
    return SparseSymMatrix(incidence, w, diag - _self_loops(incidence, w))


def random_triplets(n: int, rng: np.random.Generator) -> tuple[list, list, list]:
    """Symmetric triplets of a random spanning tree plus extra edges, positive random weights."""
    rows, cols, vals = [], [], []
    order = rng.permutation(n)
    for i in range(1, n):
        a = order[i]
        b = order[rng.integers(0, i)]
        rows += [a, b]
        cols += [b, a]
        w = float(rng.uniform(0.1, 2.0))
        vals += [w, w]
    extra = max(n // 2, 1)
    for _ in range(extra):
        a, b = rng.integers(0, n, size=2)
        if a == b:
            continue
        w = float(rng.uniform(0.1, 2.0))
        rows += [int(a), int(b)]
        cols += [int(b), int(a)]
        vals += [w, w]
    return rows, cols, vals


def random_connected_graph(n: int, rng: np.random.Generator) -> SparseSymMatrix:
    """The operator of ``random_triplets``' graph."""
    return from_coo(n, *random_triplets(n, rng))


@pytest.fixture
def graph_rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if VERDICTS:
        terminalreporter.section("acceptance verdicts")
        for line in VERDICTS:
            terminalreporter.write_line(line)
