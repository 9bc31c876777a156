"""Synthetic Bookshelf benchmark generator.

Produces desk-scale designs with a known-good structure: a grid "mesh" of
2-pin nets over unit movable cells (guaranteeing connectivity), a configurable
dose of random higher-fanout nets, and fixed IO terminals on the region
periphery, each tied to a cell from the matching side of the logical grid so
that good placements have a geometric meaning.
"""

from __future__ import annotations

import bisect
import logging
import math

import numpy as np

from .netlist import Design, Names, Region, Row

log = logging.getLogger(__name__)

DEFAULT_FANOUT: dict[int, float] = {2: 0.35, 3: 0.25, 4: 0.15, 5: 0.10, 6: 0.08, 7: 0.05, 8: 0.02}
MAX_SIDE = 2**16  # most region rows (and sites per row) generate builds


def generate(
    cells: int,
    rows: int | None = None,
    cols: int | None = None,
    fanout: dict[int, float] | None = None,
    io_count: int | None = None,
    long_range_fraction: float = 0.15,
    utilization: float = 0.70,
    seed: int = 0,
) -> Design:
    """Build an in-memory synthetic design with ``cells`` movable unit cells."""
    if cells < 4:
        raise ValueError(f"need at least 4 cells, got {cells}")
    if not 0.0 < utilization <= 1.0:
        raise ValueError(f"utilization must be in (0, 1], got {utilization}")
    if not 0.0 <= long_range_fraction <= 1.0:
        raise ValueError(f"long_range_fraction must be in [0, 1], got {long_range_fraction}")
    for name, value, least in (("rows", rows, 1), ("cols", cols, 1), ("io_count", io_count, 0), ("seed", seed, 0)):
        if value is not None and value < least:
            raise ValueError(f"{name} must be >= {least}, got {value}")
    rng = np.random.default_rng(seed)

    cols = math.ceil(math.sqrt(cells)) if cols is None else cols
    rows = math.ceil(cells / cols) if rows is None else rows
    if rows * cols < cells:
        raise ValueError(f"{rows} rows x {cols} cols cannot hold {cells} cells")
    fanout = fanout or DEFAULT_FANOUT
    if any(d < 2 for d in fanout):
        raise ValueError("fanout degrees must be >= 2")

    side = math.sqrt(cells / utilization)
    if side > MAX_SIDE:  # also an infinite side, which ceil cannot take
        raise ValueError(f"utilization {utilization} needs more than {MAX_SIDE} rows for {cells} cells")
    side = math.ceil(side)
    half = side / 2.0
    region = Region.of_rows([Row(y=-half + r, height=1.0, x=-half, num_sites=side) for r in range(side)])

    # mesh: right and up neighbors on the logical grid, in cell order
    ids = np.arange(cells)
    mesh = np.stack([ids, ids + 1, ids, ids + cols], axis=1).reshape(cells, 2, 2)
    keep = np.stack([(ids % cols + 1 < cols) & (ids + 1 < cells), ids + cols < cells], axis=1)
    mesh = mesh[keep]

    # random long-range nets with the requested fanout profile
    degrees = np.array(sorted(fanout), dtype=np.int64)
    weights = np.array([fanout[int(d)] for d in degrees], dtype=float)
    with np.errstate(over="ignore"):  # a sum beyond the floats is refused below, with no warning first
        total = weights.sum()
    if not (np.isfinite(weights).all() and (weights >= 0).all() and 0 < total < math.inf):
        raise ValueError(f"fanout weights must be finite and >= 0 with a positive, finite sum, got {fanout}")
    # rng.choice(degrees, p=weights) would build this table on every call and search it for one rng.random(): the
    # same stream, with the table built once and searched by bisect as searchsorted(side="right") searches it
    cdf = (weights / total).cumsum()
    cdf, capped = (cdf / cdf[-1]).tolist(), np.minimum(degrees, cells).tolist()
    n_long = int(round(long_range_fraction * cells))
    long_nets = []
    for _ in range(n_long):
        long_nets.append(rng.choice(cells, size=capped[bisect.bisect_right(cdf, rng.random())], replace=False))

    # IO terminals on the periphery, attached to the matching grid side
    n_io = io_count if io_count is not None else max(4, int(round(2 * math.sqrt(cells))))
    grid_c = ids % cols
    grid_r = ids // cols
    side_cells = {
        "bottom": np.flatnonzero(grid_r <= max(rows // 3, 0)),
        "right": np.flatnonzero(grid_c >= cols - 1 - cols // 3),
        "top": np.flatnonzero(grid_r >= rows - 1 - rows // 3),
        "left": np.flatnonzero(grid_c <= max(cols // 3, 0)),
    }
    perimeter = 4.0 * side
    fixed_xy = np.full((cells + n_io, 2), np.nan)
    io_nets = np.empty((n_io, 2), dtype=np.int64)
    for j in range(n_io):
        t = (j + 0.5) * perimeter / n_io
        x, y, side_name = _ring_point(t, side, half)
        fixed_xy[cells + j] = (x, y)
        candidates = side_cells[side_name]
        target = int(rng.choice(candidates)) if candidates.size else int(rng.integers(cells))
        io_nets[j] = (target, cells + j)

    pin_cell = np.concatenate([mesh.ravel(), *long_nets, io_nets.ravel()])
    net_degrees = np.concatenate([np.full(len(mesh), 2), [len(n) for n in long_nets], np.full(n_io, 2)])
    return Design(
        names=Names.of([f"c{i}" for i in range(cells)] + [f"io{j}" for j in range(n_io)]),  # each list freed once joined
        widths=np.ones(cells + n_io),
        heights=np.ones(cells + n_io),
        fixed_xy=fixed_xy,
        net_names=Names.of([f"n{j}" for j in range(net_degrees.size)]),
        net_start=np.concatenate(([0], np.cumsum(net_degrees))),
        pin_cell=pin_cell,
        pin_dx=np.zeros(pin_cell.size),
        pin_dy=np.zeros(pin_cell.size),
        region=region,
    )


def _ring_point(t: float, side: int, half: float) -> tuple[float, float, str]:
    """Map arclength t along the region boundary to an inset pad center."""
    inset = 0.5  # pad centers half a unit inside the region
    if t < side:
        return -half + t, -half + inset, "bottom"
    t -= side
    if t < side:
        return half - inset, -half + t, "right"
    t -= side
    if t < side:
        return half - t, half - inset, "top"
    t -= side
    return -half + inset, half - t, "left"
