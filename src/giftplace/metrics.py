"""Placement quality measures.

Two wirelength views (quadratic/graph form and HPWL over pin positions), the
Rayleigh smoothness quotient, and exact-overlap bin density with an overflow
summary. The density map distributes each cell's clipped rectangle area over
the bins it overlaps, so total mass is conserved exactly.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, GiftPlaceError, ZeroSignalError
from .graph import SparseSymMatrix, laplacian
from .netlist import Design

log = logging.getLogger(__name__)

MAX_BINS = 2048  # per-axis bin count ceiling, for requested and default grids alike


@dataclass
class GridConfig:
    """Bin-grid request; density_map fills an unset nx/ny from default_bins."""

    nx: int | None = None
    ny: int | None = None
    rho_t: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.rho_t <= 1.0:
            raise ValueError(f"rho_t must be in (0, 1], got {self.rho_t}")
        if any(n is not None and not 1 <= n <= MAX_BINS for n in (self.nx, self.ny)):
            raise ValueError(f"bin counts must be >= 1 and <= {MAX_BINS}, got {self.nx}x{self.ny}")

    def resolved(self, design: Design) -> GridConfig:
        """This grid with the bin counts it leaves unset taken from ``default_bins``."""
        dx, dy = (self.nx, self.ny) if self.nx and self.ny else default_bins(design)
        return GridConfig(self.nx or dx, self.ny or dy, self.rho_t)


def _average_cell(design: Design) -> tuple[float, float]:
    """Width and height of the average movable cell (of every cell if none moves; 1 x 1 without cells)."""
    cells = ~design.fixed if design.num_movable else design.fixed
    return (float(design.widths[cells].mean()), float(design.heights[cells].mean())) if cells.any() else (1.0, 1.0)


def default_bins(design: Design) -> tuple[int, int]:
    """Bins the size of the average movable cell (of every cell if none moves), 4 to ``MAX_BINS`` per axis.

    The placer stops on overflow over these bins, and ``metrics`` measures it
    on them. Bins no larger than the cells guarantee every cell straddles bin
    boundaries, so the overlap gradient never vanishes over an interval; and
    because the placer's per-iteration displacement cap is one bin width, bins
    as large as the cells maximize transport speed.
    """
    sizes = zip((design.region.width, design.region.height), _average_cell(design))
    return tuple(int(np.clip(round(extent / max(avg, 1e-9)), 4, MAX_BINS)) for extent, avg in sizes)


@dataclass
class DensityGrid:
    nx: int
    ny: int
    bin_w: float
    bin_h: float
    rho: np.ndarray  # (nx, ny) occupied area per bin
    rho_t: float
    # _bin_overlaps' arrays when density_map built the grid: the field gradient reuses them
    overlaps: list[tuple[np.ndarray, ...]] | None = field(default=None, repr=False, compare=False)

    @property
    def bin_area(self) -> float:
        return self.bin_w * self.bin_h


def quadratic_wirelength(adj: SparseSymMatrix, g: np.ndarray) -> float:
    """S(g) = sum_ij w_ij * ((x_i-x_j)^2 + (y_i-y_j)^2) over unordered pairs, as trace(g^T L g)."""
    g = np.asarray(g, dtype=float)
    if g.shape[0] != adj.n:
        raise DimensionMismatchError(f"placement has {g.shape[0]} rows, graph has {adj.n} nodes")
    if adj.nnz == 0:
        return 0.0
    g = g - g.mean(axis=0)  # L 1 = 0, so centering changes only the rounding: a constant g gives exactly 0
    return float(np.sum(g * laplacian(adj).matmul(g)))


def rayleigh_smoothness(laplacian: SparseSymMatrix, column: np.ndarray, center: bool = True) -> float:
    """R(g) = g^T L g / g^T g, after mean-centering by default.

    Centering removes the huge constant (region-center) component so values
    are comparable across designs; pass center=False to evaluate raw vectors
    such as eigenvectors.
    """
    col = np.asarray(column, dtype=float).ravel()
    if col.shape[0] != laplacian.n:
        raise DimensionMismatchError(f"signal has {col.shape[0]} rows, Laplacian has {laplacian.n}")
    if center and col.size:  # an empty signal is zero: the mean of nothing would warn
        col = col - col.mean()
    denom = float(col @ col)
    if denom <= 1e-30:
        raise ZeroSignalError("signal is zero (or constant, after centering)")
    return float(col @ laplacian.matmul(col)) / denom


def hpwl(design: Design, g: np.ndarray) -> float:
    """Half-perimeter wirelength over pin positions (cell center + pin offset)."""
    layout, sums = design.pin_layout, []
    for blk, _ in layout.slabs(layout.positions(g)):  # each call on both axes; a 2-pin net's span takes its first slot
        span = (np.abs(np.subtract(blk[:, 0], blk[:, 1], out=blk[:, 0]), out=blk[:, 0]) if blk.shape[1] == 2
                else blk.max(1) - blk.min(1))
        sums.append(span.sum(1))
    return layout.total(sums)


def density_map(design: Design, g: np.ndarray, grid: GridConfig | None = None) -> DensityGrid:
    """Exact-overlap occupancy of each bin by cell rectangles clipped to the region."""
    cfg = (grid or GridConfig()).resolved(design)
    nx, ny = cfg.nx, cfg.ny
    bin_w = design.region.width / nx
    bin_h = design.region.height / ny
    overlaps = _bin_overlaps(design, g, nx, ny, bin_w, bin_h)
    rho = np.zeros(nx * ny)
    for _, bins, lx, ly, _, _ in overlaps:
        rho += np.bincount(bins, lx * ly, minlength=nx * ny)
    rho = rho.reshape(nx, ny)
    return DensityGrid(nx=nx, ny=ny, bin_w=bin_w, bin_h=bin_h, rho=rho, rho_t=cfg.rho_t, overlaps=overlaps)


class _Axes:
    """Every cell's region-clipped interval and the bins it spans, on both axes at once, as (2, N) arrays."""

    def __init__(self, design: Design, g: np.ndarray, nx: int, ny: int, bin_w: float, bin_h: float):
        r = design.region
        self.start, self.end = np.array([[r.xmin], [r.ymin]]), np.array([[r.xmax], [r.ymax]])
        self.width, count = np.array([[bin_w], [bin_h]]), np.array([[nx], [ny]])
        self.lo = np.clip(g.T - design.half_sizes, self.start, self.end)
        self.hi = np.clip(g.T + design.half_sizes, self.start, self.end)
        self.lo_free, self.hi_free = self.lo > self.start, self.hi < self.end  # edges the region clip does not hold
        self.first = np.clip(np.floor((self.lo - self.start) / self.width).astype(np.int64), 0, count - 1)
        last = np.clip(np.ceil((self.hi - self.start) / self.width).astype(np.int64) - 1, 0, count - 1)
        self.span = np.maximum(last, self.first) - self.first

    def lengths(self, b: np.ndarray, bs: np.ndarray, be: np.ndarray, keep, cells=slice(None)):
        """Bin ``b`` (edges ``bs``, ``be``), the overlap of ``cells`` with it, zero off ``keep``, and its derivative."""
        lo, hi = self.lo[:, cells], self.hi[:, cells]
        ell = np.minimum(hi, be)
        ell -= np.maximum(lo, bs)
        ell = np.where(keep, np.maximum(ell, 0.0, out=ell), 0.0)
        # an edge moves the overlap at rate 1 while strictly inside the bin, unless the region clip holds it
        d_ell = ((hi < be) & self.hi_free[:, cells]).view(np.int8) - ((lo > bs) & self.lo_free[:, cells]).view(np.int8)
        return b, ell, np.where(ell > 0.0, d_ell, 0.0)

    def narrow(self, keep: np.ndarray):
        """``lengths`` at offsets 0 and 1 from every cell's first bin, with ``keep``, computing each bin edge once.

        Bin f + 1 starts at bin f's end edge. Offset 1 of a one-bin cell is left out: that bin can still clip a
        floating-point sliver.
        """
        first = self.first.astype(float)
        s0, s1, s2 = (self.start + (first + k) * self.width for k in (0, 1, 2))
        wider = self.span > 0
        return [self.lengths(self.first, s0, s1, keep), self.lengths(self.first + wider, s1, s2, keep & wider)]


def _bin_overlaps(design: Design, g: np.ndarray, nx: int, ny: int, bin_w: float, bin_h: float):
    """Each cell's overlap with each bin it covers, as a list of groups ``(cells, bins, lx, ly, dlx, dly)``.

    In a group, the area of cell ``cells[k]`` in bin ``bins[k]`` (flat index
    ``bx * ny + by``) is ``lx[k] * ly[k]``; ``dlx``/``dly`` are the
    derivatives of the lengths in the cell's x and y. Cells within two bins on
    both axes come as four corner-offset groups over every cell in order, with
    ``cells`` None and zero lengths for the wider cells; those, if any, come
    as a fifth group of their flattened per-cell outer products, so the work is
    the number of cells plus the bins the wide cells overlap.
    """
    axes = _Axes(design, np.asarray(g, dtype=float), nx, ny, bin_w, bin_h)
    valid = np.all(axes.hi > axes.lo, axis=0)
    narrow = np.all(axes.span <= 1, axis=0)

    offsets = axes.narrow(narrow)  # a cell clipped to nothing has zero length anyway
    groups = [(None, bx[0] * ny + by[1], lx[0], ly[1], dlx[0], dly[1]) for bx, lx, dlx in offsets for by, ly, dly in offsets]

    wide = np.flatnonzero(valid & ~narrow)
    if not wide.size:
        return groups
    cols = axes.span[1, wide] + 1
    counts = (axes.span[0, wide] + 1) * cols
    cells = np.repeat(wide, counts)
    k = np.arange(cells.size) - np.repeat(np.cumsum(counts) - counts, counts)  # index in the cell's outer product
    cols = np.repeat(cols, counts)
    b = axes.first[:, cells] + np.stack([k // cols, k % cols])
    b, ell, d_ell = axes.lengths(b, axes.start + b * axes.width, axes.start + (b + 1) * axes.width, True, cells)
    groups.append((cells, b[0] * ny + b[1], ell[0], ell[1], d_ell[0], d_ell[1]))
    return groups


def _field_weighted_grad(design: Design, dens: DensityGrid, bin_field: np.ndarray) -> np.ndarray:
    """sum_b field_b * d(overlap area of cell i with bin b)/d(x_i, y_i); fixed cells get zero rows.

    The overlaps are the ones ``density_map`` kept on ``dens``.
    """
    n = design.num_cells
    gx, gy = np.zeros(n), np.zeros(n)
    for cells, bins, lx, ly, dlx, dly in dens.overlaps:
        f = np.take(bin_field, bins)
        wx, wy = f * dlx * ly, f * lx * dly
        # a narrow group has one entry per cell, in cell order
        gx += wx if cells is None else np.bincount(cells, wx, minlength=n)
        gy += wy if cells is None else np.bincount(cells, wy, minlength=n)
    grad = np.column_stack([gx, gy])
    grad[design.fixed] = 0.0
    return grad


def overflow(grid: DensityGrid) -> float:
    """Fraction of placed area exceeding per-bin capacity rho_t * bin_area."""
    total = float(grid.rho.sum())
    if total <= 0:
        return 0.0
    excess = np.maximum(0.0, grid.rho - grid.rho_t * grid.bin_area)
    return float(excess.sum()) / total


def max_bin_density(grid: DensityGrid) -> float:
    """Peak bin utilization (occupied area / bin area)."""
    return float(grid.rho.max()) / grid.bin_area if grid.rho.size else 0.0


def report(design: Design, adj: SparseSymMatrix, g: np.ndarray, grid: GridConfig | None = None) -> dict:
    """Summary metrics as a JSON-ready dict; the Rayleigh quotients use the Laplacian of ``adj``.

    Raises GiftPlaceError naming the first metric that is not finite, as
    coordinates far outside any region make them.
    """
    lap = laplacian(adj)

    def _rayleigh(col: np.ndarray) -> float | None:
        try:
            return rayleigh_smoothness(lap, col)
        except ZeroSignalError:
            return None

    with np.errstate(all="ignore"):  # overflow shows up as a non-finite metric below
        dens = density_map(design, g, grid)
        rep = {
            "hpwl": hpwl(design, g),
            "quadratic_wl": quadratic_wirelength(adj, g),
            "rayleigh_x": _rayleigh(g[:, 0]),
            "rayleigh_y": _rayleigh(g[:, 1]),
            "overflow": overflow(dens),
            "max_bin_density": max_bin_density(dens),
        }
    for name, value in rep.items():
        if value is not None and not math.isfinite(value):
            raise GiftPlaceError(f"metric {name} is not finite ({value}); the placement is out of numeric range")
    return rep
