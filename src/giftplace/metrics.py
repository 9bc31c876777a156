"""Placement quality measures.

Two wirelength views (quadratic/graph form and HPWL over pin positions), the
Rayleigh smoothness quotient, and exact-overlap bin density with an overflow
summary. The density map distributes each cell's clipped rectangle area over
the bins it overlaps, so total mass is conserved exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ZeroSignalError
from .graph import SparseSymMatrix
from .netlist import Design

log = logging.getLogger(__name__)


@dataclass
class GridConfig:
    """Bin-grid request; nx/ny default per design (see default_bins)."""

    nx: int | None = None
    ny: int | None = None
    rho_t: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.rho_t <= 1.0:
            raise ValueError(f"rho_t must be in (0, 1], got {self.rho_t}")
        if (self.nx is not None and self.nx < 1) or (self.ny is not None and self.ny < 1):
            raise ValueError(f"bin counts must be >= 1, got {self.nx}x{self.ny}")


def default_bins(design: Design) -> tuple[int, int]:
    """128x128, or bins of ~8x the average cell dimension — whichever is coarser."""
    w, h = design.widths, design.heights
    aw = float(w.mean()) if w.size else 1.0
    ah = float(h.mean()) if h.size else 1.0
    nx = max(1, min(128, int(design.region.width / (8.0 * aw))))
    ny = max(1, min(128, int(design.region.height / (8.0 * ah))))
    return nx, ny


@dataclass
class DensityGrid:
    nx: int
    ny: int
    bin_w: float
    bin_h: float
    rho: np.ndarray  # (nx, ny) occupied area per bin
    rho_t: float
    xmin: float
    ymin: float

    @property
    def bin_area(self) -> float:
        return self.bin_w * self.bin_h


def quadratic_wirelength(adj: SparseSymMatrix, g: np.ndarray) -> float:
    """S(g) = sum_ij w_ij * ((x_i-x_j)^2 + (y_i-y_j)^2) over unordered pairs."""
    g = np.asarray(g, dtype=float)
    if g.shape[0] != adj.n:
        raise DimensionMismatchError(f"placement has {g.shape[0]} rows, graph has {adj.n} nodes")
    if adj.nnz == 0:
        return 0.0
    rows = np.repeat(np.arange(adj.n), np.diff(adj.indptr))
    cols = adj.indices
    diff = g[rows] - g[cols]
    # each unordered pair is stored twice in the symmetric CSR
    return 0.5 * float(np.sum(adj.values * np.sum(diff * diff, axis=1)))


def rayleigh_smoothness(laplacian: SparseSymMatrix, column: np.ndarray, center: bool = True) -> float:
    """R(g) = g^T L g / g^T g, after mean-centering by default.

    Centering removes the huge constant (region-center) component so values
    are comparable across designs; pass center=False to evaluate raw vectors
    such as eigenvectors.
    """
    col = np.asarray(column, dtype=float).ravel()
    if col.shape[0] != laplacian.n:
        raise DimensionMismatchError(f"signal has {col.shape[0]} rows, Laplacian has {laplacian.n}")
    if center:
        col = col - col.mean()
    denom = float(col @ col)
    if denom <= 1e-30:
        raise ZeroSignalError("signal is zero (or constant, after centering)")
    return float(col @ laplacian.matmul(col)) / denom


def hpwl(design: Design, g: np.ndarray) -> float:
    """Half-perimeter wirelength over pin positions (cell center + pin offset)."""
    g = np.asarray(g, dtype=float)
    net_start, pin_cell, pin_dx, pin_dy = design.net_start, design.pin_cell, design.pin_dx, design.pin_dy
    if pin_cell.size == 0:
        return 0.0
    degrees = np.diff(net_start)
    starts = net_start[:-1][degrees > 0]
    if starts.size == 0:
        return 0.0
    px = g[pin_cell, 0] + pin_dx
    py = g[pin_cell, 1] + pin_dy
    total = 0.0
    for coords in (px, py):
        hi = np.maximum.reduceat(coords, starts)
        lo = np.minimum.reduceat(coords, starts)
        total += float(np.sum(hi - lo))
    return total


def density_map(design: Design, g: np.ndarray, grid: GridConfig | None = None) -> DensityGrid:
    """Exact-overlap occupancy of each bin by cell rectangles clipped to the region."""
    cfg = grid or GridConfig()
    nx, ny = cfg.nx, cfg.ny
    if nx is None or ny is None:
        dx, dy = default_bins(design)
        nx = nx or dx
        ny = ny or dy
    region = design.region
    bin_w = region.width / nx
    bin_h = region.height / ny
    rho = np.zeros((nx, ny))
    g = np.asarray(g, dtype=float)
    w, h = design.widths, design.heights

    x0 = np.clip(g[:, 0] - w / 2.0, region.xmin, region.xmax)
    x1 = np.clip(g[:, 0] + w / 2.0, region.xmin, region.xmax)
    y0 = np.clip(g[:, 1] - h / 2.0, region.ymin, region.ymax)
    y1 = np.clip(g[:, 1] + h / 2.0, region.ymin, region.ymax)
    valid = (x1 > x0) & (y1 > y0)

    ix0, ix1 = _bin_span(x0, x1, region.xmin, bin_w, nx)
    iy0, iy1 = _bin_span(y0, y1, region.ymin, bin_h, ny)
    fast = valid & (ix1 - ix0 <= 1) & (iy1 - iy0 <= 1)

    if fast.any():
        f = np.flatnonzero(fast)
        lxa = np.minimum(x1[f], region.xmin + (ix0[f] + 1) * bin_w) - x0[f]
        lxb = np.where(ix1[f] > ix0[f], x1[f] - (region.xmin + ix1[f] * bin_w), 0.0)
        lya = np.minimum(y1[f], region.ymin + (iy0[f] + 1) * bin_h) - y0[f]
        lyb = np.where(iy1[f] > iy0[f], y1[f] - (region.ymin + iy1[f] * bin_h), 0.0)
        np.add.at(rho, (ix0[f], iy0[f]), lxa * lya)
        np.add.at(rho, (ix0[f], iy1[f]), lxa * lyb)
        np.add.at(rho, (ix1[f], iy0[f]), lxb * lya)
        np.add.at(rho, (ix1[f], iy1[f]), lxb * lyb)

    for i in np.flatnonzero(valid & ~fast):
        bx = region.xmin + np.arange(ix0[i], ix1[i] + 2) * bin_w
        by = region.ymin + np.arange(iy0[i], iy1[i] + 2) * bin_h
        lx = np.minimum(x1[i], bx[1:]) - np.maximum(x0[i], bx[:-1])
        ly = np.minimum(y1[i], by[1:]) - np.maximum(y0[i], by[:-1])
        rho[ix0[i]:ix1[i] + 1, iy0[i]:iy1[i] + 1] += np.outer(np.maximum(lx, 0.0), np.maximum(ly, 0.0))

    return DensityGrid(
        nx=nx, ny=ny, bin_w=bin_w, bin_h=bin_h, rho=rho, rho_t=cfg.rho_t,
        xmin=region.xmin, ymin=region.ymin,
    )


def _bin_span(lo: np.ndarray, hi: np.ndarray, origin: float, width: float, count: int):
    """First and last bin index overlapped by each [lo, hi] interval."""
    first = np.clip(np.floor((lo - origin) / width).astype(np.int64), 0, count - 1)
    last = np.clip(np.ceil((hi - origin) / width).astype(np.int64) - 1, 0, count - 1)
    last = np.maximum(last, first)
    return first, last


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


def report(
    design: Design,
    adj: SparseSymMatrix,
    laplacian: SparseSymMatrix,
    g: np.ndarray,
    grid: GridConfig | None = None,
) -> dict:
    """Summary metrics as a JSON-ready dict."""
    dens = density_map(design, g, grid)

    def _rayleigh(col: np.ndarray) -> float | None:
        try:
            return rayleigh_smoothness(laplacian, col)
        except ZeroSignalError:
            return None

    return {
        "hpwl": hpwl(design, g),
        "quadratic_wl": quadratic_wirelength(adj, g),
        "rayleigh_x": _rayleigh(g[:, 0]),
        "rayleigh_y": _rayleigh(g[:, 1]),
        "overflow": overflow(dens),
        "max_bin_density": max_bin_density(dens),
    }
