"""Minimal analytical global placer.

Objective: log-sum-exp smoothed HPWL plus a density spreading force, driven
by projected gradient descent with a multiplicative density-weight schedule.
This is deliberately simple — its job is producing deterministic, comparable
iteration counts for different initializations, not competing with production
placers.

The spreading force is electrostatic: bins carry charge equal to their
occupancy minus the grid average, the potential solves a Neumann Poisson
problem on the bin grid, and each cell descends its overlap-weighted
potential. Unlike a local overfill penalty — whose gradient vanishes in the
interior of a uniformly overfull cluster, so clusters can only peel from the
surface — the electrostatic field moves interior cells immediately. Iteration
counts then reflect how far an initialization is from an organized, spread
state instead of measuring pile-peeling depth.
"""

from __future__ import annotations

import functools
import logging
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DivergenceError, GiftPlaceError
from .gift import GiftConfig, initial_signal
from .metrics import DensityGrid, GridConfig, _average_cell, _field_weighted_grad, density_map, hpwl, overflow
from .netlist import Design

log = logging.getLogger(__name__)

MAX_MOVE_BINS = 1.0     # per-iteration displacement cap, in bin widths
LAMBDA_BALANCE = 1.0    # default density-weight scale relative to the wirelength force


@dataclass
class PlacerConfig:
    gamma: float | None = None          # LSE smoothing; default 1% of region width
    lambda0: float | None = None        # initial density weight; default balances the forces
    lambda_growth: float = 1.03         # per-iteration multiplier
    max_iters: int = 1000
    stop_overflow: float = 0.15
    grid: GridConfig | None = None      # unset bin counts: metrics.default_bins
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("gamma", "lambda0", "lambda_growth"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if self.lambda0 is not None and self.lambda0 < 0:
            raise ValueError("lambda0 must be >= 0")
        if self.lambda_growth < 1.0:
            raise ValueError("lambda_growth must be >= 1")
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 < self.stop_overflow < 1.0:
            raise ValueError("stop_overflow must be in (0, 1)")


class TraceRecord(NamedTuple):
    iteration: int
    wl: float
    hpwl: float
    overflow: float
    lam: float


@dataclass
class PlacerTrace:
    records: list[TraceRecord] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration if self.records else 0


@np.errstate(all="ignore")  # per call, and so on the worker thread too: overflow shows as a non-finite result
def smooth_wirelength_grad(design: Design, g: np.ndarray, gamma: float) -> tuple[float, np.ndarray]:
    """Per-net log-sum-exp HPWL surrogate and its exact gradient.

    Per net and axis: gamma*(log sum e^{x/gamma} + log sum e^{-x/gamma}),
    an upper bound on the bounding-box span that tightens as gamma -> 0.
    Fixed-cell gradient entries are zeroed.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    layout = design.pin_layout
    p, sums = layout.positions(g), []
    # one degree block at a time, each call on both axes; p's positions are used up: each slot takes its weight in place
    for blk, mask in layout.slabs(p):
        if blk.shape[1] == 2:
            # a 2-pin net at a, b: |a-b| + 2*gamma*log(1 + e^{-|a-b|/gamma}), weight tanh((a-b)/2gamma) on a; the
            # span and its exponentials take b's slots until the weights do
            d, span = np.subtract(blk[:, 0], blk[:, 1], out=blk[:, 0]), np.abs(blk[:, 0], out=blk[:, 1])
            span_sum = span.sum(1)
            soft = np.log1p(np.exp(np.divide(span, -gamma, out=span), out=span), out=span)
            sums.append(span_sum + 2.0 * gamma * soft.sum(1))
            np.negative(np.tanh(np.divide(d, 2.0 * gamma, out=d), out=d), out=blk[:, 1])
            continue
        hi, lo = blk.max(1), blk.min(1)
        # max-shifted exponentials keep everything in (0, 1]; the mask zeroes the pad slots', and so their weights.
        # e^{(x-hi)/gamma} takes the slab's own slots, e^{(lo-x)/gamma} its one temporary
        eb = np.subtract(lo[:, None], blk)
        ea = np.subtract(blk, hi[:, None], out=blk)
        for e in (ea, eb):
            np.exp(np.divide(e, gamma, out=e), out=e)
            if mask is not None:
                e *= mask
        sa, sb = ea.sum(1), eb.sum(1)
        sums.append(np.sum(hi - lo + gamma * (np.log(sa) + np.log(sb)), axis=1))
        np.subtract(np.divide(ea, sa[:, None], out=ea), np.divide(eb, sb[:, None], out=eb), out=blk)
    value = layout.total(sums)
    grad = np.column_stack([np.bincount(layout.cell, w, minlength=design.num_cells) for w in p])
    grad[design.fixed] = 0.0
    return value, grad


def _poisson_potential(q: np.ndarray, bin_w: float, bin_h: float) -> np.ndarray:
    """Solve the 5-point Neumann Poisson problem lap(phi) = -q on the bin grid.

    Neumann (mirror) boundaries diagonalize under the type-II cosine
    transform; the zero-total-charge mode is projected out. Both 2-D cosine
    transforms take one real FFT each (Makhoul, IEEE TASSP 1980).
    """
    quads, c1, c2, c3, c4 = _poisson_plan(*q.shape, bin_w, bin_h)
    u, h = np.empty(c1.shape, complex), np.empty(c1.shape, complex)
    v = u.view(float)[:, :q.shape[1]]  # q in Makhoul's order, in u's memory until u is written
    for ordered, grid in quads:
        v[ordered] = q[grid]
    np.fft.rfft2(v, out=h)
    # u = conj(c2 h + c4 h[-k1]) + c3 h[-k1] + c1 h; row 0 is its own mirror, folded into c1 and c2
    np.multiply(c2, h, out=u)
    u[1:] += c4 * h[:0:-1]
    np.conjugate(u, out=u)
    u[1:] += c3 * h[:0:-1]
    u += np.multiply(c1, h, out=h)
    w = np.fft.irfft(np.fft.ifft(u, axis=0, out=u), n=q.shape[1], axis=1, out=h.view(float)[:, :q.shape[1]])
    phi = np.empty_like(q)
    for ordered, grid in quads:
        phi[grid] = w[ordered]
    for axis in (0, 1):  # keep a mirror symmetry of q exact in phi: the step would move a symmetric pile on an ulp
        if np.array_equal(q[0], np.flip(q, axis)[0]) and np.array_equal(q, np.flip(q, axis)):
            phi = 0.5 * (phi + np.flip(phi, axis))
    return phi


@functools.lru_cache(maxsize=1)
def _poisson_plan(nx: int, ny: int, bin_w: float, bin_h: float) -> tuple:
    """One grid's constants, kept across solves: the slices of Makhoul's order (even indices, then the odd reversed),
    and coefficients that fold the twiddles e^(-i pi k / 2n) with the eigenvalues at (+-k1, +-k2)."""
    halves = [((slice(0, (n + 1) // 2), slice(0, None, 2)), (slice((n + 1) // 2, None), slice(n - 1 - n % 2, 0, -2)))
              for n in (nx, ny)]
    quads = [((a, c), (b, d)) for a, b in halves[0] for c, d in halves[1]]
    m = ny // 2 + 1
    lx, ly = ((2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / w**2 for n, w in ((nx, bin_w), (ny, bin_h)))
    mx, my = np.r_[np.inf, lx[:0:-1]][:, None], np.r_[np.inf, ly[:0:-1]][:m]  # at -k; inf drops a wrapped term
    lam = lx[:, None] + ly[:m]
    lam[0, 0] = np.inf  # the zero-total-charge mode
    r1, r2, r3, r4 = 0.25 / lam, 0.25 / (mx + ly[:m]), 0.25 / (lx[:, None] + my), 0.25 / (mx + my)
    e1, e2 = np.exp(1j * np.pi * np.arange(nx) / nx)[:, None], np.exp(-1j * np.pi * np.arange(m) / ny)
    c1, c2 = r1 + r2 + r3 + r4, (r1 - r2 - r3 + r4) * (e1.conj() * e2)
    c3, c4 = (r1 - r2 + r3 - r4) * e1, (r1 + r2 - r3 - r4) * e2
    c1[0] += c3[0].real
    c2[0] += c4[0]
    return quads, c1, c2, c3[1:], c4[1:]


def electrostatic_grad(
    design: Design, g: np.ndarray, grid: GridConfig | None = None
) -> tuple[float, np.ndarray, DensityGrid]:
    """Electrostatic spreading energy 0.5 * sum_b q_b * phi_b and its gradient.

    Bins carry charge q = occupancy - mean occupancy (signed: underfull areas
    attract), the potential solves a Neumann Poisson problem, and the exact
    position gradient is the potential-weighted overlap derivative
    d(energy)/dx_i = sum_b phi_b * d(rho_b)/dx_i, since the solve is
    self-adjoint and the potential is mean-free. The energy is nonnegative
    and zero exactly at uniform occupancy, so a uniform placement feels no
    force. Fixed cells contribute charge but receive zero gradient.
    """
    dens = density_map(design, g, grid)
    q = dens.rho - float(np.mean(dens.rho))
    phi = _poisson_potential(q, dens.bin_w, dens.bin_h)
    value = 0.5 * float(np.sum(q * phi))
    grad = _field_weighted_grad(design, dens, phi)
    dens.overlaps = None  # they served the field gradient: the grid returned holds only its map
    return value, grad, dens


def _gamma(design: Design, config: PlacerConfig) -> float:
    return config.gamma if config.gamma is not None else 0.01 * design.region.width


def balanced_lambda0(design: Design, config: PlacerConfig) -> float:
    """Density weight equalizing the two force magnitudes at a canonical state.

    The calibration state is the seeded center-cloud (the same scattered
    signal the filter pipeline starts from), NOT the placement being
    optimized: calibrating at g0 would hand different effective schedules to
    different initializations of the same design, making iteration counts
    incomparable across them — and it is degenerate at a coincident stack,
    where the wirelength gradient nearly vanishes.
    """
    cloud = initial_signal(design, GiftConfig(seed=config.seed))
    _, wl_grad = smooth_wirelength_grad(design, cloud, _gamma(design, config))
    _, d_grad, _ = electrostatic_grad(design, cloud, config.grid)
    wl_norm = float(np.abs(wl_grad).sum())
    d_norm = float(np.abs(d_grad).sum())
    if wl_norm <= 0.0 or d_norm <= 0.0:
        return LAMBDA_BALANCE
    return LAMBDA_BALANCE * wl_norm / d_norm


def run_placer(
    design: Design, g0: np.ndarray, config: PlacerConfig | None = None
) -> tuple[np.ndarray, PlacerTrace]:
    """Projected gradient descent until overflow <= stop_overflow or budget ends.

    Update: g <- clamp(g - s * grad), grad = grad_wl + lambda * grad_density, lambda growing multiplicatively, with
    the saturated per-cell step s_i = m / max(|grad_i|, rms): m is MAX_MOVE_BINS bin widths, rms the root mean square
    of |grad_i| over the movable cells. The clamp to ``design.bounds`` places fixed cells at their fixed positions.
    Raises DivergenceError when the objective stops being finite, and GiftPlaceError when no force moves a cell.
    Each iteration shares its work with one worker thread, joined before the call
    returns; the results are those of running it all in turn on one thread.
    """
    config = config or PlacerConfig()
    gamma = _gamma(design, config)

    g = np.array(g0, dtype=float)
    if g.shape != (design.num_cells, 2):
        raise ValueError(f"g0 shape {g.shape} does not match design with {design.num_cells} cells")
    if not np.all(np.isfinite(g)):
        raise DivergenceError("objective not finite at iteration 0")
    np.clip(g, *design.bounds, out=g)

    trace = PlacerTrace()
    stalled = ""
    lam = config.lambda0 if config.lambda0 is not None else balanced_lambda0(design, config)
    grid = (config.grid or GridConfig()).resolved(design)  # default_bins once per run, not per evaluation
    mag, movable = np.empty(design.num_cells), ~design.fixed
    evaluated = []  # per iteration: (iteration, wl, its queued HPWL, overflow, lambda)

    # a cell moves m * min(|grad_i| / rms, 1), not in proportion to |grad_i|: lambda grows without bound, so a move in
    # proportion to the gradient, like any constant step, would eventually overshoot
    design.pin_layout  # built before the worker shares it: cached_property takes no lock on Python 3.12+
    # overflow from an extreme option shows up as a non-finite objective below, which raises DivergenceError
    with np.errstate(all="ignore"), ThreadPoolExecutor(max_workers=1) as pool:
        for it in range(config.max_iters + 1):
            if it > 0:
                # fixed rows of grad are zero, so they neither stop the loop nor move
                np.hypot(grad[:, 0], grad[:, 1], out=mag)
                if not np.any(mag > 0):
                    if design.num_movable:
                        raise GiftPlaceError(f"zero gradient at iteration {it}: no force moves the {design.num_movable} "
                                             "movable cells from their start; start from a placement that breaks the "
                                             "symmetry, such as --init gift")
                    stalled = f"; zero gradient at iteration {it}, so no cell could move"
                    break
                ref = float(np.sqrt(np.mean(mag[movable] ** 2)))
                max_move = MAX_MOVE_BINS * min(dens.bin_w, dens.bin_h)
                step = (max_move / np.maximum(mag, ref))[:, None]
                g = g - step * grad  # a fresh array: the queued HPWL may still be reading the last one
                np.clip(g, *design.bounds, out=g)
                lam *= config.lambda_growth
            # the worker runs its queue in order: the last HPWL during the step, then the wirelength kernel beside the
            # density kernel. Joining the wirelength kernel joins the HPWL before it, so at most those two are queued
            wirelength = pool.submit(smooth_wirelength_grad, design, g, gamma)
            dens = None  # the last map goes before the next is built: one map's memory at a time
            try:
                d_val, d_grad, dens = electrostatic_grad(design, g, grid)
                ovf = overflow(dens)
            finally:
                wl_val, wl_grad = wirelength.result()  # its error surfaces first, as in sequence
            obj = wl_val + lam * d_val
            grad = wl_grad + lam * d_grad
            if not (np.isfinite(obj) and np.all(np.isfinite(grad))):
                raise DivergenceError(f"objective not finite at iteration {it}")
            evaluated.append((it, wl_val, pool.submit(hpwl, design, g), ovf, lam))
            if ovf <= config.stop_overflow:
                trace.converged = True
                break
    trace.records = [TraceRecord(it, wl, task.result(), ovf, lam) for it, wl, task, ovf, lam in evaluated]
    if not trace.converged:
        cell_w, cell_h = _average_cell(design)
        coarse = (f"; the {dens.nx}x{dens.ny} bins of {dens.bin_w:.4g} x {dens.bin_h:.4g} are larger than the average movable "
                  f"cell of {cell_w:.4g} x {cell_h:.4g}, so cells inside one bin feel no density force")
        log.warning("placer stopped after %d iterations at overflow %.4g, above the target %.4g%s%s", trace.iterations,
                    trace.records[-1].overflow, config.stop_overflow, stalled,
                    coarse if dens.bin_w > cell_w or dens.bin_h > cell_h else "")
    return g, trace
