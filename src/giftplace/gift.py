"""Multi-frequency graph-filter placement initialization.

The filter is a fixed, parameter-free combination of powered augmented
normalized adjacencies applied to a noisy center-seeded placement signal:

    g' = 0.1 * A_2^2 g  +  0.7 * A_4^2 g  +  0.2 * A_4^4 g.

Terms sharing a sigma reuse the same operator; powers are built incrementally
so each extra power costs one sparse product per signal column.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, GiftPlaceError
from .graph import FilterTerm, SparseSymMatrix, normalized_augmented_adjacency
from .netlist import Design

log = logging.getLogger(__name__)

DEFAULT_TERMS: tuple[FilterTerm, ...] = (
    FilterTerm(sigma=2.0, k=2, alpha=0.1),
    FilterTerm(sigma=4.0, k=2, alpha=0.7),
    FilterTerm(sigma=4.0, k=4, alpha=0.2),
)


JITTER_REGION_FRACTION = 0.25  # auto jitter_scale as a fraction of min region dimension
MAX_PRODUCTS = 1000  # sparse products per signal column (per sigma its largest k, summed); the paper's terms take 6


@dataclass
class GiftConfig:
    terms: tuple[FilterTerm, ...] = DEFAULT_TERMS
    seed: int = 0
    jitter_scale: float | None = None  # None = JITTER_REGION_FRACTION * min region dim

    def __post_init__(self) -> None:
        self.terms = tuple(self.terms)
        if not self.terms:
            raise ValueError("filter needs at least one term")
        if (products := sum({t.sigma: t.k for t in sorted(self.terms, key=lambda t: t.k)}.values())) > MAX_PRODUCTS:
            raise ValueError(f"the filter terms take {products} sparse products per signal column, more than {MAX_PRODUCTS}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.jitter_scale is not None and not 0.0 <= self.jitter_scale < math.inf:
            raise ValueError(f"jitter_scale must be finite and >= 0, got {self.jitter_scale}")


def _jitter_scale(design: Design, config: GiftConfig) -> float:
    if config.jitter_scale is not None:
        return config.jitter_scale
    return JITTER_REGION_FRACTION * min(design.region.width, design.region.height)


def initial_signal(design: Design, config: GiftConfig) -> np.ndarray:
    """Movable cells at region center + N(0,1)*jitter_scale; fixed cells pinned.

    The default jitter scale is a fixed fraction of the region size, so the
    seed cloud spans the die regardless of its units and the filter has room
    to contract it toward the fixed anchors. Deterministic given the seed:
    noise is drawn for every cell id in order, then fixed rows are
    overwritten, so the movable jitter does not depend on which cells happen
    to be fixed.
    """
    rng = np.random.default_rng(config.seed)
    g = np.tile(design.region.center, (design.num_cells, 1))
    g += rng.standard_normal((design.num_cells, 2)) * _jitter_scale(design, config)
    g[design.fixed] = design.fixed_xy[design.fixed]
    return g


def gift_filter(adj: SparseSymMatrix, g: np.ndarray, config: GiftConfig | None = None) -> np.ndarray:
    """Apply sum(alpha * A_sigma^k) to each column of g.

    Linear in g; no clamping or fixed-cell handling here.
    """
    config = config or GiftConfig()
    g = np.asarray(g, dtype=float)
    if g.shape[0] != adj.n:
        raise DimensionMismatchError(f"signal has {g.shape[0]} rows, graph has {adj.n} nodes")
    out = np.zeros_like(g)
    by_sigma: dict[float, list[FilterTerm]] = {}
    for term in config.terms:
        by_sigma.setdefault(term.sigma, []).append(term)
    for sigma, terms in by_sigma.items():
        op = normalized_augmented_adjacency(adj, sigma)
        power = g
        done = 0
        for term in sorted(terms, key=lambda t: t.k):
            for _ in range(term.k - done):
                power = op.matmul(power)
            done = term.k
            out += term.alpha * power
    return out


def gift_place(design: Design, adj: SparseSymMatrix, config: GiftConfig | None = None) -> np.ndarray:
    """Full initialization: seed signal, filter, clamp each cell into its legal box.

    Raises GiftPlaceError when the filter's result is not finite, as a jitter or term weights out of range make it.
    """
    config = config or GiftConfig()
    with np.errstate(all="ignore"):  # overflow shows up as a non-finite result below
        out = gift_filter(adj, initial_signal(design, config), config)
    if not np.isfinite(out).all():
        raise GiftPlaceError("the filtered placement is not finite; the jitter or filter weights are out of range")
    return np.clip(out, *design.bounds, out=out)
