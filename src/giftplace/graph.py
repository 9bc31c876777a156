"""Clique-model circuit graph and derived sparse operators.

The clique graph is A = B W B^T - diag(B W B^T), where B is the cells x nets
pin-count incidence matrix and W = diag(2/M) over nets of M pins: the clique
expansion written through the star expansion (Agarwal et al., ICML 2006). Every
operator is held as factors S (B W B^T + C) S, C and S diagonal, so a product
costs O(pins) however large the nets, and the cells x cells matrix is never built.
A product is two ``np.bincount`` sums; only ``to_dense`` imports scipy.

The central object for filtering is the augmented normalized adjacency

    A_sigma = (D + sigma*I)^(-1/2) (A + sigma*I) (D + sigma*I)^(-1/2),

whose powers act as low-pass filters on placement signals.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    IsolatedNodeError,
    TooLargeForDenseError,
)
from .netlist import Design

log = logging.getLogger(__name__)

DENSE_LIMIT = 2000  # max n for dense conversions / eigendecompositions


@dataclass(frozen=True)
class FilterTerm:
    """One alpha * (A_sigma)^k term of the multi-frequency filter."""

    sigma: float
    k: int
    alpha: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.k < 1:
            raise ValueError(f"power k must be >= 1, got {self.k}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")


def _incidence(cells: np.ndarray, nets: np.ndarray, n: int, e: int) -> tuple:
    """B's CSR (values, indices, indptr) in scipy's dtypes, each entry's cell and net, and the counts unless all are 1.

    Entries run in (cell, net) order, repeated pins merged into counts, so adding terms by cell or by net in entry
    order sums as scipy's csr_matvec and csc_matvec do: the products are bit-identical to scipy's.
    """
    keys, counts = np.unique(np.multiply(cells, e, dtype=np.int64) + nets, return_counts=True)
    rows, nets = np.divmod(keys, e)
    index = np.int32 if max(cells.size, n, e) < 2**31 else np.int64
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))]).astype(index)
    return counts.astype(float), nets.astype(index), indptr, rows, nets, counts if keys.size < cells.size else None


def _sum(keys: np.ndarray, terms: np.ndarray, counts: np.ndarray | None, size: int) -> np.ndarray:
    """``terms * counts`` added into ``size`` bins in array order; float even with no terms, where bincount gives ints."""
    return np.bincount(keys, terms if counts is None else terms * counts, minlength=size).astype(float, copy=False)


def _self_loops(incidence: tuple, weights: np.ndarray) -> np.ndarray:
    """diag(B W B^T), each row summed in net order as the sparse product sums it."""
    values, _, indptr, rows, nets, counts = incidence
    return _sum(rows, values * weights[nets], counts, indptr.size - 1)


class SparseSymMatrix:
    """The symmetric operator S (B W B^T + C) S, held as its factors; immutable by convention.

    B = ``incidence`` is the cells x nets pin counts as numpy CSR arrays, no
    scipy matrix (see ``_incidence``), W = diag(weights), C = diag(diag) and
    S = diag(scale). ``values``, ``indices``, ``indptr`` and ``nnz`` are B's.
    """

    def __init__(self, incidence: tuple, weights: np.ndarray, diag: np.ndarray, scale: np.ndarray | None = None):
        self.incidence, self.weights, self.diag = incidence, weights, diag
        self.values, self.indices, self.indptr, self.rows, self.nets, self.counts = incidence
        self.n, self.nnz = self.indptr.size - 1, self.values.size
        self.scale = np.ones(self.n) if scale is None else scale

    @cached_property
    def degrees(self) -> np.ndarray:
        """Row sums; for the clique graph B(w * M) + c in closed form, M being the pin counts."""
        return self._apply(np.ones(self.n))

    def _apply(self, g: np.ndarray) -> np.ndarray:
        if g.ndim > 1:  # a column at a time: numpy broadcasts an (n, 1) scale over (n, 2) rows slowly
            return np.column_stack([self._apply(col) for col in g.T])
        sg = g * self.scale
        net_sums = self.weights * _sum(self.nets, sg[self.rows], self.counts, self.weights.size)
        out = _sum(self.rows, net_sums[self.nets], self.counts, self.n)
        out += self.diag * sg
        out *= self.scale
        return out

    def matmul(self, g: np.ndarray) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        if g.shape[0] != self.n:
            raise DimensionMismatchError(f"signal has {g.shape[0]} rows, operator expects {self.n}")
        return self._apply(g)

    def to_dense(self, limit: int = DENSE_LIMIT) -> np.ndarray:
        """The n x n matrix, from the sparse product B W B^T; mirrored from its upper triangle, so exactly symmetric."""
        if self.n > limit:
            raise TooLargeForDenseError(self.n, limit)
        import scipy.sparse as sp  # here, not at module load: only the <= DENSE_LIMIT spectral paths densify
        b, s = sp.csr_matrix((self.values, self.indices, self.indptr), shape=(self.n, self.weights.size)), self.scale
        weighted = sp.csr_matrix((b.data * self.weights[b.indices], b.indices, b.indptr), shape=b.shape)
        dense = np.triu((weighted @ b.T).toarray(), 1)
        dense *= s[:, None]
        dense *= s
        dense += dense.T
        np.fill_diagonal(dense, (_self_loops(self.incidence, self.weights) + self.diag) * s * s)
        return dense

    def __repr__(self) -> str:
        return f"SparseSymMatrix(n={self.n}, nnz={self.nnz})"


def build_clique_graph(design: Design, max_clique_pins: int | None = None) -> SparseSymMatrix:
    """Expand every net into a clique with edge weight 2/M (M = pin count).

    Weights of nets sharing a cell pair add up in net order; pins of a net on
    the same cell make no edge, since C = -diag(B W B^T). Nets under 2 pins are
    ignored; nets above ``max_clique_pins`` (if set) are skipped, and their
    count is logged. B holds only the kept nets, in net order.
    """
    net_start, pin_cell = design.net_start, design.pin_cell
    degree = np.diff(net_start)
    expand = degree >= 2
    if max_clique_pins is not None:
        over = expand & (degree > max_clique_pins)
        if over.any():
            log.info("clique expansion skipped %d nets with more than %d pins", over.sum(), max_clique_pins)
        expand &= ~over
    kept = degree[expand]
    nets = np.repeat(np.arange(kept.size), kept)
    incidence = _incidence(pin_cell[np.repeat(expand, degree)], nets, design.num_cells, kept.size)
    weights = 2.0 / kept
    return SparseSymMatrix(incidence, weights, -_self_loops(incidence, weights))


def laplacian(adj: SparseSymMatrix) -> SparseSymMatrix:
    """Combinatorial Laplacian L = D - A = S (-B W B^T + D S^-2 - C) S."""
    s = adj.scale
    return SparseSymMatrix(adj.incidence, -adj.weights, adj.degrees / (s * s) - adj.diag, s)


def normalized_augmented_adjacency(adj: SparseSymMatrix, sigma: float) -> SparseSymMatrix:
    """(D+sigma*I)^(-1/2) (A+sigma*I) (D+sigma*I)^(-1/2).

    With sigma = 0 this is the normalized adjacency; isolated nodes are then an
    error. The result shares A's incidence and weights, with sigma folded into
    its diagonal; it is symmetric and has spectral radius <= 1.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    deg = adj.degrees
    if sigma == 0:
        isolated = np.flatnonzero(deg <= 0)
        if isolated.size:
            raise IsolatedNodeError(int(isolated[0]))
    s = adj.scale
    return SparseSymMatrix(adj.incidence, adj.weights, adj.diag + sigma / (s * s), s / np.sqrt(deg + sigma))


def identity_minus(op: SparseSymMatrix) -> SparseSymMatrix:
    """I - op = S (-B W B^T + S^-2 - C) S; for op = A_sigma this is the (augmented) normalized Laplacian."""
    s = op.scale
    return SparseSymMatrix(op.incidence, -op.weights, 1.0 / (s * s) - op.diag, s)
