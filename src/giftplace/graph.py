"""Clique-model circuit graph and derived sparse operators.

The clique graph is A = B W B^T - diag(B W B^T), where B is the cells x nets
pin-count incidence matrix and W = diag(2/M) over nets of M pins. It is built
as that sparse product, so no per-pin-pair triplets are ever materialized.

Everything here is built on symmetric CSR matrices. The central object for
filtering is the augmented normalized adjacency

    A_sigma = (D + sigma*I)^(-1/2) (A + sigma*I) (D + sigma*I)^(-1/2),

whose powers act as low-pass filters on placement signals.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import (
    DimensionMismatchError,
    IsolatedNodeError,
    NonSymmetricError,
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


class SparseSymMatrix:
    """Symmetric sparse matrix in CSR form, immutable after construction.

    Symmetry is verified on construction; duplicates are merged and explicit
    zeros dropped.
    """

    def __init__(self, csr: sp.csr_matrix, check: bool = True):
        csr = sp.csr_matrix(csr)
        csr.sum_duplicates()
        csr.eliminate_zeros()
        if csr.shape[0] != csr.shape[1]:
            raise NonSymmetricError(f"matrix is {csr.shape[0]}x{csr.shape[1]}, not square")
        if check and csr.nnz:
            diff = (csr - csr.T).tocoo()
            scale = float(np.abs(csr.data).max())
            if diff.nnz and float(np.abs(diff.data).max()) > 1e-12 * (1.0 + scale):
                raise NonSymmetricError("matrix is not symmetric")
        self._csr = csr
        self._degrees: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self._csr.shape[0]

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    @property
    def indptr(self) -> np.ndarray:
        return self._csr.indptr

    @property
    def indices(self) -> np.ndarray:
        return self._csr.indices

    @property
    def values(self) -> np.ndarray:
        return self._csr.data

    @property
    def degrees(self) -> np.ndarray:
        """Row sums d_i = sum_j w_ij (degree vector for an adjacency matrix)."""
        if self._degrees is None:
            self._degrees = np.asarray(self._csr.sum(axis=1)).ravel()
        return self._degrees

    def matmul(self, g: np.ndarray) -> np.ndarray:
        g = np.asarray(g, dtype=float)
        if g.shape[0] != self.n:
            raise DimensionMismatchError(f"signal has {g.shape[0]} rows, operator expects {self.n}")
        return self._csr @ g

    def to_dense(self, limit: int = DENSE_LIMIT) -> np.ndarray:
        if self.n > limit:
            raise TooLargeForDenseError(self.n, limit)
        return self._csr.toarray()

    def to_scipy(self) -> sp.csr_matrix:
        return self._csr

    def __repr__(self) -> str:
        return f"SparseSymMatrix(n={self.n}, nnz={self.nnz})"


def from_coo(n: int, rows, cols, vals) -> SparseSymMatrix:
    """Build a SparseSymMatrix from coordinate triplets (duplicates summed)."""
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    return SparseSymMatrix(coo.tocsr())


def build_clique_graph(design: Design, max_clique_pins: int | None = None) -> SparseSymMatrix:
    """Expand every net into a clique with edge weight 2/M (M = pin count).

    Weights of nets sharing a cell pair add up in net order; pins of a net on
    the same cell make no edge. Nets under 2 pins are ignored; nets above
    ``max_clique_pins`` (if set) are skipped, and their count is logged. The
    result is the strict upper triangle of B W B^T plus its transpose; B keeps
    its net indices sorted, so each pair's weight is summed in net order.
    """
    net_start, pin_cell = design.net_start, design.pin_cell
    degree = np.diff(net_start)
    expand = degree >= 2
    if max_clique_pins is not None:
        over = expand & (degree > max_clique_pins)
        if over.any():
            log.info("clique expansion skipped %d nets with more than %d pins", over.sum(), max_clique_pins)
        expand &= ~over
    pins = np.repeat(expand, degree)
    nets = np.repeat(np.arange(degree.size), degree)[pins]
    incidence = sp.csr_matrix((np.ones(nets.size), (pin_cell[pins], nets)), shape=(design.num_cells, degree.size))
    # indices only name kept nets, so 2/M is never taken for M < 2
    weights = incidence.data * (2.0 / degree[incidence.indices])
    weighted = sp.csr_matrix((weights, incidence.indices, incidence.indptr), shape=incidence.shape)
    upper = sp.triu(weighted @ incidence.T, k=1, format="csr")
    return SparseSymMatrix(upper + upper.T)


def laplacian(adj: SparseSymMatrix) -> SparseSymMatrix:
    """Combinatorial Laplacian L = D - A."""
    d = sp.diags(adj.degrees, format="csr")
    return SparseSymMatrix(d - adj.to_scipy())


def normalized_augmented_adjacency(adj: SparseSymMatrix, sigma: float) -> SparseSymMatrix:
    """(D+sigma*I)^(-1/2) (A+sigma*I) (D+sigma*I)^(-1/2).

    With sigma = 0 this is the normalized adjacency; isolated nodes are then an
    error. The result is exactly symmetric (entries scaled as s_i*s_j*a_ij) and
    has spectral radius <= 1.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    deg = adj.degrees
    if sigma == 0:
        isolated = np.flatnonzero(deg <= 0)
        if isolated.size:
            raise IsolatedNodeError(int(isolated[0]))
    aug = adj.to_scipy()
    if sigma > 0:
        aug = aug + sigma * sp.identity(adj.n, format="csr")
    s = 1.0 / np.sqrt(deg + sigma)
    rows = np.repeat(np.arange(adj.n), np.diff(aug.indptr))
    data = aug.data * s[rows] * s[aug.indices]
    scaled = sp.csr_matrix((data, aug.indices.copy(), aug.indptr.copy()), shape=aug.shape)
    return SparseSymMatrix(scaled, check=False)


def identity_minus(op: SparseSymMatrix) -> SparseSymMatrix:
    """I - op; for op = A_sigma this is the (augmented) normalized Laplacian."""
    return SparseSymMatrix(sp.identity(op.n, format="csr") - op.to_scipy())
