"""Dense spectral toolkit for small graphs.

Used for verification (tying the sparse filter back to its frequency-domain
definition) and the eigenvector placement baseline. Everything densifies,
so all entry points are guarded to modest n.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import DegenerateSpectrumWarning
from .graph import DENSE_LIMIT, SparseSymMatrix
from .netlist import Region

DEGENERACY_TOL = 1e-9


def eigendecompose(mat: SparseSymMatrix, limit: int = DENSE_LIMIT) -> tuple[np.ndarray, np.ndarray]:
    """Full dense eigensystem ``(lambdas, U)``: eigenvalues ascending, orthonormal eigenvectors as U's columns."""
    lambdas, u = np.linalg.eigh(mat.to_dense(limit))
    return lambdas, u


def eigenvector_placement(lambdas: np.ndarray, U: np.ndarray, region: Region | None = None) -> np.ndarray:
    """Baseline placement from the 2nd and 3rd smallest eigenvectors.

    x = u2, y = u3, each affinely rescaled into the region when one is given.
    Warns (DegenerateSpectrumWarning) when lambda_3 is numerically zero, i.e.
    the graph has 3+ connected components and the columns carry no ordering
    information.
    """
    if lambdas.size < 3:
        raise ValueError(f"need at least 3 nodes, got {lambdas.size}")
    if lambdas[2] <= DEGENERACY_TOL:
        warnings.warn(
            "second/third eigenvalues are numerically zero (disconnected graph); "
            "eigenvector placement is degenerate",
            DegenerateSpectrumWarning,
            stacklevel=2,
        )
    g = np.column_stack([U[:, 1], U[:, 2]])
    if region is None:
        return g
    lo, hi = np.array([region.xmin, region.ymin]), np.array([region.xmax, region.ymax])
    gmin, span = g.min(axis=0), np.ptp(g, axis=0)
    spread = span > 0  # an axis of one value goes to the region's middle
    return np.where(spread, lo + (g - gmin) * (hi - lo) / np.where(spread, span, 1.0), 0.5 * (lo + hi))


def filter_response(k: int, lambdas: np.ndarray) -> np.ndarray:
    """Response h = (1 - lambda)^k of the k-th filter power at each supplied eigenvalue of I - A_sigma."""
    if k < 1:
        raise ValueError(f"power k must be >= 1, got {k}")
    return (1.0 - np.asarray(lambdas, dtype=float)) ** k


def taylor_gap(lam: float) -> float:
    """|1/(1+lambda) - (1-lambda)| = lambda^2/(1+lambda), the linearization error."""
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    return abs(1.0 / (1.0 + lam) - (1.0 - lam))
