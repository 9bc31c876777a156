"""Dense spectral toolkit for small graphs.

Used for verification (tying the sparse filter back to its frequency-domain
definition) and the eigenvector placement baseline. Everything densifies,
so all entry points are guarded to modest n.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSpectrumWarning
from .graph import DENSE_LIMIT, SparseSymMatrix
from .netlist import Region

DEGENERACY_TOL = 1e-9


@dataclass
class SpectralBasis:
    """Ascending eigenvalues and orthonormal eigenvectors (columns of U)."""

    lambdas: np.ndarray
    U: np.ndarray

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]


@dataclass
class FilterResponse:
    """Sampled response curve h(lambda) with a label for plotting."""

    samples: list[tuple[float, float]]
    label: str

    def write_csv(self, path: str) -> None:
        with open(path, "w") as f:
            f.write("lambda,h\n")
            for lam, h in self.samples:
                f.write(f"{lam:.10g},{h:.10g}\n")


def eigendecompose(mat: SparseSymMatrix, limit: int = DENSE_LIMIT) -> SpectralBasis:
    """Full dense eigensystem, eigenvalues ascending."""
    lambdas, u = np.linalg.eigh(mat.to_dense(limit))
    return SpectralBasis(lambdas=lambdas, U=u)


def eigenvector_placement(basis: SpectralBasis, region: Region | None = None) -> np.ndarray:
    """Baseline placement from the 2nd and 3rd smallest eigenvectors.

    x = u2, y = u3, each affinely rescaled into the region when one is given.
    Warns (DegenerateSpectrumWarning) when lambda_3 is numerically zero, i.e.
    the graph has 3+ connected components and the columns carry no ordering
    information.
    """
    if basis.n < 3:
        raise ValueError(f"need at least 3 nodes, got {basis.n}")
    if basis.lambdas[2] <= DEGENERACY_TOL:
        warnings.warn(
            "second/third eigenvalues are numerically zero (disconnected graph); "
            "eigenvector placement is degenerate",
            DegenerateSpectrumWarning,
            stacklevel=2,
        )
    g = np.column_stack([basis.U[:, 1], basis.U[:, 2]])
    if region is None:
        return g
    return _rescale_to(g, region)


def _rescale_to(g: np.ndarray, region: Region) -> np.ndarray:
    out = np.empty_like(g)
    for axis, (lo, hi) in enumerate(((region.xmin, region.xmax), (region.ymin, region.ymax))):
        col = g[:, axis]
        span = col.max() - col.min()
        if span <= 0:
            out[:, axis] = 0.5 * (lo + hi)
        else:
            out[:, axis] = lo + (col - col.min()) * (hi - lo) / span
    return out


def filter_response(sigma: float, k: int, lambdas: np.ndarray) -> FilterResponse:
    """Response (1 - lambda)^k at each supplied eigenvalue of I - A_sigma."""
    if k < 1:
        raise ValueError(f"power k must be >= 1, got {k}")
    lams = np.asarray(lambdas, dtype=float)
    samples = [(float(lam), float((1.0 - lam) ** k)) for lam in lams]
    return FilterResponse(samples=samples, label=f"sigma={sigma:g},k={k}")


def taylor_gap(lam: float) -> float:
    """|1/(1+lambda) - (1-lambda)| = lambda^2/(1+lambda), the linearization error."""
    if lam < 0:
        raise ValueError(f"lambda must be >= 0, got {lam}")
    return abs(1.0 / (1.0 + lam) - (1.0 - lam))
