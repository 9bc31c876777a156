"""Exception types shared across the toolkit.

Parse errors carry enough context (file, line number, offending text) to be
actionable from the command line.
"""

from __future__ import annotations


class GiftPlaceError(Exception):
    """Base class for all toolkit errors."""


class MissingFileError(GiftPlaceError):
    """A file referenced by the design manifest does not exist."""

    def __init__(self, path: str) -> None:
        super().__init__(f"missing input file: {path}")
        self.path = path


class MalformedLineError(GiftPlaceError):
    """A line in a design file could not be interpreted."""

    def __init__(self, path: str, lineno: int, line: str, reason: str) -> None:
        super().__init__(f"{path}:{lineno}: {reason}: {line.strip()!r}")
        self.path = path
        self.lineno = lineno
        self.line = line
        self.reason = reason


class DanglingPinError(GiftPlaceError):
    """A net pin references a cell name that was never declared."""

    def __init__(self, path: str, lineno: int, cell_name: str) -> None:
        super().__init__(f"{path}:{lineno}: pin references undeclared cell {cell_name!r}")
        self.cell_name = cell_name


class DuplicateCellError(GiftPlaceError):
    """The same cell name was declared twice."""

    def __init__(self, path: str, lineno: int, cell_name: str) -> None:
        super().__init__(f"{path}:{lineno}: duplicate cell name {cell_name!r}")
        self.cell_name = cell_name


class IsolatedNodeError(GiftPlaceError):
    """Normalization with sigma = 0 hit a zero-degree node."""

    def __init__(self, node: int) -> None:
        super().__init__(
            f"node {node} has degree 0; normalization with sigma=0 is undefined "
            "(use sigma > 0 to absorb isolated nodes)"
        )
        self.node = node


class DimensionMismatchError(GiftPlaceError):
    """Operator and signal shapes disagree."""


class TooLargeForDenseError(GiftPlaceError):
    """Dense spectral routines are guarded to small node counts."""

    def __init__(self, n: int, limit: int) -> None:
        super().__init__(f"matrix with n={n} exceeds the dense guard (n <= {limit})")
        self.n = n
        self.limit = limit


class ZeroSignalError(GiftPlaceError):
    """Rayleigh quotient of an (effectively) all-zero signal."""


class DivergenceError(GiftPlaceError):
    """The placer objective became NaN/Inf, as a placer option near the float range makes it."""


class DegenerateSpectrumWarning(UserWarning):
    """Spectral placement on a graph with several zero eigenvalues."""
