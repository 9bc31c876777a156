"""Bookshelf-subset design model and I/O.

Supported files: .aux (manifest), .nodes, .nets, .pl, and optionally .scl.
Tokens are whitespace separated, ``#`` starts a comment, headers use
``key : value``. The exact grammar is documented in docs/bookshelf_format.md.

Coordinates are stored internally as cell CENTERS; the Bookshelf files use
lower-left corners. The conversion happens here and only here.
"""

from __future__ import annotations

import functools
import logging
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import (
    DanglingPinError,
    DuplicateCellError,
    GiftPlaceError,
    MalformedLineError,
    MissingFileError,
)

log = logging.getLogger(__name__)

PL_PRECISION = 6  # decimal digits written to .pl files


class Pin(NamedTuple):
    """One pin of the ``Design.nets`` view: cell id plus offset from its center."""

    cell: int
    dx: float
    dy: float


class Net(NamedTuple):
    """One net of the ``Design.nets`` view."""

    name: str
    pins: tuple[Pin, ...]


class PinLayout(NamedTuple):
    """The pins of every net with 2 or more pins, ordered for the wirelength kernels.

    Pins ``j`` and ``pairs + j`` are the two pins of the j-th 2-pin net. The
    pins from ``2 * pairs`` on (the tail) are those of the larger nets in net
    order; larger net j owns tail pins ``starts[j]`` up to ``starts[j + 1]``.
    """

    cell: np.ndarray        # (P,) cell id of each pin
    offset: np.ndarray      # (2, P) pin dx and dy from the cell center
    pairs: int              # number of 2-pin nets
    starts: np.ndarray      # first tail pin of each larger net
    net_of_pin: np.ndarray  # larger net of each tail pin
    net_sum: sp.csr_matrix  # larger nets x tail pins of ones: sums each net's pins

    def positions(self, g: np.ndarray):
        """Yield the pins' x, then their y: the centers ``g`` of their cells plus the offsets.

        One axis at a time keeps the temporaries small enough to reuse memory.
        """
        g = np.asarray(g, dtype=float)
        for axis in (0, 1):
            yield np.take(g[:, axis], self.cell) + self.offset[axis]


@dataclass
class Row:
    """Core row geometry from .scl; parsed but unused by the math."""

    y: float
    height: float
    x: float
    num_sites: int
    site_width: float = 1.0


@dataclass
class Region:
    xmin: float
    ymin: float
    xmax: float
    ymax: float
    rows: list[Row] = field(default_factory=list)

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.xmin + self.xmax), 0.5 * (self.ymin + self.ymax))


@dataclass(eq=False)
class Design:
    """In-memory circuit as a struct of arrays; immutable by convention.

    Cell i is row i of ``names``, ``widths``, ``heights``, ``fixed`` and
    ``fixed_xy`` (N x 2 fixed centers, NaN for movable cells). Net j is
    ``net_names[j]`` and owns the pins ``net_start[j]:net_start[j+1]`` of
    ``pin_cell``, ``pin_dx`` and ``pin_dy`` (offsets from the cell center).
    Construction coerces the arrays to their dtypes and validates them;
    ``pin_layout`` and ``bounds`` are built from them on first use and kept.
    """

    names: list[str]
    widths: np.ndarray
    heights: np.ndarray
    fixed: np.ndarray
    fixed_xy: np.ndarray
    net_names: list[str]
    net_start: np.ndarray
    pin_cell: np.ndarray
    pin_dx: np.ndarray
    pin_dy: np.ndarray
    region: Region

    def __post_init__(self) -> None:
        self.widths = np.asarray(self.widths, dtype=float)
        self.heights = np.asarray(self.heights, dtype=float)
        self.fixed = np.asarray(self.fixed, dtype=bool)
        self.fixed_xy = np.asarray(self.fixed_xy, dtype=float)
        self.net_start = np.asarray(self.net_start, dtype=np.int64)
        self.pin_cell = np.asarray(self.pin_cell, dtype=np.int64)
        self.pin_dx = np.asarray(self.pin_dx, dtype=float)
        self.pin_dy = np.asarray(self.pin_dy, dtype=float)
        self.validate()

    @property
    def num_cells(self) -> int:
        return len(self.names)

    @property
    def num_nets(self) -> int:
        return len(self.net_names)

    @property
    def num_movable(self) -> int:
        return int(np.count_nonzero(~self.fixed))

    @property
    def num_fixed(self) -> int:
        return int(np.count_nonzero(self.fixed))

    def fixed_mask(self) -> np.ndarray:
        return self.fixed

    def pin_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.net_start, self.pin_cell, self.pin_dx, self.pin_dy

    @functools.cached_property
    def pin_layout(self) -> PinLayout:
        """The pins of the nets with 2 or more pins, ordered for the wirelength kernels."""
        degree = np.diff(self.net_start)
        two = self.net_start[:-1][degree == 2]
        big = degree[degree > 2]
        order = np.concatenate([two, two + 1, np.flatnonzero(np.repeat(degree > 2, degree))])
        starts = np.concatenate([[0], np.cumsum(big)])
        net_sum = sp.csr_matrix((np.ones(starts[-1]), np.arange(starts[-1]), starts), shape=(big.size, starts[-1]))
        return PinLayout(
            cell=self.pin_cell[order],
            offset=np.stack([self.pin_dx[order], self.pin_dy[order]]),
            pairs=two.size,
            starts=starts[:-1],
            net_of_pin=np.repeat(np.arange(big.size), big),
            net_sum=net_sum,
        )

    @functools.cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Each cell center's legal box as N x 2 arrays ``(lo, hi)``: a fixed cell's
        fixed center, a movable cell's region. ``np.clip(g, *design.bounds, out=g)``
        legalizes ``g`` in place.
        """
        fixed, r = self.fixed[:, None], self.region
        return np.where(fixed, self.fixed_xy, (r.xmin, r.ymin)), np.where(fixed, self.fixed_xy, (r.xmax, r.ymax))

    @property
    def nets(self) -> list[Net]:
        """Per-net view for callers outside the pipeline, rebuilt on each access."""
        starts = self.net_start.tolist()
        pins = list(map(Pin, self.pin_cell.tolist(), self.pin_dx.tolist(), self.pin_dy.tolist()))
        return [Net(name, tuple(pins[a:b])) for name, a, b in zip(self.net_names, starts, starts[1:])]

    def validate(self) -> None:
        """Check structural invariants; raises GiftPlaceError on violation."""
        n = len(self.names)
        if not (self.widths.shape == self.heights.shape == self.fixed.shape == (n,) and self.fixed_xy.shape == (n, 2)):
            raise GiftPlaceError(f"cell arrays do not all have {n} rows, one per name")
        if not (self.net_start.shape == (len(self.net_names) + 1,) and self.pin_cell.ndim == 1
                and self.pin_cell.shape == self.pin_dx.shape == self.pin_dy.shape):
            raise GiftPlaceError("net and pin arrays have inconsistent lengths")
        if len(set(self.names)) != n:
            dup = next(name for name, count in Counter(self.names).items() if count > 1)
            raise GiftPlaceError(f"duplicate cell name {dup!r}")
        w, h = self.widths, self.heights
        bad = np.flatnonzero(~((w > 0) & (h > 0) & np.isfinite(w) & np.isfinite(h)))
        if bad.size:
            raise GiftPlaceError(f"cell {self.names[bad[0]]!r} has non-positive or non-finite dimensions")
        bad = np.flatnonzero((np.isfinite(self.fixed_xy) != self.fixed[:, None]).any(axis=1))
        if bad.size:
            raise GiftPlaceError(f"cell {self.names[bad[0]]!r}: fixed_xy must be finite exactly when fixed")
        if self.net_start[0] != 0 or self.net_start[-1] != self.pin_cell.size or np.any(np.diff(self.net_start) < 0):
            raise GiftPlaceError("net_start must rise monotonically from 0 to the pin count")
        bad = np.flatnonzero((self.pin_cell < 0) | (self.pin_cell >= n))
        if bad.size:
            net = self.net_names[np.searchsorted(self.net_start, bad[0], side="right") - 1]
            raise GiftPlaceError(f"net {net!r} pin references cell id {self.pin_cell[bad[0]]} out of range")
        r = self.region
        if not (np.isfinite([r.xmin, r.ymin, r.xmax, r.ymax]).all() and r.xmax > r.xmin and r.ymax > r.ymin):
            raise GiftPlaceError("region must be finite with positive extent")


# ---------------------------------------------------------------------------
# parsing


def _data_lines(path: str):
    """Yield (lineno, stripped line) skipping comments, blanks, UCLA headers.

    A header is a line whose first token is ``UCLA``; a cell named ``UCLAcell``
    is data.
    """
    with open(path, "r") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("UCLA") and (len(line) == 4 or line[4].isspace()):
                continue
            yield lineno, line


# The fast path reads files in the regular layout that ``write_design`` emits:
# ASCII whose only whitespace is space, tab and newline (so ``bytes`` and
# ``str`` agree on token boundaries), no comments, banner and header lines
# first, and a fixed token count per body line. It reads such a file in
# line-aligned chunks of about CHUNK_BYTES, checks every token position in
# bulk and converts numbers to exactly what the line parser's ``float``/``int``
# give. On any irregularity it returns None and the line parser reads the file
# instead; the line parser is the only source of errors and warnings. Chunks,
# not the whole file, are split, so that few token strings are alive at once.
CHUNK_BYTES = 1 << 19


def _read_regular(path: str, keys: tuple[str, ...]) -> tuple[bytes, dict[str, int], int] | None:
    """(file bytes, header counts, offset of the first body line), or None.

    The leading lines may be banners (first token ``UCLA``), blank, or
    ``Key : count`` for a key in ``keys``; the first other line starts the body.
    """
    with open(path, "rb") as f:
        data = f.read()
    byte = np.frombuffer(data, dtype=np.uint8)
    if not data.isascii() or b"#" in data or np.count_nonzero(byte < 32) != np.count_nonzero((byte == 9) | (byte == 10)):
        return None
    declared: dict[str, int] = {}
    pos = 0
    while pos < len(data):
        end = data.find(b"\n", pos)
        end = len(data) if end < 0 else end
        tokens = data[pos:end].decode("ascii").split()
        if tokens and tokens[0] != "UCLA":
            if tokens[0] not in keys:
                break
            if len(tokens) != 3 or tokens[1] != ":":
                return None
            try:
                declared[tokens[0]] = int(tokens[2])
            except ValueError:
                return None
        pos = end + 1
    return data, declared, pos


class _Chunk:
    """Line-aligned text of a regular file, split into tokens.

    ``first[i]`` and ``counts[i]`` are the index of the first token and the
    token count of the i-th nonblank line; ``colons`` are the indices of the
    ``:`` tokens, or None if a ``:`` is part of a longer token.
    """

    def __init__(self, text: bytes) -> None:
        byte = np.frombuffer(text, dtype=np.uint8)  # text ends with a newline
        space = byte <= ord(" ")
        starts = np.flatnonzero(~space & np.concatenate(([True], space[:-1])))
        before = np.searchsorted(starts, np.flatnonzero(byte == ord("\n")))  # tokens up to each line end
        counts = np.diff(before, prepend=0)
        self.first, self.counts = (before - counts)[counts > 0], counts[counts > 0]
        lead, single = byte[starts], space[starts + 1]
        self.colons = np.flatnonzero(lead == ord(":"))
        if not (single[self.colons].all() and self.colons.size == np.count_nonzero(byte == ord(":"))):
            self.colons = None
        # a one-digit token's value is its digit; other numbers go through float()/int()
        digit = lead.astype(np.int8) - ord("0")
        self._digit = np.where(single & (digit >= 0) & (digit <= 9), digit, -1)
        self.tokens = np.fromiter(text.decode("ascii").split(), dtype=object, count=starts.size)

    def pick(self, idx: np.ndarray) -> list[str]:
        return self.tokens[idx].tolist()

    def numbers(self, idx: np.ndarray, kind: type) -> np.ndarray:
        """``kind`` (float or int) of the tokens at ``idx``; raises ValueError
        on a token that is not such a number and OverflowError on an int
        beyond int64."""
        digit = self._digit[idx]
        values = digit.astype(np.int64 if kind is int else float)
        rest = np.flatnonzero(digit < 0)
        values[rest] = np.fromiter(map(kind, self.pick(idx[rest])), dtype=values.dtype, count=rest.size)
        return values


def _regular_chunks(data: bytes, pos: int, cut: bytes):
    """Yield ``data[pos:]`` as Chunks that end just before an occurrence of ``cut``."""
    while pos < len(data):
        end = data.find(cut, pos + CHUNK_BYTES)
        end = len(data) if end < 0 else end + 1
        yield _Chunk(data[pos:end] if data.endswith(b"\n", pos, end) else data[pos:end] + b"\n")
        pos = end


def _join(parts: list[np.ndarray], dtype: type) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def _ids(name_to_id: dict[str, int], names: list[str]) -> np.ndarray:
    """Cell ids of ``names``; raises KeyError on an undeclared name."""
    return np.fromiter(map(name_to_id.__getitem__, names), dtype=np.int64, count=len(names))


def _nodes_regular(path: str):
    """``_parse_nodes`` of a regular file: every body line is ``name w h [terminal]``."""
    regular = _read_regular(path, ("NumNodes", "NumTerminals"))
    if regular is None:
        return None
    data, declared, pos = regular
    names: list[str] = []
    widths, heights, fixed = [], [], []
    for chunk in _regular_chunks(data, pos, b"\n"):
        first, marked = chunk.first, chunk.counts == 4
        if not (marked | (chunk.counts == 3)).all():
            return None
        names += chunk.pick(first)
        try:
            widths.append(chunk.numbers(first + 1, float))
            heights.append(chunk.numbers(first + 2, float))
        except ValueError:
            return None
        flags = np.zeros(first.size, dtype=bool)
        flags[marked] = [t.startswith("terminal") for t in chunk.pick(first[marked] + 3)]
        fixed.append(flags)
    widths, heights = _join(widths, float), _join(heights, float)
    name_to_id = dict(zip(names, range(len(names))))
    if (
        len(name_to_id) != len(names)
        or not name_to_id.keys().isdisjoint(("UCLA", "NumNodes", "NumTerminals"))
        or not ((widths > 0) & (widths < math.inf) & (heights > 0) & (heights < math.inf)).all()
        or declared.get("NumNodes", len(names)) != len(names)
    ):
        return None
    return names, widths, heights, _join(fixed, bool), name_to_id, declared.get("NumTerminals")


def _nets_regular(path: str, name_to_id: dict[str, int]):
    """``_parse_nets`` of a regular file: ``NetDegree : k name`` lines, each
    followed by k ``cell dir : dx dy`` lines."""
    if not name_to_id.keys().isdisjoint(("UCLA", "NumNets", "NumPins", "NetDegree", ":")):
        return None
    regular = _read_regular(path, ("NumNets", "NumPins"))
    if regular is None:
        return None
    data, declared, pos = regular
    net_names: list[str] = []
    degrees, cells, dxs, dys = [], [], [], []
    for chunk in _regular_chunks(data, pos, b"\nNetDegree"):
        heads, pins = chunk.counts == 4, chunk.counts == 5
        if not (heads | pins).all() or not heads[0]:
            return None
        # the only ':' tokens are the second of a NetDegree line and the third of a pin line
        if chunk.colons is None or not np.array_equal(chunk.colons, chunk.first + np.where(heads, 1, 2)):
            return None
        hf, pf = chunk.first[heads], chunk.first[pins]
        if chunk.pick(hf).count("NetDegree") != hf.size:
            return None
        try:
            degree = chunk.numbers(hf + 2, int)
            cells.append(_ids(name_to_id, chunk.pick(pf)))
            dxs.append(chunk.numbers(pf + 3, float))
            dys.append(chunk.numbers(pf + 4, float))
        except (ValueError, OverflowError, KeyError):
            return None
        # each degree must count the pin lines up to the next NetDegree line
        if not np.array_equal(degree, np.diff(np.flatnonzero(heads), append=heads.size) - 1):
            return None
        degrees.append(degree)
        net_names += chunk.pick(hf + 3)
    pin_dx, pin_dy = _join(dxs, float), _join(dys, float)
    if (
        not (np.isfinite(pin_dx).all() and np.isfinite(pin_dy).all())
        or declared.get("NumNets", len(net_names)) != len(net_names)
        or declared.get("NumPins", pin_dx.size) != pin_dx.size
    ):
        return None
    net_start = np.concatenate(([0], np.cumsum(_join(degrees, np.int64))))
    return net_names, net_start, _join(cells, np.int64), pin_dx, pin_dy


def _pl_regular(path: str, name_to_id: dict[str, int]):
    """``_parse_pl`` of a regular file: every line is ``name x y : orient [/FIXED]``,
    and each declared name is placed at most once."""
    if "UCLA" in name_to_id:
        return None
    regular = _read_regular(path, ())
    if regular is None:
        return None
    data, _, pos = regular
    ids, xs, ys, marks = [], [], [], []
    for chunk in _regular_chunks(data, pos, b"\n"):
        first, marked = chunk.first, chunk.counts == 6
        if not (marked | (chunk.counts == 5)).all() or chunk.colons is None or not np.array_equal(chunk.colons, first + 3):
            return None
        orients = chunk.pick(first + 4)
        if "/FIXED" in orients or "/FIXED_NI" in orients or chunk.pick(first[marked] + 5).count("/FIXED") != marked.sum():
            return None
        try:
            ids.append(_ids(name_to_id, chunk.pick(first)))
            xs.append(chunk.numbers(first + 1, float))
            ys.append(chunk.numbers(first + 2, float))
        except (ValueError, KeyError):
            return None
        marks.append(marked)
    ids, xy = _join(ids, np.int64), np.column_stack((_join(xs, float), _join(ys, float)))
    n = len(name_to_id)
    if not np.isfinite(xy).all() or np.bincount(ids, minlength=n).max(initial=0) > 1:
        return None
    corners = np.full((n, 2), math.nan)
    corners[ids] = xy
    fixed = np.zeros(n, dtype=bool)
    fixed[ids] = _join(marks, bool)
    return corners, fixed


def _header_value(line: str) -> str | None:
    """Value of a 'Key : value' header line, or None if no colon."""
    if ":" not in line:
        return None
    return line.split(":", 1)[1].strip()


def _header_count(path: str, lineno: int, line: str) -> int:
    value = _header_value(line)
    if value is None:
        raise MalformedLineError(path, lineno, line, "header missing ':'")
    try:
        return int(value)
    except ValueError:
        raise MalformedLineError(path, lineno, line, "header count is not an integer")


def _parse_nodes(path: str):
    """(names, widths, heights, fixed flags, name -> id, NumTerminals or None)."""
    regular = _nodes_regular(path)
    if regular is not None:
        return regular
    names: list[str] = []
    widths: list[float] = []
    heights: list[float] = []
    fixed: list[bool] = []
    name_to_id: dict[str, int] = {}
    num_nodes: int | None = None
    num_terminals: int | None = None
    for lineno, line in _data_lines(path):
        tokens = line.split()
        if tokens[0] == "NumNodes":
            num_nodes = _header_count(path, lineno, line)
            continue
        if tokens[0] == "NumTerminals":
            num_terminals = _header_count(path, lineno, line)
            continue
        if len(tokens) < 3:
            raise MalformedLineError(path, lineno, line, "expected 'name width height [terminal]'")
        name = tokens[0]
        try:
            width = float(tokens[1])
            height = float(tokens[2])
        except ValueError:
            raise MalformedLineError(path, lineno, line, "width/height are not numbers")
        if not (0 < width < math.inf and 0 < height < math.inf):
            raise MalformedLineError(path, lineno, line, "width/height must be positive and finite")
        if name in name_to_id:
            raise DuplicateCellError(path, lineno, name)
        name_to_id[name] = len(names)
        names.append(name)
        widths.append(width)
        heights.append(height)
        fixed.append(any(t.startswith("terminal") for t in tokens[3:]))
    if num_nodes is not None and num_nodes != len(names):
        raise MalformedLineError(path, 0, f"NumNodes : {num_nodes}", f"header declares {num_nodes} nodes, body has {len(names)}")
    return names, widths, heights, fixed, name_to_id, num_terminals


def _parse_nets(path: str, name_to_id: dict[str, int]):
    """(net names, net_start, pin_cell, pin_dx, pin_dy), flat."""
    regular = _nets_regular(path, name_to_id)
    if regular is not None:
        return regular
    net_names: list[str] = []
    net_start: list[int] = []
    pin_cell: list[int] = []
    pin_dx: list[float] = []
    pin_dy: list[float] = []
    declared: dict[str, int] = {}  # NumNets/NumPins header counts
    pending: int = 0  # pin lines still expected for the current net
    for lineno, line in _data_lines(path):
        tokens = line.split()
        first = tokens[0]
        if first in ("NumNets", "NumPins"):
            declared[first] = _header_count(path, lineno, line)
            continue
        if first == "NetDegree":
            if pending:
                raise MalformedLineError(path, lineno, line, f"previous net is missing {pending} pin line(s)")
            value = _header_value(line)
            if value is None:
                raise MalformedLineError(path, lineno, line, "NetDegree missing ':'")
            parts = value.split()
            try:
                pending = int(parts[0])
            except (IndexError, ValueError):
                raise MalformedLineError(path, lineno, line, "NetDegree count is not an integer")
            if pending < 0:
                raise MalformedLineError(path, lineno, line, "NetDegree count must be >= 0")
            net_names.append(parts[1] if len(parts) > 1 else f"net{len(net_names)}")
            net_start.append(len(pin_cell))
            continue
        # a pin line
        if pending == 0:
            raise MalformedLineError(path, lineno, line, "pin line outside a NetDegree block")
        cell = name_to_id.get(first)
        if cell is None:
            raise DanglingPinError(path, lineno, first)
        dx = dy = 0.0
        if ":" in tokens:
            offs = tokens[tokens.index(":") + 1:]
            if len(offs) != 2:
                raise MalformedLineError(path, lineno, line, "expected 'name dir [: dx dy]'")
            try:
                dx = float(offs[0])
                dy = float(offs[1])
            except ValueError:
                raise MalformedLineError(path, lineno, line, "pin offsets are not numbers")
            if not (math.isfinite(dx) and math.isfinite(dy)):
                raise MalformedLineError(path, lineno, line, "pin offsets must be finite")
        elif len(tokens) > 2 or any(":" in t for t in tokens[1:]):
            # offsets without a free-standing ':' would otherwise read as 0 0
            raise MalformedLineError(path, lineno, line, "expected 'name dir [: dx dy]'")
        pin_cell.append(cell)
        pin_dx.append(dx)
        pin_dy.append(dy)
        pending -= 1
    if pending:
        raise MalformedLineError(path, 0, "", f"last net is missing {pending} pin line(s)")
    for key, what, body in (("NumNets", "nets", len(net_names)), ("NumPins", "pins", len(pin_cell))):
        if key in declared and declared[key] != body:
            raise MalformedLineError(path, 0, f"{key} : {declared[key]}", f"header declares {declared[key]} {what}, body has {body}")
    net_start.append(len(pin_cell))
    return net_names, net_start, pin_cell, pin_dx, pin_dy


def _parse_pl(path: str, name_to_id: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """(N x 2 lower-left corners, N /FIXED flags), indexed by cell id.

    Corners are NaN for cells that no line places. A cell on several lines
    keeps its last line; a name missing from ``name_to_id`` is skipped.
    """
    regular = _pl_regular(path, name_to_id)
    if regular is not None:
        return regular
    n = len(name_to_id)
    xs, ys, fixed = [math.nan] * n, [math.nan] * n, [False] * n
    for lineno, line in _data_lines(path):
        tokens = line.split()
        if len(tokens) < 3:
            raise MalformedLineError(path, lineno, line, "expected 'name x y [: orient] [/FIXED]'")
        try:
            x = float(tokens[1])
            y = float(tokens[2])
        except ValueError:
            raise MalformedLineError(path, lineno, line, "coordinates are not numbers")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise MalformedLineError(path, lineno, line, "coordinates must be finite")
        i = name_to_id.get(tokens[0])
        if i is None:
            log.warning("%s: placement for undeclared cell %r skipped", path, tokens[0])
            continue
        xs[i], ys[i] = x, y
        fixed[i] = any(t == "/FIXED" or t == "/FIXED_NI" for t in tokens[3:])
    return np.column_stack((xs, ys)), np.array(fixed, dtype=bool)


def _parse_scl(path: str) -> list[Row]:
    rows: list[Row] = []
    in_row = False
    cur: dict[str, float] = {}
    for lineno, line in _data_lines(path):
        first = line.split(None, 1)[0]
        if first == "CoreRow":
            in_row = True
            cur = {"site_width": 1.0}
            continue
        if not in_row:
            continue  # NumRows and anything else outside a block
        if first == "End":
            in_row = False
            if {"y", "height", "x", "num_sites"} <= cur.keys():
                rows.append(
                    Row(
                        y=cur["y"],
                        height=cur["height"],
                        x=cur["x"],
                        num_sites=int(cur["num_sites"]),
                        site_width=cur["site_width"],
                    )
                )
            else:
                log.warning("%s:%d: incomplete CoreRow block skipped", path, lineno)
            continue
        value = _header_value(line)
        if value is None:
            continue
        try:
            if first == "Coordinate":
                cur["y"] = float(value)
            elif first == "Height":
                cur["height"] = float(value)
            elif first == "Sitewidth":
                cur["site_width"] = float(value)
            elif first == "SubrowOrigin":
                # SubrowOrigin : x NumSites : s
                parts = line.replace(":", " ").split()
                cur["x"] = float(parts[1])
                if "NumSites" in parts:
                    cur["num_sites"] = float(parts[parts.index("NumSites") + 1])
        except (ValueError, IndexError):
            raise MalformedLineError(path, lineno, line, "malformed row attribute")
        if not all(map(math.isfinite, cur.values())):
            raise MalformedLineError(path, lineno, line, "row attributes must be finite")
    return rows


def _region_from_rows(rows: list[Row]) -> Region:
    xmin = min(r.x for r in rows)
    xmax = max(r.x + r.num_sites * r.site_width for r in rows)
    ymin = min(r.y for r in rows)
    ymax = max(r.y + r.height for r in rows)
    return Region(xmin=xmin, ymin=ymin, xmax=xmax, ymax=ymax, rows=rows)


def aux_files(aux_path: str) -> dict[str, str]:
    """Resolve the .aux manifest to {extension: absolute path}.

    Requires .nodes/.nets/.pl entries; .scl is optional; other entries are
    skipped with a warning. Listed-but-missing files raise MissingFileError.
    """
    if not os.path.isfile(aux_path):
        raise MissingFileError(aux_path)
    base = os.path.dirname(os.path.abspath(aux_path))
    listed: list[str] = []
    for lineno, line in _data_lines(aux_path):
        value = _header_value(line)
        if value is None:
            raise MalformedLineError(aux_path, lineno, line, "expected 'Tag : file ...'")
        listed.extend(value.split())
    by_ext: dict[str, str] = {}
    for fname in listed:
        ext = os.path.splitext(fname)[1]
        path = os.path.join(base, fname)
        if ext in (".nodes", ".nets", ".pl", ".scl"):
            if not os.path.isfile(path):
                raise MissingFileError(path)
            by_ext[ext] = path
        else:
            log.warning("%s: unsupported file %s skipped", aux_path, fname)
    for required in (".nodes", ".nets", ".pl"):
        if required not in by_ext:
            raise MissingFileError(os.path.join(base, f"<{required} entry in {os.path.basename(aux_path)}>"))
    return by_ext


def parse_design(aux_path: str) -> Design:
    """Parse a .aux manifest and the files it references into a Design.

    Movable/fixed classification follows both the .nodes ``terminal`` marker
    and the .pl ``/FIXED`` marker. Raises MissingFileError, MalformedLineError,
    DuplicateCellError or DanglingPinError on bad input.
    """
    by_ext = aux_files(aux_path)
    names, widths, heights, fixed, name_to_id, num_terminals = _parse_nodes(by_ext[".nodes"])
    net_names, net_start, pin_cell, pin_dx, pin_dy = _parse_nets(by_ext[".nets"], name_to_id)
    corners, pl_fixed = _parse_pl(by_ext[".pl"], name_to_id)
    sizes = np.column_stack((widths, heights))

    fixed = np.array(fixed, dtype=bool) | pl_fixed
    fixed_xy = np.where(fixed[:, None], corners + sizes / 2.0, np.nan)
    unplaced = np.flatnonzero(fixed & np.isnan(fixed_xy[:, 0]))
    if unplaced.size:
        raise MalformedLineError(by_ext[".pl"], 0, names[unplaced[0]], "fixed cell has no placement")
    fixed_count = int(np.count_nonzero(fixed))
    if num_terminals is not None and num_terminals != fixed_count:
        log.warning(
            "%s: NumTerminals declares %d but %d cells are fixed",
            by_ext[".nodes"], num_terminals, fixed_count,
        )

    rows = _parse_scl(by_ext[".scl"]) if ".scl" in by_ext else []
    if rows:
        region = _region_from_rows(rows)
    else:
        region = _region_from_placement(corners, sizes)
        log.warning("%s: no usable .scl; region set to placement bounding box", aux_path)

    return Design(
        names=names,
        widths=np.array(widths, dtype=float),
        heights=np.array(heights, dtype=float),
        fixed=fixed,
        fixed_xy=fixed_xy,
        net_names=net_names,
        net_start=np.array(net_start, dtype=np.int64),
        pin_cell=np.array(pin_cell, dtype=np.int64),
        pin_dx=np.array(pin_dx, dtype=float),
        pin_dy=np.array(pin_dy, dtype=float),
        region=region,
    )


def _region_from_placement(corners: np.ndarray, sizes: np.ndarray) -> Region:
    """Fallback region: bounding box of the rectangles placed in .pl."""
    placed = ~np.isnan(corners[:, 0])
    lo = corners[placed]
    hi = lo + sizes[placed]
    if not placed.any() or np.any(hi.max(axis=0) <= lo.min(axis=0)):
        log.warning("degenerate placement bounding box; using unit region")
        return Region(0.0, 0.0, 1.0, 1.0)
    return Region(*lo.min(axis=0).tolist(), *hi.max(axis=0).tolist())


def _half_sizes(design: Design) -> np.ndarray:
    """N x 2 half widths and heights: center minus this is the lower-left corner."""
    return np.column_stack((design.widths, design.heights)) / 2.0


def read_placement(design: Design, pl_path: str) -> np.ndarray:
    """Read cell centers for every design cell from a .pl file."""
    if not os.path.isfile(pl_path):
        raise MissingFileError(pl_path)
    corners, _ = _parse_pl(pl_path, {name: i for i, name in enumerate(design.names)})
    missing = np.flatnonzero(np.isnan(corners[:, 0]))
    if missing.size:
        raise MalformedLineError(pl_path, 0, design.names[missing[0]], "no placement for cell")
    return corners + _half_sizes(design)


# ---------------------------------------------------------------------------
# writing


def _fmt(v: float) -> str:
    """Compact number formatting for dimensions/offsets."""
    return f"{v:g}"


def write_placement(design: Design, placement: np.ndarray, path: str) -> None:
    """Write a .pl file; coordinates are converted to lower-left corners.

    Fixed cells carry the /FIXED marker. Output is deterministic: no
    timestamps, fixed 6-decimal coordinate formatting.
    """
    placement = np.asarray(placement, dtype=float)
    if placement.shape != (design.num_cells, 2):
        raise GiftPlaceError(
            f"placement shape {placement.shape} does not match design with {design.num_cells} cells"
        )
    corners = placement - _half_sizes(design)
    # one % format over the whole file: name, x, y and suffix of each cell in turn
    fields: list = [None] * (4 * design.num_cells)
    fields[0::4] = design.names
    fields[1::4] = corners[:, 0].tolist()
    fields[2::4] = corners[:, 1].tolist()
    fields[3::4] = np.where(design.fixed, " /FIXED", "").tolist()
    line = f"%s\t%.{PL_PRECISION}f\t%.{PL_PRECISION}f\t: N%s\n"
    with open(path, "w") as f:
        f.write("UCLA pl 1.0\n\n" + line * design.num_cells % tuple(fields))


def write_design(design: Design, out_dir: str, name: str, placement: np.ndarray | None = None) -> str:
    """Write a full Bookshelf design (.aux/.nodes/.nets/.pl[/.scl]); returns the .aux path.

    ``placement`` supplies movable cell centers for the .pl; defaults to the
    region center. Fixed cells are always written at their fixed position.
    """
    os.makedirs(out_dir, exist_ok=True)
    if placement is None:
        placement = np.tile(design.region.center, (design.num_cells, 1))
    placement = np.array(placement, dtype=float)
    placement[design.fixed] = design.fixed_xy[design.fixed]

    # one % format per file, as in write_placement
    nodes = [None] * (4 * design.num_cells)
    nodes[0::4] = design.names
    nodes[1::4] = design.widths.tolist()
    nodes[2::4] = design.heights.tolist()
    nodes[3::4] = np.where(design.fixed, "\tterminal", "").tolist()
    with open(os.path.join(out_dir, f"{name}.nodes"), "w") as f:
        f.write(f"UCLA nodes 1.0\n\nNumNodes : {design.num_cells}\nNumTerminals : {design.num_fixed}\n")
        f.write("\t%s\t%g\t%g%s\n" * design.num_cells % tuple(nodes))

    # each net's NetDegree line (2 fields), then its pin lines (3 fields each)
    degree = np.diff(design.net_start)
    fields = np.empty(2 * design.num_nets + 3 * design.pin_cell.size, dtype=object)
    head = 2 * np.arange(design.num_nets) + 3 * design.net_start[:-1]
    fields[head], fields[head + 1] = degree, design.net_names
    is_pin = np.ones(fields.size, dtype=bool)
    is_pin[head] = is_pin[head + 1] = False
    pins = np.array(design.names, dtype=object)[design.pin_cell], design.pin_dx, design.pin_dy
    fields[is_pin] = np.column_stack(pins).ravel()
    lines = "".join(["NetDegree : %d %s\n" + "\t%s I : %g %g\n" * k for k in degree.tolist()])
    with open(os.path.join(out_dir, f"{name}.nets"), "w") as f:
        f.write(f"UCLA nets 1.0\n\nNumNets : {design.num_nets}\nNumPins : {design.pin_cell.size}\n")
        f.write(lines % tuple(fields.tolist()))

    write_placement(design, placement, os.path.join(out_dir, f"{name}.pl"))

    files = [f"{name}.nodes", f"{name}.nets", f"{name}.pl"]
    if design.region.rows:
        scl_lines = ["UCLA scl 1.0", "", f"NumRows : {len(design.region.rows)}"]
        for row in design.region.rows:
            scl_lines.append("CoreRow Horizontal")
            scl_lines.append(f"\tCoordinate : {_fmt(row.y)}")
            scl_lines.append(f"\tHeight : {_fmt(row.height)}")
            scl_lines.append(f"\tSitewidth : {_fmt(row.site_width)}")
            scl_lines.append(f"\tSubrowOrigin : {_fmt(row.x)} NumSites : {row.num_sites}")
            scl_lines.append("End")
        with open(os.path.join(out_dir, f"{name}.scl"), "w") as f:
            f.write("\n".join(scl_lines) + "\n")
        files.append(f"{name}.scl")

    aux_path = os.path.join(out_dir, f"{name}.aux")
    with open(aux_path, "w") as f:
        f.write("RowBasedPlacement : " + " ".join(files) + "\n")
    return aux_path
