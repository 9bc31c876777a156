"""Bookshelf-subset design model and I/O.

Supported files: .aux (manifest), .nodes, .nets, .pl, and optionally .scl.
Tokens are whitespace separated, ``#`` starts a comment, headers use
``key : value``. The exact grammar is documented in docs/bookshelf_format.md.

Coordinates are stored internally as cell CENTERS; the Bookshelf files use
lower-left corners. The conversion happens here and only here.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import locale
import logging
import math
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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
    """The pins of every net with 2 or more pins, laid out in slots for the wirelength kernels.

    The slots hold the nets in degree blocks: block ``(w, m, mask)`` is a
    slot-major (w, m) slab of the m nets, in net order, whose degree rounds up
    to the power of two w; the 2-pin nets make the first block, of width 2. A
    net's pad slots repeat its first pin, and ``mask`` (None in a block without
    pads) is 0 on them. Slot positions come as one (2, S) array, x over y, so
    that each numpy call of a kernel serves both axes.
    """

    cell: np.ndarray        # (S,) cell id of each slot
    offset: np.ndarray      # (2, S) pin dx and dy from the cell center
    blocks: tuple           # (width, nets, pad mask or None) of each degree block, widths ascending

    def positions(self, g: np.ndarray) -> np.ndarray:
        """The slots' x and y as a new (2, S) array: the centers ``g`` of their pins' cells plus the offsets."""
        p = np.take(np.asarray(g, dtype=float).T, self.cell, axis=1)
        p += self.offset
        return p

    def slabs(self, p: np.ndarray):
        """Yield each degree block of the (2, S) slot values ``p`` as a (2, width, nets) view, with its pad mask."""
        start = 0
        for width, nets, mask in self.blocks:
            yield p[:, start:start + width * nets].reshape(2, width, nets), mask
            start += width * nets

    @staticmethod
    def total(sums) -> float:
        """The per-block (x, y) ``sums`` added in turn as floats: every block's x, then every block's y, the order
        of one pass per axis."""
        total = 0.0
        for s in np.reshape(sums, (-1, 2)).T.flat:
            total += float(s)
        return total


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
    ``pin_layout``, ``bounds`` and ``half_sizes`` are built from them on first use and kept.
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
        """The pins of the nets with 2 or more pins, laid out in slots for the wirelength kernels."""
        first, degree = self.net_start[:-1], np.diff(self.net_start)
        nets = np.flatnonzero(degree >= 2)
        width = 1 << np.frexp(degree[nets] - 1)[1]  # the least power of two >= each degree
        slot_pin, blocks = [np.zeros(0, np.int64)], []
        for w in np.unique(width).tolist():
            block = nets[width == w]
            row = np.arange(w)[:, None]
            pad = row >= degree[block]
            slot_pin.append((first[block] + np.where(pad, 0, row)).ravel())
            blocks.append((w, block.size, (~pad).astype(float) if pad.any() else None))
        slot_pin = np.concatenate(slot_pin)
        return PinLayout(
            cell=self.pin_cell[slot_pin],
            offset=np.stack([self.pin_dx[slot_pin], self.pin_dy[slot_pin]]),
            blocks=tuple(blocks),
        )

    @functools.cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Each cell center's legal box as N x 2 arrays ``(lo, hi)``: a fixed cell's
        fixed center, a movable cell's region. ``np.clip(g, *design.bounds, out=g)``
        legalizes ``g`` in place.
        """
        fixed, r = self.fixed[:, None], self.region
        return np.where(fixed, self.fixed_xy, (r.xmin, r.ymin)), np.where(fixed, self.fixed_xy, (r.xmax, r.ymax))

    @functools.cached_property
    def half_sizes(self) -> np.ndarray:
        """2 x N half widths and heights: a center minus column i is cell i's lower-left corner."""
        return np.stack([self.widths, self.heights]) / 2.0

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
        bad = np.flatnonzero(~(np.isfinite(self.pin_dx) & np.isfinite(self.pin_dy)))
        if bad.size:
            net = self.net_names[np.searchsorted(self.net_start, bad[0], side="right") - 1]
            raise GiftPlaceError(f"net {net!r} has a pin offset that is not finite")
        r = self.region
        if not (np.isfinite([r.xmin, r.ymin, r.xmax, r.ymax]).all() and r.xmax > r.xmin and r.ymax > r.ymin):
            raise GiftPlaceError("region must be finite with positive extent")
        for i, row in enumerate(r.rows):  # the rules _parse_scl reads an .scl by, so write_design's .scl reads back
            if not (all(map(math.isfinite, (row.y, row.height, row.x, row.num_sites, row.site_width)))
                    and row.height > 0 and row.site_width > 0 and row.num_sites >= 0 and row.num_sites % 1 == 0):
                raise GiftPlaceError(f"row {i} {row}: its values must be finite, its height and site width > 0 and "
                                     "its site count a whole number >= 0")


# ---------------------------------------------------------------------------
# parsing


def _decode(path: str, data: bytes) -> str:
    """``data`` decoded as ``open`` decodes a file; a byte it cannot decode raises
    MalformedLineError at the line holding it."""
    try:
        return data.decode(locale.getpreferredencoding(False))
    except UnicodeDecodeError as exc:
        lineno = len((data[:exc.start] + b".").splitlines())
        line = data.splitlines()[lineno - 1].decode(exc.encoding, "replace")
        raise MalformedLineError(path, lineno, line, f"byte 0x{data[exc.start]:02x} is not valid {exc.encoding}") from None


def _malformed(path: str, lineno: int, reason: str) -> MalformedLineError:
    """MalformedLineError at line ``lineno`` of ``path``, quoting the line as read in text mode, less its comment."""
    with open(path) as f:
        line = next(itertools.islice(f, lineno - 1, None))
    return MalformedLineError(path, lineno, line.split("#", 1)[0].strip(), reason)


# The lexical rules of every Bookshelf file, applied once to its bytes: ``\r\n`` and a
# lone ``\r`` end a line, as in a text-mode read; ``#`` starts a comment that runs to
# the end of the line; every ``str.isspace()`` character separates tokens; blank lines
# and lines whose first token is ``UCLA`` are dropped. A non-ASCII file is decoded as
# ``open`` decodes it, its non-ASCII whitespace becomes spaces, and it is tokenized as
# UTF-8. Files are cut into line-aligned chunks of about CHUNK_BYTES, which bound the token
# arrays; a string is cut from a chunk's bytes only for a token read as one.
CHUNK_BYTES = 1 << 19
_SEPARATORS = bytes(c < 128 and chr(c).isspace() for c in range(256))  # translate() table: 1 for ASCII whitespace
_NON_ASCII_SPACE = re.compile(r"[^\S\x00-\x7f]")
_COMMENT = re.compile(rb"#[^\n]*")


def _lex(path: str):
    """Yield the lines of a Bookshelf file as ``_Chunk``s, in file order."""
    with open(path, "rb") as f:
        data = f.read()
    if not data.isascii():
        data = _NON_ASCII_SPACE.sub(" ", _decode(path, data)).encode()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if b"#" in data:
        data = _COMMENT.sub(b"", data)
    pos = lines = 0
    while pos < len(data):
        end = data.find(b"\n", pos + CHUNK_BYTES)
        end = len(data) if end < 0 else end + 1
        text = data[pos:end] if data.endswith(b"\n", pos, end) else data[pos:end] + b"\n"
        pos, line0, lines = end, lines, lines + text.count(b"\n")
        yield _Chunk(text, line0)  # held by no name here, so that a reader can let it go


def _spans(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The ranges ``start[i]:start[i] + size[i]``, concatenated."""
    return np.repeat(start - np.cumsum(size) + size, size) + np.arange(size.sum())


class _Chunk:
    """Whole lines of a file, split into tokens: token t is ``length[t]`` bytes from byte ``starts[t]``.

    Row i is the i-th kept line: file line ``lineno[i]``, whose ``counts[i]``
    tokens start at token index ``first[i]``.
    """

    def __init__(self, text: bytes, line0: int) -> None:
        self.byte = byte = np.frombuffer(text, dtype=np.uint8)
        newlines = np.flatnonzero(byte == ord("\n"))
        space = byte <= ord(" ")
        if np.count_nonzero(byte < ord(" ")) != newlines.size + np.count_nonzero(byte == ord("\t")):
            space = np.frombuffer(text.translate(_SEPARATORS), dtype=bool)  # control bytes beyond tab and newline
        edges = np.flatnonzero(np.diff(space, prepend=True))  # token starts and ends, in turn
        self.starts, self.length = edges[0::2].copy(), edges[1::2] - edges[0::2]
        self.lead = byte[self.starts]
        before = np.searchsorted(self.starts, newlines)  # tokens up to each line end
        counts = np.diff(before, prepend=0)
        rows = np.flatnonzero(counts)
        self.first, self.counts, self.lineno = before[rows] - counts[rows], counts[rows], rows + line0 + 1
        keep = self.heads("UCLA") == 0
        self.first, self.counts, self.lineno = self.first[keep], self.counts[keep], self.lineno[keep]

    def _spell(self, at: np.ndarray, word: str) -> np.ndarray:
        """Mask over token starts ``at`` whose first byte is ``word``'s: the rest of it follows."""
        ok = np.ones(at.size, dtype=bool)
        for k, b in enumerate(word.encode()[1:], 1):
            ok &= self.byte[at + k] == b
        return ok

    def match(self, word: str, prefix: bool = False) -> np.ndarray:
        """Mask over tokens: the token is ``word``, or starts with it if ``prefix``."""
        hit = (self.length >= len(word) if prefix else self.length == len(word)) & (self.lead == ord(word[0]))
        if len(word) > 1:
            hit[hit] = self._spell(self.starts[hit], word)
        return hit

    def heads(self, *words: str) -> np.ndarray:
        """Per row: 1 + the index in ``words`` of the row's first token, 0 for any other token."""
        lead, size = self.lead[self.first], self.length[self.first]
        out = np.zeros(self.first.size, dtype=np.int64)
        for n, word in enumerate(words, 1):
            rows = np.flatnonzero((lead == ord(word[0])) & (size == len(word)))
            out[rows[self._spell(self.starts[self.first[rows]], word)]] = n
        return out

    def lines_with(self, hit: np.ndarray, skip: int) -> np.ndarray:
        """Mask over rows: a token from the ``skip``-th of the line on is marked in ``hit``."""
        tok = np.flatnonzero(hit)
        row = np.maximum(np.searchsorted(self.first, tok, "right") - 1, 0)
        out = np.zeros(self.first.size, dtype=bool)
        if out.size:
            out[row[(tok >= self.first[row] + skip) & (tok < self.first[row] + self.counts[row])]] = True
        return out

    def pick(self, idx: np.ndarray) -> list[str]:
        """The tokens at ``idx`` as strings, cut from the chunk's bytes each with the separator after it."""
        return self.byte[_spans(self.starts[idx], self.length[idx] + 1)].tobytes().decode().split()

    def rows(self, rows=slice(None)) -> list[list[str]]:
        """The token lists of ``rows`` (default: every row), from one ``pick``."""
        counts = self.counts[rows]
        tokens, ends = self.pick(_spans(self.first[rows], counts)), np.cumsum(counts).tolist()
        return [tokens[a:b] for a, b in zip([0, *ends], ends)]

    def numbers(self, idx: np.ndarray, kind: type) -> tuple[np.ndarray, np.ndarray]:
        """``kind`` (float or int) of the tokens at ``idx``, and a mask of the first that is no such number."""
        # a one-digit token's value is its digit; other numbers go through float()/int()
        digit = self.lead[idx] - np.uint8(ord("0"))
        values = digit.astype(np.int64 if kind is int else float)
        rest = np.flatnonzero((digit > 9) | (self.length[idx] > 1))
        converted, bad = _convert(self.pick(idx[rest]), kind)
        values = values.astype(converted.dtype, copy=False)
        values[rest] = converted
        failed = np.zeros(idx.size, dtype=bool)
        failed[rest[bad]] = True
        return values, failed


def _convert(strings: list[str], kind: type) -> tuple[np.ndarray, np.ndarray]:
    """``kind`` (float or int) of ``strings``, and the index of the first that is no
    such number as an array of 0 or 1 items. Values from there on are 0; an int
    beyond int64 makes the array one of Python ints."""
    try:
        return np.fromiter(map(kind, strings), dtype=np.int64 if kind is int else float, count=len(strings)), np.empty(0, int)
    except (ValueError, OverflowError):
        good: list = []
        with contextlib.suppress(ValueError):
            good.extend(map(kind, strings))
        values = np.array(good + [0] * (len(strings) - len(good)), dtype=object if kind is int else float)
        return values, np.arange(len(good), len(strings))[:1]


class _FirstError:
    """The error of a chunk's earliest failing row, and of that row's first failing check.

    The checks of one kind of line have a fixed order, that of the ``check``
    calls made for it, and an error quotes its line as a text-mode read gives it.
    """

    def __init__(self, path: str, chunk: _Chunk) -> None:
        self.path, self.lineno = path, chunk.lineno
        self.row, self._rank, self._checks, self._make = chunk.lineno.size, 0, 0, None

    def check(self, rows: np.ndarray, failed: np.ndarray, error) -> None:
        """``failed`` marks the failing entries of ``rows``; ``error`` is the reason or
        makes the exception from the line number and the entry."""
        self._checks += 1
        i = int(np.argmax(failed)) if failed.size else 0
        if failed.size and failed[i]:
            self.fail(int(rows[i]), error, i, self._checks)

    def fail(self, row: int, error, entry: int = 0, rank: int = 0) -> None:
        if (row, rank) < (self.row, self._rank):
            self.row, self._rank, lineno = row, rank, int(self.lineno[row])
            self._make = functools.partial(_malformed, self.path, lineno, error) if isinstance(error, str) else (
                functools.partial(error, lineno, entry))

    def raise_first(self) -> None:
        if self._make is not None:
            raise self._make()


def _headers(chunk: _Chunk, head: np.ndarray, declared: dict[str, int], errors: _FirstError) -> None:
    """Read the ``Key : count`` lines marked in ``head`` into ``declared``, in file order."""
    rows = np.flatnonzero(head)
    for row, (key, *rest) in zip(rows.tolist(), chunk.rows(rows)):
        _, colon, value = " ".join(rest).partition(":")
        if not colon:
            return errors.fail(row, "header missing ':'")
        try:
            declared[key] = int(value)
        except ValueError:
            return errors.fail(row, "header count is not an integer")


def _join(parts: list[np.ndarray], dtype: type) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)


def _ids(name_to_id: dict[str, int], names: list[str]) -> np.ndarray:
    """Cell ids of ``names``, -1 for an undeclared name."""
    return np.fromiter(map(name_to_id.get, names, itertools.repeat(-1)), dtype=np.int64, count=len(names))


def _parse_nodes(path: str):
    """(names, widths, heights, fixed flags, name -> id, NumTerminals or None).

    A node line is ``name width height [tokens...]``; a later token starting with
    ``terminal`` marks the node fixed.
    """
    names: list[str] = []
    widths, heights, fixed = [], [], []
    name_to_id: dict[str, int] = {}
    declared: dict[str, int] = {}
    for chunk in _lex(path):
        errors = _FirstError(path, chunk)
        head = chunk.heads("NumNodes", "NumTerminals") > 0
        _headers(chunk, head, declared, errors)
        rows = np.flatnonzero(~head)
        first, counts = chunk.first[rows], chunk.counts[rows]
        errors.check(rows, counts < 3, "expected 'name width height [terminal]'")
        sized = rows[counts >= 3]
        w, bad_w = chunk.numbers(chunk.first[sized] + 1, float)
        h, bad_h = chunk.numbers(chunk.first[sized] + 2, float)
        errors.check(sized, bad_w | bad_h, "width/height are not numbers")
        errors.check(sized, ~((w > 0) & (w < math.inf) & (h > 0) & (h < math.inf)), "width/height must be positive and finite")
        chunk_names = chunk.pick(first)
        name_to_id.update(zip(chunk_names, range(len(names), len(names) + rows.size)))
        if len(name_to_id) != len(names) + rows.size:  # a name repeats; the error below ends the parse
            first_seen = dict(zip(reversed(names + chunk_names), range(len(names) + rows.size - 1, -1, -1)))
            seen = np.fromiter(map(first_seen.__getitem__, chunk_names), dtype=np.int64, count=rows.size) < len(names) + np.arange(rows.size)
            errors.check(rows, seen, lambda lineno, i: DuplicateCellError(path, lineno, chunk_names[i]))
        errors.raise_first()
        names += chunk_names
        widths.append(w)
        heights.append(h)
        fixed.append(chunk.lines_with(chunk.match("terminal", prefix=True), 3)[rows])
        del chunk  # gone before the next chunk is cut
    num_nodes = declared.get("NumNodes")
    if num_nodes is not None and num_nodes != len(names):
        raise MalformedLineError(path, 0, f"NumNodes : {num_nodes}", f"header declares {num_nodes} nodes, body has {len(names)}")
    return names, _join(widths, float), _join(heights, float), _join(fixed, bool), name_to_id, declared.get("NumTerminals")


def _parse_nets(path: str, name_to_id: dict[str, int]):
    """(net names, net_start, pin_cell, pin_dx, pin_dy), flat.

    ``NetDegree : k [name]`` opens a net of the k pin lines that follow; an unnamed
    net j is ``net{j}``. A pin line is ``cell [dir]``, or has a ``:`` token
    followed by exactly the two offsets ``dx dy``.
    """
    net_names: list[str] = []
    degrees, cells, dxs, dys = [], [], [], []
    declared: dict[str, int] = {}
    pending = 0  # pin lines still expected for the current net
    for chunk in _lex(path):
        names, k, ids, dx, dy, pending = _net_rows(path, chunk, name_to_id, declared, pending, len(net_names))
        del chunk  # gone before the next chunk is cut
        net_names += names
        degrees.append(k)
        cells.append(ids)
        dxs.append(dx)
        dys.append(dy)
    if pending:
        raise MalformedLineError(path, 0, "", f"last net is missing {pending} pin line(s)")
    pin_cell = _join(cells, np.int64)
    for key, what, body in (("NumNets", "nets", len(net_names)), ("NumPins", "pins", pin_cell.size)):
        if key in declared and declared[key] != body:
            raise MalformedLineError(path, 0, f"{key} : {declared[key]}", f"header declares {declared[key]} {what}, body has {body}")
    net_start = np.concatenate(([0], np.cumsum(_join(degrees, np.int64))))
    return net_names, net_start, pin_cell, _join(dxs, float), _join(dys, float)


def _net_rows(path: str, chunk: _Chunk, name_to_id: dict[str, int], declared: dict[str, int], pending: int,
              nets_before: int):
    """(net names, pin counts, pin cells, pin dx, pin dy) of one chunk of a .nets file, and the
    pin lines its last net still expects; ``pending`` are those of the net open before it."""
    errors = _FirstError(path, chunk)
    kind = chunk.heads("NumNets", "NumPins", "NetDegree")
    _headers(chunk, (kind == 1) | (kind == 2), declared, errors)
    opens, pins = kind == 3, kind == 0
    net_rows, pin_rows = np.flatnonzero(opens), np.flatnonzero(pins)

    # NetDegree lines: the count and the name are the tokens after the line's first ':'
    f, c = chunk.first[net_rows], chunk.counts[net_rows]
    colon = chunk.match(":")
    plain = c >= 3
    plain[plain] = colon[f[plain] + 1]
    named = plain & (c >= 4)
    names = chunk.pick(f + 3 * named)  # the other nets are named below
    k_plain, bad_plain = chunk.numbers(f[plain] + 2, int)
    # a glued or missing ':', or no count: the line is split in Python, as header lines are
    odd = np.flatnonzero(~plain)
    split = [" ".join(tokens[1:]).partition(":") for tokens in chunk.rows(net_rows[odd])]
    parts = [value.split()[:2] or [""] for _, _, value in split]
    k_odd, bad_odd = _convert([p[0] for p in parts], int)
    k = np.zeros(net_rows.size, dtype=np.result_type(k_plain, k_odd))
    k[plain], k[odd] = k_plain, k_odd
    bad, no_colon = np.zeros((2, net_rows.size), dtype=bool)
    bad[plain], bad[odd[bad_odd]] = bad_plain, True
    no_colon[odd] = [not sep for _, sep, _ in split]
    for i, p in zip(odd.tolist(), parts):
        named[i], names[i] = len(p) == 2, p[-1]
    for i in np.flatnonzero(~named).tolist():
        names[i] = f"net{nets_before + i}"

    # the pin lines of each net: net q of the chunk (0 is the one still open from
    # before) holds the pin lines from before[q] on, and expects expect[q] of them
    before = np.concatenate(([0], np.searchsorted(pin_rows, net_rows)))
    expect = np.concatenate((np.array([pending]), k))
    got = np.diff(before, append=pin_rows.size)
    errors.check(net_rows, expect[:-1] - got[:-1] > 0, lambda lineno, i: _malformed(
        path, lineno, f"previous net is missing {int(expect[i]) - int(got[i])} pin line(s)"))
    errors.check(net_rows, no_colon, "NetDegree missing ':'")
    errors.check(net_rows, bad, "NetDegree count is not an integer")
    errors.check(net_rows, k < 0, "NetDegree count must be >= 0")

    # net q's first pin line beyond expect[q] is outside a NetDegree block
    room = np.maximum(expect, 0)  # a negative count fails at its own line
    extra = np.minimum(before + room, pin_rows.size - 1).astype(np.int64)
    errors.check(pin_rows[extra] if pin_rows.size else extra, got > room, "pin line outside a NetDegree block")
    f, c = chunk.first[pin_rows], chunk.counts[pin_rows]
    pin_names = chunk.pick(f)
    ids = _ids(name_to_id, pin_names)
    errors.check(pin_rows, ids < 0, lambda lineno, i: DanglingPinError(path, lineno, pin_names[i]))
    colon_at = np.append(np.flatnonzero(colon), colon.size)
    j = colon_at[np.searchsorted(colon_at, f)]  # the line's first ':' token, if before f + c
    has = j < f + c
    bare = ~has & (c == 2)  # 'cell dir' lines: dir must hold no ':'
    if bare.any():
        colon[np.searchsorted(chunk.starts, np.flatnonzero(chunk.byte == ord(":")), "right") - 1] = True
        bare[bare] = colon[f[bare] + 1]
    offsets = has & (f + c == j + 3)
    errors.check(pin_rows, ~offsets & (has | (c > 2) | bare), "expected 'name dir [: dx dy]'")
    at = np.flatnonzero(offsets)
    dx_at, bad_x = chunk.numbers(j[at] + 1, float)
    dy_at, bad_y = chunk.numbers(j[at] + 2, float)
    errors.check(pin_rows[at], bad_x | bad_y, "pin offsets are not numbers")
    errors.check(pin_rows[at], ~(np.isfinite(dx_at) & np.isfinite(dy_at)), "pin offsets must be finite")
    errors.raise_first()

    dx, dy = np.zeros(pin_rows.size), np.zeros(pin_rows.size)
    dx[at], dy[at] = dx_at, dy_at
    return names, k, ids, dx, dy, int(expect[-1]) - int(got[-1])


def _parse_pl(path: str, name_to_id: dict[str, int]) -> tuple[np.ndarray, np.ndarray]:
    """(N x 2 lower-left corners, N /FIXED flags), indexed by cell id.

    A line is ``name x y [tokens...]``; a later ``/FIXED`` or ``/FIXED_NI`` token
    fixes the cell. Corners are NaN for cells that no line places. A cell on
    several lines keeps its last line; a name missing from ``name_to_id`` is
    skipped with a warning.
    """
    n = len(name_to_id)
    corners, fixed = np.full((n, 2), math.nan), np.zeros(n, dtype=bool)
    for chunk in _lex(path):
        errors = _FirstError(path, chunk)
        rows = np.arange(chunk.first.size)
        errors.check(rows, chunk.counts < 3, "expected 'name x y [: orient] [/FIXED]'")
        placed = rows[chunk.counts >= 3]
        x, bad_x = chunk.numbers(chunk.first[placed] + 1, float)
        y, bad_y = chunk.numbers(chunk.first[placed] + 2, float)
        errors.check(placed, bad_x | bad_y, "coordinates are not numbers")
        errors.check(placed, ~(np.isfinite(x) & np.isfinite(y)), "coordinates must be finite")
        names = chunk.pick(chunk.first)
        ids = _ids(name_to_id, names)
        for i in np.flatnonzero(ids[:errors.row] < 0).tolist():
            log.warning("%s: placement for undeclared cell %r skipped", path, names[i])
        errors.raise_first()
        marked = chunk.lines_with(chunk.match("/FIXED") | chunk.match("/FIXED_NI"), 3)
        # the last line of each name wins: keep the rows whose position is their cell's latest
        last = np.full(n, -1)
        np.maximum.at(last, ids[ids >= 0], rows[ids >= 0])
        win = rows[(ids >= 0) & (last[np.maximum(ids, 0)] == rows)]
        corners[ids[win]] = np.column_stack((x, y))[win]
        fixed[ids[win]] = marked[win]
        del chunk  # gone before the next chunk is cut
    return corners, fixed


def _parse_scl(path: str) -> list[Row]:
    """The complete ``CoreRow`` blocks; a value follows its line's first ':'. A block without ``End`` (cut short by
    the next ``CoreRow`` or by the end of the file) is skipped with a warning naming its ``CoreRow`` line."""
    rows: list[Row] = []
    opened = None  # the line of the open block's CoreRow, None outside a block
    cur: dict[str, float] = {}
    for lineno, tokens in ((n, t) for chunk in _lex(path) for n, t in zip(chunk.lineno.tolist(), chunk.rows())):
        first = tokens[0]
        if first == "CoreRow":
            if opened is not None:
                log.warning("%s:%d: CoreRow block without End skipped", path, opened)
            opened = lineno
            cur = {"site_width": 1.0}
            continue
        if opened is None:
            continue  # NumRows and anything else outside a block
        if first == "End":
            opened = None
            if {"y", "height", "x", "num_sites"} <= cur.keys():
                rows.append(Row(y=cur["y"], height=cur["height"], x=cur["x"], num_sites=int(cur["num_sites"]),
                                site_width=cur["site_width"]))
            else:
                log.warning("%s:%d: incomplete CoreRow block skipped", path, lineno)
            continue
        line = " ".join(tokens)
        _, colon, value = line.partition(":")
        if not colon:
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
            raise _malformed(path, lineno, "malformed row attribute")
        if not all(map(math.isfinite, cur.values())):
            raise _malformed(path, lineno, "row attributes must be finite")
        sites = cur.get("num_sites", 0.0)
        if sites < 0 or sites % 1:
            raise _malformed(path, lineno, "NumSites must be a whole number >= 0")
        if cur.get("height", 1.0) <= 0 or cur["site_width"] <= 0:
            raise _malformed(path, lineno, "row height and site width must be > 0")
    if opened is not None:
        log.warning("%s:%d: CoreRow block without End skipped", path, opened)
    return rows


def aux_entries(aux_path: str) -> list[tuple[int, str, str]]:
    """(line number, name as listed, absolute path) of every file the .aux lists, in order; MissingFileError when
    there is no .aux, and MalformedLineError for a line without 'Tag :'."""
    if not os.path.isfile(aux_path):
        raise MissingFileError(aux_path)
    base = os.path.dirname(os.path.abspath(aux_path))
    listed: list[tuple[int, str, str]] = []
    for lineno, tokens in ((n, t) for chunk in _lex(aux_path) for n, t in zip(chunk.lineno.tolist(), chunk.rows())):
        _, colon, value = " ".join(tokens).partition(":")
        if not colon:
            raise _malformed(aux_path, lineno, "expected 'Tag : file ...'")
        listed += [(lineno, fname, os.path.join(base, fname)) for fname in value.split()]
    return listed


def aux_files(aux_path: str) -> dict[str, str]:
    """Resolve the .aux manifest to {extension: absolute path}.

    Requires .nodes/.nets/.pl entries; .scl is optional; a second entry of one of
    these kinds raises MalformedLineError; other entries are skipped with a
    warning. Listed-but-missing files raise MissingFileError.
    """
    by_ext: dict[str, str] = {}
    for lineno, fname, path in aux_entries(aux_path):
        ext = os.path.splitext(fname)[1]
        if ext in by_ext:
            raise _malformed(aux_path, lineno, f"second {ext} entry {fname!r}; exactly one is allowed")
        if ext in (".nodes", ".nets", ".pl", ".scl"):
            if not os.path.isfile(path):
                raise MissingFileError(path)
            by_ext[ext] = path
        else:
            log.warning("%s: unsupported file %s skipped", aux_path, fname)
    for required in (".nodes", ".nets", ".pl"):
        if required not in by_ext:
            raise MissingFileError(os.path.join(os.path.dirname(os.path.abspath(aux_path)),
                                                f"<{required} entry in {os.path.basename(aux_path)}>"))
    return by_ext


def parse_design(aux_path: str, by_ext: dict[str, str] | None = None) -> Design:
    """Parse a .aux manifest and the files it references into a Design.

    Movable/fixed classification follows both the .nodes ``terminal`` marker and the .pl ``/FIXED`` marker;
    ``by_ext`` is the .aux's ``aux_files`` when the caller read it already. Raises MissingFileError,
    MalformedLineError, DuplicateCellError or DanglingPinError on bad input.
    """
    by_ext = by_ext or aux_files(aux_path)
    names, widths, heights, fixed, name_to_id, num_terminals = _parse_nodes(by_ext[".nodes"])
    net_names, net_start, pin_cell, pin_dx, pin_dy = _parse_nets(by_ext[".nets"], name_to_id)
    corners, pl_fixed = _parse_pl(by_ext[".pl"], name_to_id)
    sizes = np.column_stack((widths, heights))

    fixed = np.asarray(fixed, dtype=bool) | pl_fixed
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
        region = Region(xmin=min(r.x for r in rows), ymin=min(r.y for r in rows), rows=rows,
                        xmax=max(r.x + r.num_sites * r.site_width for r in rows), ymax=max(r.y + r.height for r in rows))
    else:
        region = _region_from_placement(corners, sizes)
        log.warning("%s: no usable .scl; region set to placement bounding box", aux_path)

    return Design(names=names, widths=widths, heights=heights, fixed=fixed, fixed_xy=fixed_xy, net_names=net_names,
                  net_start=net_start, pin_cell=pin_cell, pin_dx=pin_dx, pin_dy=pin_dy, region=region)


def _region_from_placement(corners: np.ndarray, sizes: np.ndarray) -> Region:
    """Fallback region: bounding box of the rectangles placed in .pl."""
    placed = ~np.isnan(corners[:, 0])
    lo = corners[placed]
    hi = lo + sizes[placed]
    if not placed.any() or np.any(hi.max(axis=0) <= lo.min(axis=0)):
        log.warning("degenerate placement bounding box; using unit region")
        return Region(0.0, 0.0, 1.0, 1.0)
    return Region(*lo.min(axis=0).tolist(), *hi.max(axis=0).tolist())


def read_placement(design: Design, pl_path: str) -> np.ndarray:
    """Read cell centers for every design cell from a .pl file."""
    if not os.path.isfile(pl_path):
        raise MissingFileError(pl_path)
    corners, _ = _parse_pl(pl_path, {name: i for i, name in enumerate(design.names)})
    missing = np.flatnonzero(np.isnan(corners[:, 0]))
    if missing.size:
        raise MalformedLineError(pl_path, 0, design.names[missing[0]], "no placement for cell")
    return corners + design.half_sizes.T


# ---------------------------------------------------------------------------
# writing


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
    corners = placement - design.half_sizes.T
    # one % format over the whole file: name, x, y and suffix of each cell in turn
    fields: list = [None] * (4 * design.num_cells)
    fields[0::4] = design.names
    fields[1::4] = corners[:, 0].tolist()
    fields[2::4] = corners[:, 1].tolist()
    fields[3::4] = np.where(design.fixed, " /FIXED", "").tolist()
    line = f"%s\t%.{PL_PRECISION}f\t%.{PL_PRECISION}f\t: N%s\n"
    with open(path, "w") as f:
        f.write("UCLA pl 1.0\n\n" + line * design.num_cells % tuple(fields))


def design_files(out_dir: str, name: str) -> dict[str, str]:
    """The files ``write_design`` may write for ``name`` in ``out_dir``, keyed by extension. The .scl is always listed,
    though ``write_design`` writes it only for a region with rows. ValueError for a name an .aux cannot list: empty,
    only dots, or holding whitespace, '#' or '/'."""
    if not name.strip(".") or any(c.isspace() or c in "#/" for c in name):
        raise ValueError(f"name {name!r} cannot be listed in an .aux: it needs a character besides '.' and no whitespace, '#' or '/'")
    return {ext: os.path.join(out_dir, f"{name}.{ext}") for ext in ("nodes", "nets", "pl", "scl", "aux")}


def write_design(design: Design, out_dir: str, name: str, placement: np.ndarray | None = None) -> str:
    """Write a full Bookshelf design (.aux/.nodes/.nets/.pl[/.scl]); returns the .aux path.

    ``placement`` supplies movable cell centers for the .pl; defaults to the
    region center. Fixed cells are always written at their fixed position.
    """
    paths = design_files(out_dir, name)
    os.makedirs(out_dir, exist_ok=True)
    if placement is None:
        placement = np.tile(design.region.center, (design.num_cells, 1))
    placement = np.array(placement, dtype=float)
    placement[design.fixed] = design.fixed_xy[design.fixed]

    # one % format per file, as in write_placement; %.17g gives back every double exactly, and writes an integer or
    # a half as %g does
    nodes = [None] * (4 * design.num_cells)
    nodes[0::4] = design.names
    nodes[1::4] = design.widths.tolist()
    nodes[2::4] = design.heights.tolist()
    nodes[3::4] = np.where(design.fixed, "\tterminal", "").tolist()
    with open(paths["nodes"], "w") as f:
        f.write(f"UCLA nodes 1.0\n\nNumNodes : {design.num_cells}\nNumTerminals : {design.num_fixed}\n")
        f.write("\t%s\t%.17g\t%.17g%s\n" * design.num_cells % tuple(nodes))

    # each net's NetDegree line (2 fields), then its pin lines (3 fields each)
    degree = np.diff(design.net_start)
    fields = np.empty(2 * design.num_nets + 3 * design.pin_cell.size, dtype=object)
    head = 2 * np.arange(design.num_nets) + 3 * design.net_start[:-1]
    fields[head], fields[head + 1] = degree, design.net_names
    is_pin = np.ones(fields.size, dtype=bool)
    is_pin[head] = is_pin[head + 1] = False
    pins = np.array(design.names, dtype=object)[design.pin_cell], design.pin_dx, design.pin_dy
    fields[is_pin] = np.column_stack(pins).ravel()
    lines = "".join(["NetDegree : %d %s\n" + "\t%s I : %.17g %.17g\n" * k for k in degree.tolist()])
    with open(paths["nets"], "w") as f:
        f.write(f"UCLA nets 1.0\n\nNumNets : {design.num_nets}\nNumPins : {design.pin_cell.size}\n")
        f.write(lines % tuple(fields.tolist()))

    write_placement(design, placement, paths["pl"])

    rows = design.region.rows
    if rows:
        row = ("CoreRow Horizontal\n\tCoordinate : %.17g\n\tHeight : %.17g\n\tSitewidth : %.17g\n"
               "\tSubrowOrigin : %.17g NumSites : %s\nEnd\n")
        values = [value for r in rows for value in (r.y, r.height, r.site_width, r.x, r.num_sites)]
        with open(paths["scl"], "w") as f:
            f.write(f"UCLA scl 1.0\n\nNumRows : {len(rows)}\n" + row * len(rows) % tuple(values))

    listed = ("nodes", "nets", "pl", "scl")[:4 if rows else 3]
    with open(paths["aux"], "w") as f:
        f.write("RowBasedPlacement : " + " ".join(os.path.basename(paths[ext]) for ext in listed) + "\n")
    return paths["aux"]
