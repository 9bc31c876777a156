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
from collections.abc import Sequence
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


class Names(Sequence):
    """Names as their UTF-8 bytes, each ended by a newline: name i is line i of ``data``, from ``start[i]``. An index
    gives a str, a slice a list, and a Names equals the list of the same strings. ``get`` and ``find`` look names up."""

    def __init__(self, data: bytes) -> None:
        self.data, self.start = data, np.append(0, np.flatnonzero(np.frombuffer(data, np.uint8) == ord("\n")) + 1)

    @classmethod
    def of(cls, names) -> Names:
        """``names`` if it is a Names, else its strings joined; GiftPlaceError naming the first that holds a newline."""
        if isinstance(names, Names):
            return names
        if (text := "\n".join([*names, ""])).count("\n") > len(names):
            raise GiftPlaceError("name %r holds a newline, which ends a name" % next(n for n in names if "\n" in n))
        return cls(text.encode("utf-8", "surrogatepass"))

    def __len__(self) -> int:
        return self.start.size - 1

    def __getitem__(self, i):
        if not isinstance(i, slice):
            i = range(len(self))[i]  # an int in range, or IndexError
            return self.data[self.start[i]:self.start[i + 1] - 1].decode("utf-8", "surrogatepass")
        a, b, step = i.indices(len(self))
        if step == 1 and a < b:
            return self.data[self.start[a]:self.start[b] - 1].decode("utf-8", "surrogatepass").split("\n")
        return [self[j] for j in range(a, b, step)]

    def __eq__(self, other) -> bool:
        return self[:] == list(other) if isinstance(other, (Names, list, tuple)) else NotImplemented

    @functools.cached_property
    def _index(self) -> tuple[np.ndarray, np.ndarray, dict[bytes, int], np.ndarray]:
        """Cell ids by name: the sorted keys (``_keys``) of the names a key stands for alone, then _NO_KEY; their ids,
        then -1; a dict of the other names' ids; and the first id over the later one of each name that repeats one. A
        name is looked up in the keys only if its key stands for it alone, so its id never depends on how it was read."""
        byte, start, length = np.frombuffer(self.data, np.uint8), self.start[:-1], np.diff(self.start) - 1
        keys, fits = _keys(byte, start, length)
        ids = np.flatnonzero(fits)[np.argsort(keys[fits], kind="stable")]  # a repeated key's ids in file order
        keys = keys[ids]
        later = np.flatnonzero(keys[1:] == keys[:-1]) + 1
        repeats, long = [(ids[np.searchsorted(keys, keys[later])], ids[later])], {}
        for i, name in zip(np.flatnonzero(~fits).tolist(), _cut(byte, start[~fits], length[~fits]).split(b"\n")):
            if long.setdefault(name, i) != i:
                repeats.append(([long[name]], [i]))
        return np.append(keys, _NO_KEY), np.append(ids, -1), long, np.concatenate(repeats, axis=1)

    def get(self, name: str, default=None):
        """The id of the cell ``name``, or ``default``."""
        byte = np.frombuffer(name.encode("utf-8", "surrogatepass") + b"\n", dtype=np.uint8)
        i = int(self.find(byte, np.zeros(1, np.int64), np.array([byte.size - 1]))[0]) if "\n" not in name else -1
        return default if i < 0 else i

    def find(self, byte: np.ndarray, start: np.ndarray, length: np.ndarray) -> np.ndarray:
        """The cell ids of the names of ``length`` bytes from ``start`` in ``byte``, each followed by a byte and none
        holding a newline; -1 for a name whose bytes are no cell's."""
        keys, fits = _keys(byte, start, length)
        table, ids, long, _ = self._index
        order = np.argsort(keys)  # searched in key order, each search starting where the last ended: 4x faster at 1M
        at = np.empty_like(order)
        at[order] = np.minimum(np.searchsorted(table, keys[order]), table.size - 1)
        ids = np.where(table[at] == keys, ids[at], -1)
        ids[~fits] = [long.get(name, -1) for name in _cut(byte, start[~fits], length[~fits]).split(b"\n")[:-1]]
        return ids


_NO_KEY = np.uint64(2**64 - 1)  # no UTF-8 name holds a 0xff byte
_FIRST_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)  # [k]: the first k bytes of a key


def _keys(byte: np.ndarray, start: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Keys of the names of ``length`` bytes from ``start`` in ``byte``: the bytes, zero-padded to 8, as a little-endian
    ``uint64`` (the view's item i holds bytes i to i + 7); and a mask of the names a key stands for alone, those of at
    most 8 bytes with no NUL."""
    mask = _FIRST_BYTES[np.minimum(length, 8)]
    keys = np.ndarray((byte.size + 1,), "<u8", np.append(byte, np.zeros(8, np.uint8)), 0, (1,))[start] & mask
    probe = keys | ~mask  # the bytes past the name set, so that only its own can be 0: has it a 0 byte?
    return keys, (length <= 8) & ((probe - np.uint64(0x0101010101010101)) & ~probe & np.uint64(0x8080808080808080) == 0)


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

    @classmethod
    def of_rows(cls, rows: list[Row]) -> Region:
        """The bounding box of ``rows``, holding them: the region a design with rows has."""
        return cls(xmin=min(r.x for r in rows), ymin=min(r.y for r in rows), rows=rows,
                   xmax=max(r.x + r.num_sites * r.site_width for r in rows), ymax=max(r.y + r.height for r in rows))

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

    Cell i is row i of ``names``, ``widths``, ``heights`` and ``fixed_xy`` (N x 2:
    the center of a fixed cell, NaN for a movable one). Net j is
    ``net_names[j]`` and owns the pins ``net_start[j]:net_start[j+1]`` of
    ``pin_cell``, ``pin_dx`` and ``pin_dy`` (offsets from the cell center).
    Construction coerces the names to ``Names`` and the arrays to their dtypes, and validates them;
    ``fixed``, ``pin_layout``, ``bounds`` and ``half_sizes`` are built from them on first use and kept.
    """

    names: Names
    widths: np.ndarray
    heights: np.ndarray
    fixed_xy: np.ndarray
    net_names: Names
    net_start: np.ndarray
    pin_cell: np.ndarray
    pin_dx: np.ndarray
    pin_dy: np.ndarray
    region: Region

    def __post_init__(self) -> None:
        self.names, self.net_names = Names.of(self.names), Names.of(self.net_names)
        self.widths = np.asarray(self.widths, dtype=float)
        self.heights = np.asarray(self.heights, dtype=float)
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

    @functools.cached_property
    def fixed(self) -> np.ndarray:
        """Which cells are fixed: the rows of ``fixed_xy`` that hold a center."""
        return np.isfinite(self.fixed_xy[:, 0])

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
        if not (self.widths.shape == self.heights.shape == (n,) and self.fixed_xy.shape == (n, 2)):
            raise GiftPlaceError(f"cell arrays do not all have {n} rows, one per name")
        if not (self.net_start.shape == (len(self.net_names) + 1,) and self.pin_cell.ndim == 1
                and self.pin_cell.shape == self.pin_dx.shape == self.pin_dy.shape):
            raise GiftPlaceError("net and pin arrays have inconsistent lengths")
        first = self.names._index[3][0]  # the first id of each repeated name
        if first.size:
            raise GiftPlaceError(f"duplicate cell name {self.names[first.min()]!r}")
        w, h = self.widths, self.heights
        bad = np.flatnonzero(~((w > 0) & (h > 0) & np.isfinite(w) & np.isfinite(h)))
        if bad.size:
            raise GiftPlaceError(f"cell {self.names[bad[0]]!r} has non-positive or non-finite dimensions")
        bad = np.flatnonzero(~(np.isfinite(self.fixed_xy).all(axis=1) | np.isnan(self.fixed_xy).all(axis=1)))
        if bad.size:  # a row is a finite center or NaN, so that ``fixed`` reads the row's first coordinate alone
            raise GiftPlaceError(f"cell {self.names[bad[0]]!r}: fixed_xy must be finite or NaN in both coordinates")
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


def _decode(path: str, data: bytes, line0: int) -> tuple[bytes, MalformedLineError | None]:
    """(``data``, file lines ``line0`` + 1 on, decoded as ``open`` decodes a file, its non-ASCII whitespace made spaces,
    as UTF-8; None), or, at a byte it cannot decode, (the lines before that byte's, the MalformedLineError there)."""
    try:
        return _NON_ASCII_SPACE.sub(" ", data.decode(locale.getpreferredencoding(False))).encode(), None
    except UnicodeDecodeError as exc:
        start = data.rfind(b"\n", 0, exc.start) + 1
        error = MalformedLineError(path, line0 + data.count(b"\n", 0, start) + 1, data[start:].split(b"\n", 1)[0].decode(
            exc.encoding, "replace"), f"byte 0x{data[exc.start]:02x} is not valid {exc.encoding}")
        return _decode(path, data[:start], line0)[0], error


def _malformed(path: str, lineno: int, reason: str) -> MalformedLineError:
    """MalformedLineError at line ``lineno`` of ``path``, quoting the line as read in text mode, less its comment."""
    with open(path) as f:
        line = next(itertools.islice(f, lineno - 1, None))
    return MalformedLineError(path, lineno, line.split("#", 1)[0].strip(), reason)


# The lexical rules of every Bookshelf file, applied to each chunk of whole lines of it:
# ``\r\n`` and a lone ``\r`` end a line, as in a text-mode read; ``#`` starts a comment
# that runs to the end of the line; every ``str.isspace()`` character separates tokens;
# blank lines and lines whose first token is ``UCLA`` are dropped. A non-ASCII chunk is
# decoded as ``open`` decodes a file, its non-ASCII whitespace becomes spaces, and it is
# tokenized as UTF-8. A file is read CHUNK_BYTES at a time, which bounds the bytes and token
# arrays held; a string is cut from a chunk's bytes only for a token read as one.
CHUNK_BYTES = 1 << 19
_SEPARATORS = bytes(c < 128 and chr(c).isspace() for c in range(256))  # translate() table: 1 for ASCII whitespace
_NON_ASCII_SPACE = re.compile(r"[^\S\x00-\x7f]")
_COMMENT = re.compile(rb"#[^\n]*")


def _lex(path: str):
    """Yield the lines of a Bookshelf file as ``_Chunk``s, in file order, from reads of CHUNK_BYTES. An undecodable
    byte raises MalformedLineError after the lines before it."""
    lines, rest = 0, b""
    with open(path, "rb") as f:
        for block in itertools.chain(iter(functools.partial(f.read, CHUNK_BYTES), b""), [b""]):  # b"" ends the file
            data = rest + block
            # up to the last line end; a '\r' that ends the read may be the first half of a '\r\n'
            cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1 if block else len(data)
            data, rest, error = data[:cut], data[cut:], None
            data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n") if b"\r" in data else data  # the test scans faster
            if not data.isascii():
                data, error = _decode(path, data, lines)
            if b"#" in data:
                data = _COMMENT.sub(b"", data)
            if data:
                yield (chunk := _Chunk(data if data.endswith(b"\n") else data + b"\n", lines))
                lines, chunk = chunk.end, None  # let go here before the next chunk is cut, as the reader lets it go
            if error is not None:
                raise error


def _spans(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The ranges ``start[i]:start[i] + size[i]``, concatenated."""
    return np.repeat(start - np.cumsum(size) + size, size) + np.arange(size.sum())


def _cut(byte: np.ndarray, start: np.ndarray, length: np.ndarray) -> bytes:
    """The names of ``length`` bytes from ``start`` in ``byte`` as one bytes, a newline in place of the byte after each."""
    cut = byte[_spans(start, length + 1)]
    cut[np.cumsum(length + 1) - 1] = ord("\n")
    return cut.tobytes()


class _Chunk:
    """Whole lines of a file, split into tokens: token t is ``length[t]`` bytes from byte ``starts[t]``.

    Row i is the i-th kept line: file line ``lineno[i]``, whose ``counts[i]``
    tokens start at token index ``first[i]``.
    """

    def __init__(self, text: bytes, line0: int) -> None:
        self.byte = byte = np.frombuffer(text, dtype=np.uint8)
        newlines = np.flatnonzero(byte == ord("\n"))
        self.end = line0 + newlines.size  # the number of the chunk's last line
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
        keep = ~self.match("UCLA", rows=True)
        self.first, self.counts, self.lineno = self.first[keep], self.counts[keep], self.lineno[keep]

    def match(self, word: str, prefix: bool = False, rows: bool = False) -> np.ndarray:
        """Mask over tokens, or over rows by their first token if ``rows``: the token is ``word``, or starts with it
        if ``prefix``."""
        tok = self.first if rows else slice(None)
        hit = self.lead[tok] == ord(word[0])
        if len(word) == 1 and not prefix:  # nothing to spell: one pass over every token
            return hit & (self.length[tok] == 1)
        at = np.flatnonzero(hit)
        t = self.first[at] if rows else at  # the tokens of the entries whose first byte fits
        fits = self.length[t] >= len(word) if prefix else self.length[t] == len(word)
        at, start, ok = at[fits], self.starts[t[fits]], np.ones(np.count_nonzero(fits), dtype=bool)
        for k, b in enumerate(word.encode()[1:], 1):  # spell out the rest where the first byte and the size fit
            ok &= self.byte[start + k] == b
        hit = np.zeros_like(hit)
        hit[at[ok]] = True
        return hit

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

    def joined(self, idx: np.ndarray) -> bytes:
        """The tokens at ``idx`` as one bytes, each ended by a newline."""
        return _cut(self.byte, self.starts[idx], self.length[idx])

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
        self.row, self._make = chunk.lineno.size, None

    def check(self, rows: np.ndarray, failed: np.ndarray, error) -> None:
        """``failed`` marks the failing entries of ``rows``; ``error`` is the reason or
        makes the exception from the line number and the entry."""
        i = int(np.argmax(failed)) if failed.size else 0
        if failed.size and failed[i]:
            self.fail(int(rows[i]), error, i)

    def fail(self, row: int, error, entry: int = 0) -> None:
        if row < self.row:  # a later call failing the same row is a later check of it
            self.row, lineno = row, int(self.lineno[row])
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
    """``parts`` as one array; the list is emptied, so the parts go as soon as they are joined."""
    joined = np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
    parts.clear()
    return joined


def _parse_nodes(path: str):
    """(names, widths, heights, fixed flags, the cell lookup by name (``names``), NumTerminals or None).

    A node line is ``name width height [tokens...]``; a later token starting with
    ``terminal`` marks the node fixed. A repeated name is found once the names
    read are indexed, and is the error if its line comes before any other fault.
    """
    parts, lines, widths, heights, fixed = [], [], [], [], []
    declared: dict[str, int] = {}
    failure = None  # the first fault other than a repeated name
    try:
        for chunk in _lex(path):
            errors = _FirstError(path, chunk)
            head = chunk.match("NumNodes", rows=True) | chunk.match("NumTerminals", rows=True)
            _headers(chunk, head, declared, errors)
            rows = np.flatnonzero(~head)
            counts = chunk.counts[rows]
            errors.check(rows, counts < 3, "expected 'name width height [terminal]'")
            sized = rows[counts >= 3]
            w, bad_w = chunk.numbers(chunk.first[sized] + 1, float)
            h, bad_h = chunk.numbers(chunk.first[sized] + 2, float)
            errors.check(sized, bad_w | bad_h, "width/height are not numbers")
            errors.check(sized, ~((w > 0) & (w < math.inf) & (h > 0) & (h < math.inf)), "width/height must be positive and finite")
            parts.append(chunk.joined(chunk.first[rows]))
            lines.append(chunk.lineno[rows])
            errors.raise_first()
            widths.append(w)
            heights.append(h)
            fixed.append(chunk.lines_with(chunk.match("terminal", prefix=True), 3)[rows])
            del chunk  # gone before the next chunk is cut
    except MalformedLineError as exc:  # the chunk's first fault, or an undecodable byte
        failure = exc
    names, lines = Names(b"".join(parts)), _join(lines, np.int64)
    later = names._index[3][1].min(initial=lines.size)  # the first name that repeats an earlier one, if any
    if later < lines.size and (failure is None or lines[later] < failure.lineno):
        failure = DuplicateCellError(path, int(lines[later]), names[later])
    if failure is not None:
        raise failure
    num_nodes = declared.get("NumNodes")
    if num_nodes is not None and num_nodes != len(names):
        raise MalformedLineError(path, 0, f"NumNodes : {num_nodes}", f"header declares {num_nodes} nodes, body has {len(names)}")
    return names, _join(widths, float), _join(heights, float), _join(fixed, bool), names, declared.get("NumTerminals")


def _parse_nets(path: str, cell_names: Names):
    """(net names, net_start, pin_cell, pin_dx, pin_dy), flat.

    ``NetDegree : k [name]`` opens a net of the k pin lines that follow; an unnamed
    net j is ``net{j}``. A pin line is ``cell [dir]``, or has a ``:`` token
    followed by exactly the two offsets ``dx dy``.
    """
    parts, degrees, cells, dxs, dys = [], [], [], [], []
    declared: dict[str, int] = {}
    nets = pending = 0  # nets so far; pin lines still expected for the current net
    for chunk in _lex(path):
        part, k, ids, dx, dy, pending = _net_rows(path, chunk, cell_names, declared, pending, nets)
        del chunk  # gone before the next chunk is cut
        nets += k.size
        parts.append(part)
        degrees.append(k)
        cells.append(ids)
        dxs.append(dx)
        dys.append(dy)
    if pending:
        raise MalformedLineError(path, 0, "", f"last net is missing {pending} pin line(s)")
    pin_cell = _join(cells, np.int64)
    for key, what, body in (("NumNets", "nets", nets), ("NumPins", "pins", pin_cell.size)):
        if key in declared and declared[key] != body:
            raise MalformedLineError(path, 0, f"{key} : {declared[key]}", f"header declares {declared[key]} {what}, body has {body}")
    net_start = np.concatenate(([0], np.cumsum(_join(degrees, np.int64))))
    return Names(b"".join(parts)), net_start, pin_cell, _join(dxs, float), _join(dys, float)


def _net_rows(path: str, chunk: _Chunk, cell_names: Names, declared: dict[str, int], pending: int, nets_before: int):
    """(net names as ``_Chunk.joined`` gives them, pin counts, pin cells, pin dx, pin dy) of one chunk of a .nets file, and
    the pin lines its last net still expects; ``pending`` are those of the net open before it."""
    errors = _FirstError(path, chunk)
    head = chunk.match("NumNets", rows=True) | chunk.match("NumPins", rows=True)
    opens = chunk.match("NetDegree", rows=True)
    _headers(chunk, head, declared, errors)
    net_rows, pin_rows = np.flatnonzero(opens), np.flatnonzero(~(head | opens))

    # NetDegree lines: the count and the name are the tokens after the line's first ':'
    f, c = chunk.first[net_rows], chunk.counts[net_rows]
    colon = chunk.match(":")
    plain = c >= 3
    plain[plain] = colon[f[plain] + 1]
    named = plain & (c >= 4)
    data = chunk.joined(f + 3 * named)  # the other nets are named below
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
    if not named.all():  # the chunk's net names one by one, to name the others in Python
        names = data.split(b"\n")
        for i, p in zip(odd.tolist(), parts):
            named[i], names[i] = len(p) == 2, p[-1].encode()
        for i in np.flatnonzero(~named).tolist():
            names[i] = b"net%d" % (nets_before + i)
        data = b"\n".join(names)

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
    ids = cell_names.find(chunk.byte, chunk.starts[f], chunk.length[f])
    errors.check(pin_rows, ids < 0, lambda lineno, i: DanglingPinError(path, lineno, chunk.pick(f[i:i + 1])[0]))
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
    return data, k, ids, dx, dy, int(expect[-1]) - int(got[-1])


def _parse_pl(path: str, cell_names: Names) -> tuple[np.ndarray, np.ndarray]:
    """(N x 2 lower-left corners, N /FIXED flags), indexed by cell id.

    A line is ``name x y [tokens...]``; a later ``/FIXED`` or ``/FIXED_NI`` token
    fixes the cell. Corners are NaN for cells that no line places. A cell on
    several lines keeps its last line; a name missing from ``cell_names`` is
    skipped with a warning.
    """
    n = len(cell_names)
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
        ids = cell_names.find(chunk.byte, chunk.starts[chunk.first], chunk.length[chunk.first])
        for name in chunk.pick(chunk.first[np.flatnonzero(ids[:errors.row] < 0)]):
            log.warning("%s: placement for undeclared cell %r skipped", path, name)
        errors.raise_first()
        marked = chunk.lines_with(chunk.match("/FIXED") | chunk.match("/FIXED_NI"), 3)
        # the last line of each name wins: the first of its rows from the end
        known = rows[ids >= 0][::-1]
        win = known[np.unique(ids[known], return_index=True)[1]]
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
    names, widths, heights, fixed, lookup, num_terminals = _parse_nodes(by_ext[".nodes"])
    net_names, net_start, pin_cell, pin_dx, pin_dy = _parse_nets(by_ext[".nets"], lookup)
    corners, pl_fixed = _parse_pl(by_ext[".pl"], lookup)
    sizes = np.column_stack((widths, heights))

    fixed = np.asarray(fixed, dtype=bool) | pl_fixed
    fixed_xy = np.where(fixed[:, None], _offset(by_ext[".pl"], names, corners, sizes / 2.0, _CENTER), np.nan)
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
        region = Region.of_rows(rows)
    else:
        region = _region_from_placement(by_ext[".pl"], names, corners, sizes)
        log.warning("%s: no usable .scl; region set to placement bounding box", aux_path)

    return Design(names=names, widths=widths, heights=heights, fixed_xy=fixed_xy, net_names=net_names,
                  net_start=net_start, pin_cell=pin_cell, pin_dx=pin_dx, pin_dy=pin_dy, region=region)


def _region_from_placement(pl_path: str, names: Names, corners: np.ndarray, sizes: np.ndarray) -> Region:
    """Fallback region: bounding box of the rectangles placed in the .pl at ``pl_path``; MalformedLineError naming the
    first cell whose far corner (its corner plus its size) is past the float range."""
    far = _offset(pl_path, names, corners, sizes, "cell's far corner (corner plus its size)")
    placed = ~np.isnan(corners[:, 0])
    lo, hi = corners[placed], far[placed]
    if not placed.any() or np.any(hi.max(axis=0) <= lo.min(axis=0)):
        log.warning("degenerate placement bounding box; using unit region")
        return Region(0.0, 0.0, 1.0, 1.0)
    return Region(*lo.min(axis=0).tolist(), *hi.max(axis=0).tolist())


def read_placement(design: Design, pl_path: str) -> np.ndarray:
    """Read cell centers for every design cell from a .pl file."""
    if not os.path.isfile(pl_path):
        raise MissingFileError(pl_path)
    corners, _ = _parse_pl(pl_path, design.names)
    missing = np.flatnonzero(np.isnan(corners[:, 0]))
    if missing.size:
        raise MalformedLineError(pl_path, 0, design.names[missing[0]], "no placement for cell")
    return _offset(pl_path, design.names, corners, design.half_sizes.T, _CENTER)


_CENTER = "cell center (corner plus half the cell's size)"


def _offset(pl_path: str, names: Names, corners: np.ndarray, extent: np.ndarray, what: str) -> np.ndarray:
    """``corners + extent`` for the N x 2 lower-left ``corners`` the .pl at ``pl_path`` gives, NaN for a NaN corner;
    MalformedLineError naming the first cell whose sum, its ``what``, is past the float range."""
    with np.errstate(over="ignore"):
        out = corners + extent
    bad = np.flatnonzero(np.isinf(out).any(axis=1))
    if bad.size:
        raise MalformedLineError(pl_path, 0, names[bad[0]], f"{what} is not finite")
    return out


# ---------------------------------------------------------------------------
# writing


WRITE_SLICE = 1 << 12  # cells or nets a writer formats per write(), which bounds the strings it holds


def _write_slices(path: str, header: str, count: int, text) -> None:
    """Write ``header``, then ``text(a, b)``, the lines of cells or nets a to b, for WRITE_SLICE of them at a time."""
    with open(path, "w") as f:
        f.write(header)
        for a in range(0, count, WRITE_SLICE):
            f.write(text(a, min(a + WRITE_SLICE, count)))


def _texts(values: np.ndarray) -> np.ndarray:
    """``'%.17g' % v`` for each of ``values``, each distinct one formatted once; keyed by bits, as -0.0 prints -0."""
    bits, where = np.unique(values.view(np.int64), return_inverse=True)
    return np.array(["%.17g" % v for v in bits.view(float).tolist()], dtype=object)[where]


def _interleave(line: str, *columns: list) -> str:
    """``line`` filled in from the columns, one line per row."""
    fields: list = [None] * (len(columns) * len(columns[0]))
    for k, column in enumerate(columns):
        fields[k::len(columns)] = column
    return line * len(columns[0]) % tuple(fields)


def write_placement(design: Design, placement: np.ndarray, path: str) -> None:
    """Write a .pl file; coordinates are converted to lower-left corners.

    Fixed cells carry the /FIXED marker. Output is deterministic: no
    timestamps, fixed 6-decimal coordinate formatting. The lines are formatted
    and written WRITE_SLICE cells at a time. GiftPlaceError, before the file is
    opened, for a placement of the wrong shape or with a coordinate that is not
    finite, which ``read_placement`` would refuse.
    """
    placement = np.asarray(placement, dtype=float)
    if placement.shape != (design.num_cells, 2):
        raise GiftPlaceError(
            f"placement shape {placement.shape} does not match design with {design.num_cells} cells"
        )
    bad = np.flatnonzero(~np.isfinite(placement).all(axis=1))
    if bad.size:
        raise GiftPlaceError(f"cell {design.names[bad[0]]!r} has a placement coordinate that is not finite")
    corners = placement - design.half_sizes.T
    line = f"%s\t%.{PL_PRECISION}f\t%.{PL_PRECISION}f\t: N%s\n"
    _write_slices(path, "UCLA pl 1.0\n\n", design.num_cells, lambda a, b: _interleave(
        line, design.names[a:b], corners[a:b, 0].tolist(), corners[a:b, 1].tolist(),
        np.where(design.fixed[a:b], " /FIXED", "").tolist()))


def design_files(out_dir: str, name: str) -> dict[str, str]:
    """The files ``write_design`` may write for ``name`` in ``out_dir``, keyed by extension. The .scl is always listed,
    though ``write_design`` writes it only for a region with rows. ValueError for a name an .aux cannot list: empty,
    only dots, or holding whitespace, '#' or '/'."""
    if not name.strip(".") or any(c.isspace() or c in "#/" for c in name):
        raise ValueError(f"name {name!r} cannot be listed in an .aux: it needs a character besides '.' and no whitespace, '#' or '/'")
    return {ext: os.path.join(out_dir, f"{name}.{ext}") for ext in ("nodes", "nets", "pl", "scl", "aux")}


# A name reads back when it is not empty and holds no whitespace or '#'. A cell name also starts lines, where the reader
# takes UCLA for a header and the other words for keywords. Searched for in the names joined by newlines, with a newline
# at each end: a newline matches only where it starts an empty or reserved name.
_UNREADABLE = {kind: re.compile(rf"[\s#](?<!\n(?!(?:{words})\n))")
               for kind, words in (("cell", "|UCLA|Num(?:Nodes|Terminals|Nets|Pins)|NetDegree|:"), ("net", ""))}


def write_design(design: Design, out_dir: str, name: str) -> str:
    """Write a full Bookshelf design (.aux/.nodes/.nets/.pl[/.scl]); returns the .aux path.

    The .pl places fixed cells at their fixed centers and movable cells at the
    region center. The .nodes, .nets and .pl are formatted and written
    WRITE_SLICE cells or nets at a time. GiftPlaceError, before any file is
    written, for a cell or net name that would not read back, or for a region
    with rows that is not their bounding box, as the .scl would read back.
    """
    for kind, names in (("cell", design.names), ("net", design.net_names)):
        if _UNREADABLE[kind].search("\n" + names.data.decode("utf-8", "surrogatepass")):
            bad = next(n for n in names if _UNREADABLE[kind].search(f"\n{n}\n"))
            raise GiftPlaceError(f"{kind} name {bad!r} would not read back from a Bookshelf file: it is empty, holds "
                                 "whitespace or '#', or is a word the reader keeps for itself")
    r = design.region
    if r.rows and r != (box := Region.of_rows(r.rows)):
        raise GiftPlaceError(f"region {(r.xmin, r.ymin, r.xmax, r.ymax)} is not the bounding box of its rows, "
                             f"{(box.xmin, box.ymin, box.xmax, box.ymax)}, which its .scl would read back as")
    paths = design_files(out_dir, name)
    os.makedirs(out_dir, exist_ok=True)

    # %.17g gives back every double exactly, and writes an integer or a half as %g does
    names = design.names[:]  # split once: the pin lines below take any cell's name
    _write_slices(paths["nodes"], f"UCLA nodes 1.0\n\nNumNodes : {design.num_cells}\nNumTerminals : {design.num_fixed}\n",
                  design.num_cells, lambda a, b: _interleave(
                      "\t%s\t%s\t%s%s\n", names[a:b], _texts(design.widths[a:b]).tolist(),
                      _texts(design.heights[a:b]).tolist(), np.where(design.fixed[a:b], "\tterminal", "").tolist()))
    cell_names, degree = np.array(names, dtype=object), np.diff(design.net_start)

    def nets(a: int, b: int) -> str:
        # each net's NetDegree line (2 fields), then its pin lines (3 fields each)
        p, q = design.net_start[a], design.net_start[b]
        degrees, which = np.unique(degree[a:b], return_inverse=True)
        lines = np.array(["NetDegree : %d %s\n" + "\t%s I : %s %s\n" * k for k in degrees.tolist()], dtype=object)
        fields = np.empty(2 * (b - a) + 3 * (q - p), dtype=object)
        head = 2 * np.arange(b - a) + 3 * (design.net_start[a:b] - p)
        fields[head], fields[head + 1] = degree[a:b], np.array(design.net_names[a:b], dtype=object)  # no str copies
        pin = 3 * np.arange(q - p) + 2 * np.repeat(np.arange(1, b - a + 1), degree[a:b])
        fields[pin], fields[pin + 1] = cell_names[design.pin_cell[p:q]], _texts(design.pin_dx[p:q])
        fields[pin + 2] = _texts(design.pin_dy[p:q])
        return "".join(lines[which].tolist()) % tuple(fields.tolist())

    _write_slices(paths["nets"], f"UCLA nets 1.0\n\nNumNets : {design.num_nets}\nNumPins : {design.pin_cell.size}\n",
                  design.num_nets, nets)

    write_placement(design, np.where(design.fixed[:, None], design.fixed_xy, design.region.center), paths["pl"])

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
