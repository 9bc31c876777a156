"""The line-by-line Bookshelf parser that giftplace used before its chunked reader.

It is kept as the reference the chunked reader is tested against: the same
arrays and warnings, or the same exception, message and line number. The
functions are those of ``giftplace.netlist`` at the time, unchanged; only the
calls into the chunked reader's predecessor are left out. ``_parse_scl`` is the
``.scl`` reader from before it took its tokens from the chunked lexer; it quotes
its errors' lines itself, as ``netlist._malformed`` does, and truncates a
fractional ``NumSites``. Like ``netlist._parse_scl``, it warns at a ``CoreRow``
block without ``End``.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from giftplace.errors import DanglingPinError, DuplicateCellError, MalformedLineError
from giftplace.netlist import Row

log = logging.getLogger("giftplace.netlist")


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
    opened = None  # the line of the open block's CoreRow, None outside a block
    cur: dict[str, float] = {}
    for lineno, line in _data_lines(path):
        first = line.split(None, 1)[0]
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
    if opened is not None:
        log.warning("%s:%d: CoreRow block without End skipped", path, opened)
    return rows
