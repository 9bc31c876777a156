"""Bookshelf-subset design model and I/O.

Supported files: .aux (manifest), .nodes, .nets, .pl, and optionally .scl.
Tokens are whitespace separated, ``#`` starts a comment, headers use
``key : value``. The exact grammar is documented in docs/bookshelf_format.md.

Coordinates are stored internally as cell CENTERS; the Bookshelf files use
lower-left corners. The conversion happens here and only here.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from operator import attrgetter

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


@dataclass
class Cell:
    """One placeable object. ``fixed_pos`` is the immovable center, set iff fixed."""

    id: int
    name: str
    width: float
    height: float
    fixed: bool = False
    fixed_pos: tuple[float, float] | None = None


@dataclass
class Pin:
    """Net pin: owning cell id plus offset from the cell center."""

    cell: int
    dx: float = 0.0
    dy: float = 0.0


@dataclass
class Net:
    id: int
    name: str
    pins: list[Pin] = field(default_factory=list)

    @property
    def degree(self) -> int:
        return len(self.pins)


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


@dataclass
class Design:
    """Immutable-by-convention in-memory circuit. Derived arrays are cached."""

    cells: list[Cell]
    nets: list[Net]
    region: Region

    @property
    def num_cells(self) -> int:
        return len(self.cells)

    @property
    def num_movable(self) -> int:
        return int(np.count_nonzero(~self.fixed_mask()))

    @property
    def num_fixed(self) -> int:
        return int(np.count_nonzero(self.fixed_mask()))

    def fixed_mask(self) -> np.ndarray:
        """Boolean mask over cell ids, True for fixed terminals."""
        mask = getattr(self, "_fixed_mask", None)
        if mask is None:
            mask = np.array([c.fixed for c in self.cells], dtype=bool)
            self._fixed_mask = mask
        return mask

    def sizes(self) -> tuple[np.ndarray, np.ndarray]:
        """(widths, heights) arrays indexed by cell id."""
        sizes = getattr(self, "_sizes", None)
        if sizes is None:
            w = np.array([c.width for c in self.cells], dtype=float)
            h = np.array([c.height for c in self.cells], dtype=float)
            sizes = (w, h)
            self._sizes = sizes
        return sizes

    def fixed_positions(self) -> np.ndarray:
        """N x 2 array with fixed cell centers filled in, NaN for movable."""
        pos = np.full((self.num_cells, 2), np.nan)
        for c in self.cells:
            if c.fixed:
                pos[c.id] = c.fixed_pos
        return pos

    def pin_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Flat pin arrays (net_start, pin_cell, pin_dx, pin_dy).

        ``net_start`` has one extra entry so net i owns the slice
        [net_start[i], net_start[i+1]).
        """
        tbl = getattr(self, "_pin_table", None)
        if tbl is None:
            degrees = np.fromiter(map(len, map(attrgetter("pins"), self.nets)), np.int64, len(self.nets))
            net_start = np.zeros(len(self.nets) + 1, dtype=np.int64)
            np.cumsum(degrees, out=net_start[1:])
            pins = [p for net in self.nets for p in net.pins]
            pin_cell = np.fromiter(map(attrgetter("cell"), pins), np.int64, len(pins))
            pin_dx = np.fromiter(map(attrgetter("dx"), pins), float, len(pins))
            pin_dy = np.fromiter(map(attrgetter("dy"), pins), float, len(pins))
            tbl = (net_start, pin_cell, pin_dx, pin_dy)
            self._pin_table = tbl
        return tbl

    def validate(self) -> None:
        """Check structural invariants; raises GiftPlaceError on violation."""
        names = set()
        for i, c in enumerate(self.cells):
            if c.id != i:
                raise GiftPlaceError(f"cell ids not contiguous: cell {c.name!r} has id {c.id} at index {i}")
            if c.name in names:
                raise GiftPlaceError(f"duplicate cell name {c.name!r}")
            names.add(c.name)
            if not (c.width > 0 and c.height > 0):
                raise GiftPlaceError(f"cell {c.name!r} has non-positive dimensions")
            if c.fixed != (c.fixed_pos is not None):
                raise GiftPlaceError(f"cell {c.name!r}: fixed_pos must be present exactly when fixed")
        n = len(self.cells)
        for j, net in enumerate(self.nets):
            if net.id != j:
                raise GiftPlaceError(f"net ids not contiguous at index {j}")
            for p in net.pins:
                if not (0 <= p.cell < n):
                    raise GiftPlaceError(f"net {net.name!r} pin references cell id {p.cell} out of range")
        if not (self.region.xmax > self.region.xmin and self.region.ymax > self.region.ymin):
            raise GiftPlaceError("region must have positive extent")


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


def _header_value(line: str) -> str | None:
    """Value of a 'Key : value' header line, or None if no colon."""
    if ":" not in line:
        return None
    return line.split(":", 1)[1].strip()


def _parse_nodes(path: str) -> tuple[list[Cell], dict[str, int], int | None]:
    cells: list[Cell] = []
    name_to_id: dict[str, int] = {}
    num_nodes: int | None = None
    num_terminals: int | None = None
    for lineno, line in _data_lines(path):
        first = line.split(None, 1)[0]
        if first == "NumNodes" or first == "NumTerminals":
            value = _header_value(line)
            if value is None:
                raise MalformedLineError(path, lineno, line, "header missing ':'")
            try:
                count = int(value)
            except ValueError:
                raise MalformedLineError(path, lineno, line, "header count is not an integer")
            if first == "NumNodes":
                num_nodes = count
            else:
                num_terminals = count
            continue
        tokens = line.split()
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
        fixed = any(t.startswith("terminal") for t in tokens[3:])
        name_to_id[name] = len(cells)
        cells.append(Cell(id=len(cells), name=name, width=width, height=height, fixed=fixed))
    if num_nodes is not None and num_nodes != len(cells):
        raise MalformedLineError(path, 0, f"NumNodes : {num_nodes}", f"header declares {num_nodes} nodes, body has {len(cells)}")
    return cells, name_to_id, num_terminals


def _parse_nets(path: str, name_to_id: dict[str, int]) -> list[Net]:
    nets: list[Net] = []
    num_nets: int | None = None
    pending: int = 0  # pin lines still expected for the current net
    for lineno, line in _data_lines(path):
        first = line.split(None, 1)[0]
        if first in ("NumNets", "NumPins"):
            value = _header_value(line)
            if value is None:
                raise MalformedLineError(path, lineno, line, "header missing ':'")
            try:
                count = int(value)
            except ValueError:
                raise MalformedLineError(path, lineno, line, "header count is not an integer")
            if first == "NumNets":
                num_nets = count
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
            name = parts[1] if len(parts) > 1 else f"net{len(nets)}"
            nets.append(Net(id=len(nets), name=name))
            continue
        # a pin line
        if not nets or pending == 0:
            raise MalformedLineError(path, lineno, line, "pin line outside a NetDegree block")
        tokens = line.split()
        cell_name = tokens[0]
        if cell_name not in name_to_id:
            raise DanglingPinError(path, lineno, cell_name)
        dx = dy = 0.0
        if ":" in tokens:
            idx = tokens.index(":")
            offs = tokens[idx + 1:]
            if len(offs) >= 2:
                try:
                    dx = float(offs[0])
                    dy = float(offs[1])
                except ValueError:
                    raise MalformedLineError(path, lineno, line, "pin offsets are not numbers")
                if not (math.isfinite(dx) and math.isfinite(dy)):
                    raise MalformedLineError(path, lineno, line, "pin offsets must be finite")
        nets[-1].pins.append(Pin(cell=name_to_id[cell_name], dx=dx, dy=dy))
        pending -= 1
    if pending:
        raise MalformedLineError(path, 0, "", f"last net is missing {pending} pin line(s)")
    if num_nets is not None and num_nets != len(nets):
        raise MalformedLineError(path, 0, f"NumNets : {num_nets}", f"header declares {num_nets} nets, body has {len(nets)}")
    return nets


def _parse_pl(path: str) -> dict[str, tuple[float, float, bool]]:
    """name -> (lower-left x, lower-left y, fixed flag)."""
    placed: dict[str, tuple[float, float, bool]] = {}
    for lineno, line in _data_lines(path):
        tokens = line.split()
        if len(tokens) < 3:
            raise MalformedLineError(path, lineno, line, "expected 'name x y [: orient] [/FIXED]'")
        name = tokens[0]
        try:
            x = float(tokens[1])
            y = float(tokens[2])
        except ValueError:
            raise MalformedLineError(path, lineno, line, "coordinates are not numbers")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise MalformedLineError(path, lineno, line, "coordinates must be finite")
        fixed = any(t == "/FIXED" or t == "/FIXED_NI" for t in tokens[3:])
        placed[name] = (x, y, fixed)
    return placed


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
    cells, name_to_id, num_terminals = _parse_nodes(by_ext[".nodes"])
    nets = _parse_nets(by_ext[".nets"], name_to_id)
    placed = _parse_pl(by_ext[".pl"])

    for name, (llx, lly, pl_fixed) in placed.items():
        if name not in name_to_id:
            log.warning("%s: placement for undeclared cell %r skipped", by_ext[".pl"], name)
            continue
        cell = cells[name_to_id[name]]
        if pl_fixed:
            cell.fixed = True
        if cell.fixed:
            cell.fixed_pos = (llx + cell.width / 2.0, lly + cell.height / 2.0)
    for cell in cells:
        if cell.fixed and cell.fixed_pos is None:
            raise MalformedLineError(by_ext[".pl"], 0, cell.name, "fixed cell has no placement")
    fixed_count = sum(1 for c in cells if c.fixed)
    if num_terminals is not None and num_terminals != fixed_count:
        log.warning(
            "%s: NumTerminals declares %d but %d cells are fixed",
            by_ext[".nodes"], num_terminals, fixed_count,
        )

    rows = _parse_scl(by_ext[".scl"]) if ".scl" in by_ext else []
    if rows:
        region = _region_from_rows(rows)
    else:
        region = _region_from_placement(cells, placed)
        log.warning("%s: no usable .scl; region set to placement bounding box", aux_path)

    design = Design(cells=cells, nets=nets, region=region)
    design.validate()
    return design


def _region_from_placement(cells: list[Cell], placed: dict[str, tuple[float, float, bool]]) -> Region:
    """Fallback region: bounding box of the rectangles placed in .pl."""
    xs0, ys0, xs1, ys1 = [], [], [], []
    by_name = {c.name: c for c in cells}
    for name, (llx, lly, _) in placed.items():
        c = by_name.get(name)
        if c is None:
            continue
        xs0.append(llx)
        ys0.append(lly)
        xs1.append(llx + c.width)
        ys1.append(lly + c.height)
    if not xs0 or max(xs1) <= min(xs0) or max(ys1) <= min(ys0):
        log.warning("degenerate placement bounding box; using unit region")
        return Region(0.0, 0.0, 1.0, 1.0)
    return Region(min(xs0), min(ys0), max(xs1), max(ys1))


def read_placement(design: Design, pl_path: str) -> np.ndarray:
    """Read cell centers for every design cell from a .pl file."""
    if not os.path.isfile(pl_path):
        raise MissingFileError(pl_path)
    placed = _parse_pl(pl_path)
    coords = np.empty((design.num_cells, 2), dtype=float)
    for cell in design.cells:
        if cell.name not in placed:
            raise MalformedLineError(pl_path, 0, cell.name, "no placement for cell")
        llx, lly, _ = placed[cell.name]
        coords[cell.id, 0] = llx + cell.width / 2.0
        coords[cell.id, 1] = lly + cell.height / 2.0
    return coords


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
    lines = ["UCLA pl 1.0", ""]
    for cell in design.cells:
        cx, cy = placement[cell.id]
        llx = cx - cell.width / 2.0
        lly = cy - cell.height / 2.0
        suffix = " /FIXED" if cell.fixed else ""
        lines.append(f"{cell.name}\t{llx:.{PL_PRECISION}f}\t{lly:.{PL_PRECISION}f}\t: N{suffix}")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def write_design(design: Design, out_dir: str, name: str, placement: np.ndarray | None = None) -> str:
    """Write a full Bookshelf design (.aux/.nodes/.nets/.pl[/.scl]); returns the .aux path.

    ``placement`` supplies movable cell centers for the .pl; defaults to the
    region center. Fixed cells are always written at their fixed position.
    """
    os.makedirs(out_dir, exist_ok=True)
    if placement is None:
        placement = np.tile(design.region.center, (design.num_cells, 1))
    placement = np.array(placement, dtype=float)
    fixed = design.fixed_positions()
    mask = design.fixed_mask()
    placement[mask] = fixed[mask]

    nodes_lines = ["UCLA nodes 1.0", "", f"NumNodes : {design.num_cells}", f"NumTerminals : {design.num_fixed}"]
    for cell in design.cells:
        marker = "\tterminal" if cell.fixed else ""
        nodes_lines.append(f"\t{cell.name}\t{_fmt(cell.width)}\t{_fmt(cell.height)}{marker}")
    with open(os.path.join(out_dir, f"{name}.nodes"), "w") as f:
        f.write("\n".join(nodes_lines) + "\n")

    num_pins = sum(net.degree for net in design.nets)
    nets_lines = ["UCLA nets 1.0", "", f"NumNets : {len(design.nets)}", f"NumPins : {num_pins}"]
    for net in design.nets:
        nets_lines.append(f"NetDegree : {net.degree} {net.name}")
        for pin in net.pins:
            cell = design.cells[pin.cell]
            nets_lines.append(f"\t{cell.name} I : {_fmt(pin.dx)} {_fmt(pin.dy)}")
    with open(os.path.join(out_dir, f"{name}.nets"), "w") as f:
        f.write("\n".join(nets_lines) + "\n")

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
