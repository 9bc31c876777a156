"""The Bookshelf writers that giftplace used before it wrote in slices.

They are kept as the reference the sliced writers are tested against: the same
bytes in every file. Each formats a whole file with one ``%`` over object
arrays. The functions are those of ``giftplace.netlist`` at the time,
unchanged.
"""

from __future__ import annotations

import os

import numpy as np

from giftplace.errors import GiftPlaceError
from giftplace.netlist import PL_PRECISION, Design, design_files


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
