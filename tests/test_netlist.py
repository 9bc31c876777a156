"""Bookshelf parsing, validation, and write/read round-trips."""

from __future__ import annotations

import numpy as np
import pytest

from giftplace import (
    DanglingPinError,
    Design,
    DuplicateCellError,
    GiftPlaceError,
    MalformedLineError,
    MissingFileError,
    aux_files,
    parse_design,
    read_placement,
    write_design,
    write_placement,
)

NODES = """\
UCLA nodes 1.0
# comment line
NumNodes : 4
NumTerminals : 1
  a 2 1
  b 1 1
  c 1 2
  pad 1 1 terminal
"""

NETS = """\
UCLA nets 1.0
NumNets : 2
NumPins : 5
NetDegree : 3 n_first
  a I : 0.5 0
  b I
  c I : -0.5 0.25
NetDegree : 2 n_pad
  c I
  pad I
"""

PL = """\
UCLA pl 1.0
a 0 0 : N
b 3 0 : N
c 0 3 : N
pad 9 9 : N /FIXED
"""

SCL = """\
UCLA scl 1.0
NumRows : 2
CoreRow Horizontal
  Coordinate : 0
  Height : 5
  Sitewidth : 1
  SubrowOrigin : 0 NumSites : 10
End
CoreRow Horizontal
  Coordinate : 5
  Height : 5
  Sitewidth : 1
  SubrowOrigin : 0 NumSites : 10
End
"""


def write_corpus(tmp_path, nodes=NODES, nets=NETS, pl=PL, scl=SCL, name="tiny"):
    files = {"nodes": nodes, "nets": nets, "pl": pl}
    if scl is not None:
        files["scl"] = scl
    for ext, text in files.items():
        (tmp_path / f"{name}.{ext}").write_text(text)
    aux = tmp_path / f"{name}.aux"
    aux.write_text("RowBasedPlacement : " + " ".join(f"{name}.{e}" for e in files) + "\n")
    return str(aux)


class TestParse:
    def test_counts_and_kinds(self, tmp_path):
        design = parse_design(write_corpus(tmp_path))
        assert design.num_cells == 4
        assert design.num_fixed == 1
        assert design.num_movable == 3
        assert [net.degree for net in design.nets] == [3, 2]

    def test_region_from_scl(self, tmp_path):
        design = parse_design(write_corpus(tmp_path))
        r = design.region
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (0.0, 0.0, 10.0, 10.0)
        assert len(r.rows) == 2

    def test_fixed_pos_is_center(self, tmp_path):
        design = parse_design(write_corpus(tmp_path))
        pad = design.cells[3]
        assert pad.fixed
        # lower-left (9, 9) + half of 1x1
        assert pad.fixed_pos == (9.5, 9.5)

    def test_pin_offsets(self, tmp_path):
        design = parse_design(write_corpus(tmp_path))
        pins = design.nets[0].pins
        assert (pins[0].dx, pins[0].dy) == (0.5, 0.0)
        assert (pins[1].dx, pins[1].dy) == (0.0, 0.0)
        assert (pins[2].dx, pins[2].dy) == (-0.5, 0.25)

    def test_region_falls_back_to_placement_bbox(self, tmp_path):
        design = parse_design(write_corpus(tmp_path, scl=None))
        r = design.region
        # bbox of the placed rectangles: a at (0,0) 2x1 ... pad at (9,9) 1x1
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (0.0, 0.0, 10.0, 10.0)

    def test_cell_name_starting_with_ucla_kept(self, tmp_path):
        # without a NumNodes header nothing would notice a dropped cell
        nodes = NODES.replace("NumNodes : 4\n", "") + "  UCLAcell 1 1\n"
        design = parse_design(write_corpus(tmp_path, nodes=nodes, pl=PL + "UCLAcell 5 5 : N\n"))
        assert [c.name for c in design.cells] == ["a", "b", "c", "pad", "UCLAcell"]

    def test_pl_fixed_marker_forces_fixed(self, tmp_path):
        pl = PL.replace("c 0 3 : N", "c 0 3 : N /FIXED")
        design = parse_design(write_corpus(tmp_path, pl=pl))
        assert design.cells[2].fixed
        assert design.num_fixed == 2


class TestParseErrors:
    def test_missing_aux(self, tmp_path):
        with pytest.raises(MissingFileError):
            parse_design(str(tmp_path / "nope.aux"))

    def test_listed_file_missing(self, tmp_path):
        aux = write_corpus(tmp_path)
        (tmp_path / "tiny.nets").unlink()
        with pytest.raises(MissingFileError):
            parse_design(aux)

    def test_aux_without_pl_entry(self, tmp_path):
        write_corpus(tmp_path)
        aux = tmp_path / "tiny.aux"
        aux.write_text("RowBasedPlacement : tiny.nodes tiny.nets\n")
        with pytest.raises(MissingFileError):
            aux_files(str(aux))

    def test_duplicate_cell(self, tmp_path):
        nodes = NODES + "  a 1 1\n"
        with pytest.raises(DuplicateCellError):
            parse_design(write_corpus(tmp_path, nodes=nodes.replace("NumNodes : 4", "NumNodes : 5")))

    def test_dangling_pin(self, tmp_path):
        nets = NETS.replace("  b I\n", "  ghost I\n")
        with pytest.raises(DanglingPinError):
            parse_design(write_corpus(tmp_path, nets=nets))

    def test_header_count_mismatch(self, tmp_path):
        with pytest.raises(MalformedLineError):
            parse_design(write_corpus(tmp_path, nodes=NODES.replace("NumNodes : 4", "NumNodes : 7")))

    def test_truncated_net_block(self, tmp_path):
        nets = NETS.replace("  pad I\n", "")
        with pytest.raises(MalformedLineError):
            parse_design(write_corpus(tmp_path, nets=nets))

    def test_garbage_dimensions(self, tmp_path):
        with pytest.raises(MalformedLineError):
            parse_design(write_corpus(tmp_path, nodes=NODES.replace("a 2 1", "a two 1")))

    def test_nonpositive_dimensions(self, tmp_path):
        with pytest.raises(MalformedLineError):
            parse_design(write_corpus(tmp_path, nodes=NODES.replace("a 2 1", "a 0 1")))

    @pytest.mark.parametrize("line", ["a nan 1", "a 2 nan", "a inf 1", "a 2 -inf", "a 2 NaN"])
    def test_nonfinite_dimensions(self, tmp_path, line):
        with pytest.raises(MalformedLineError) as exc:
            parse_design(write_corpus(tmp_path, nodes=NODES.replace("a 2 1", line)))
        assert exc.value.lineno == 5

    @pytest.mark.parametrize("line", ["b nan 0 : N", "b 3 inf : N", "b -inf 0 : N"])
    def test_nonfinite_coordinates(self, tmp_path, line):
        with pytest.raises(MalformedLineError) as exc:
            parse_design(write_corpus(tmp_path, pl=PL.replace("b 3 0 : N", line)))
        assert exc.value.lineno == 3

    def test_nonfinite_pin_offset(self, tmp_path):
        with pytest.raises(MalformedLineError) as exc:
            parse_design(write_corpus(tmp_path, nets=NETS.replace("a I : 0.5 0", "a I : nan 0")))
        assert exc.value.lineno == 5

    def test_error_carries_location(self, tmp_path):
        nets = NETS.replace("  b I\n", "  ghost I\n")
        with pytest.raises(DanglingPinError) as exc:
            parse_design(write_corpus(tmp_path, nets=nets))
        assert "ghost" in str(exc.value)
        assert ".nets" in str(exc.value)


class TestDesignAccessors:
    def test_pin_table_slices(self, tmp_path):
        design = parse_design(write_corpus(tmp_path))
        net_start, pin_cell, pin_dx, pin_dy = design.pin_table()
        assert net_start.tolist() == [0, 3, 5]
        assert pin_cell.tolist() == [0, 1, 2, 2, 3]
        assert pin_dx[0] == 0.5 and pin_dy[3] == 0.0

    def test_fixed_positions_nan_for_movable(self, tmp_path):
        design = parse_design(write_corpus(tmp_path))
        pos = design.fixed_positions()
        assert np.isnan(pos[0]).all()
        assert pos[3].tolist() == [9.5, 9.5]

    def test_validate_rejects_bad_pin(self, tri_design):
        tri_design.nets[0].pins.append(type(tri_design.nets[0].pins[0])(cell=99))
        with pytest.raises(GiftPlaceError):
            tri_design.validate()


class TestRoundTrip:
    def test_write_parse_placement(self, tmp_path, anchored_design):
        rng = np.random.default_rng(7)
        g = rng.uniform(1.0, 11.0, size=(4, 2))
        mask = anchored_design.fixed_mask()
        g[mask] = anchored_design.fixed_positions()[mask]
        path = str(tmp_path / "out.pl")
        write_placement(anchored_design, g, path)
        back = read_placement(anchored_design, path)
        assert np.abs(back - g).max() <= 1e-6

    def test_write_design_reparses_identically(self, tmp_path, anchored_design):
        aux = write_design(anchored_design, str(tmp_path), "copy")
        again = parse_design(aux)
        assert again.num_cells == anchored_design.num_cells
        assert again.num_fixed == anchored_design.num_fixed
        assert [n.degree for n in again.nets] == [n.degree for n in anchored_design.nets]
        assert again.cells[0].fixed_pos == anchored_design.cells[0].fixed_pos

    def test_written_pl_is_deterministic(self, tmp_path, anchored_design):
        g = np.full((4, 2), 3.25)
        p1, p2 = str(tmp_path / "a.pl"), str(tmp_path / "b.pl")
        write_placement(anchored_design, g, p1)
        write_placement(anchored_design, g, p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_fixed_marker_round_trips(self, tmp_path, anchored_design):
        path = str(tmp_path / "f.pl")
        g = np.full((4, 2), 2.0)
        mask = anchored_design.fixed_mask()
        g[mask] = anchored_design.fixed_positions()[mask]
        write_placement(anchored_design, g, path)
        text = open(path).read()
        assert text.count("/FIXED") == 2

    def test_shape_mismatch_rejected(self, tmp_path, anchored_design):
        with pytest.raises(GiftPlaceError):
            write_placement(anchored_design, np.zeros((2, 2)), str(tmp_path / "bad.pl"))

    def test_read_placement_requires_every_cell(self, tmp_path, anchored_design):
        path = tmp_path / "partial.pl"
        path.write_text("UCLA pl 1.0\nm0 1 1 : N\n")
        with pytest.raises(MalformedLineError):
            read_placement(anchored_design, str(path))
