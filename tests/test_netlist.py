"""Bookshelf parsing, validation, and write/read round-trips."""

from __future__ import annotations

import dataclasses
import logging
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from giftplace import (
    DanglingPinError,
    Design,
    DuplicateCellError,
    GiftPlaceError,
    MalformedLineError,
    MissingFileError,
    Region,
    Row,
    aux_files,
    generate,
    netlist,
    parse_design,
    read_placement,
    write_design,
    write_placement,
)

from giftplace.netlist import Names

import writer_reference

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
        assert design.fixed.tolist() == [False, False, False, True]
        assert np.diff(design.net_start).tolist() == [3, 2]
        assert design.net_names == ["n_first", "n_pad"]

    def test_nets_parse_peaks_below_twice_its_pin_arrays(self, tmp_path, monkeypatch):
        # each chunk's pin cells and offsets are kept until the end; each list goes as soon as it is joined, so the
        # peak is the chunks' arrays plus one joined array, not all of them plus all the joined ones
        write_design(generate(cells=5000, seed=1), str(tmp_path), "d")
        *_, lookup, _ = netlist._parse_nodes(str(tmp_path / "d.nodes"))
        monkeypatch.setattr(netlist, "CHUNK_BYTES", 1 << 14)
        tracemalloc.start()
        try:
            _, *arrays = netlist._parse_nets(str(tmp_path / "d.nets"), lookup)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * sum(a.nbytes for a in arrays)

    def test_region_from_scl(self, tmp_path):
        design = parse_design(write_corpus(tmp_path))
        r = design.region
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (0.0, 0.0, 10.0, 10.0)
        assert len(r.rows) == 2

    def test_fixed_pos_is_center(self, tmp_path):
        design = parse_design(write_corpus(tmp_path))
        assert design.names[3] == "pad" and design.fixed[3]
        # lower-left (9, 9) + half of 1x1
        assert design.fixed_xy[3].tolist() == [9.5, 9.5]

    def test_pin_offsets(self, tmp_path):
        design = parse_design(write_corpus(tmp_path))
        assert design.pin_dx[:3].tolist() == [0.5, 0.0, -0.5]
        assert design.pin_dy[:3].tolist() == [0.0, 0.0, 0.25]

    def test_region_falls_back_to_placement_bbox(self, tmp_path):
        design = parse_design(write_corpus(tmp_path, scl=None))
        r = design.region
        # bbox of the placed rectangles: a at (0,0) 2x1 ... pad at (9,9) 1x1
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (0.0, 0.0, 10.0, 10.0)

    def test_cell_name_starting_with_ucla_kept(self, tmp_path):
        # without a NumNodes header nothing would notice a dropped cell
        nodes = NODES.replace("NumNodes : 4\n", "") + "  UCLAcell 1 1\n"
        design = parse_design(write_corpus(tmp_path, nodes=nodes, pl=PL + "UCLAcell 5 5 : N\n"))
        assert design.names == ["a", "b", "c", "pad", "UCLAcell"]

    @pytest.mark.parametrize("terminal, marker", [(" terminal", " /FIXED"), ("", "")], ids=["fixed", "movable"])
    def test_center_that_overflows_is_refused(self, tmp_path, terminal, marker):
        # corner plus half size is inf in both coordinates: refused at the .pl, naming the cell, with no numpy warning
        # (warnings are errors here), whether or not the cell is fixed
        nodes = NODES.replace("pad 1 1 terminal", "pad 1e308 1e308" + terminal)
        pl = PL.replace("pad 9 9 : N /FIXED", "pad 1.7e308 1.7e308 : N" + marker)
        aux = write_corpus(tmp_path, nodes=nodes, pl=pl)
        message = "cell center (corner plus half the cell's size) is not finite: 'pad'"
        with pytest.raises(MalformedLineError, match="^" + re.escape(f"{aux[:-len('.aux')]}.pl:0: {message}") + "$"):
            parse_design(aux)

    def test_pl_fixed_marker_forces_fixed(self, tmp_path):
        pl = PL.replace("c 0 3 : N", "c 0 3 : N /FIXED")
        design = parse_design(write_corpus(tmp_path, pl=pl))
        assert design.fixed[2]
        assert design.num_fixed == 2
        assert design.fixed.tolist() == [False, False, True, True]


class TestPlacementLines:
    """How .pl lines land on cells: bounding-box region, repeated and undeclared names."""

    TWO_CELLS = "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n  a 1 1\n  b 1 1\n"
    ONE_NET = "UCLA nets 1.0\nNumNets : 1\nNumPins : 2\nNetDegree : 2 n\n  a I\n  b I\n"

    def test_region_without_scl_spans_placed_rectangles(self, tmp_path):
        # a (2x1) sets xmin, b sets ymin, c (1x2) sets xmax and ymax through its
        # size; the undeclared ghost is not part of the box
        pl = "UCLA pl 1.0\na -2 1 : N\nb 3 -4 : N\nc 12 7 : N\npad 5 5 : N /FIXED\nghost 100 100 : N\n"
        r = parse_design(write_corpus(tmp_path, pl=pl, scl=None)).region
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (-2.0, -4.0, 13.0, 9.0)
        assert r.rows == []

    @pytest.mark.parametrize("body", ["", "a 1e17 1e17 : N\n"], ids=["nothing-placed", "zero-width-box"])
    def test_degenerate_box_falls_back_to_unit_region(self, tmp_path, caplog, body):
        aux = write_corpus(tmp_path, nodes=self.TWO_CELLS, nets=self.ONE_NET, pl="UCLA pl 1.0\n" + body, scl=None)
        with caplog.at_level(logging.WARNING):
            r = parse_design(aux).region
        assert (r.xmin, r.ymin, r.xmax, r.ymax) == (0.0, 0.0, 1.0, 1.0)
        assert "degenerate placement bounding box; using unit region" in caplog.text

    def test_undeclared_name_skipped_with_warning_by_both_readers(self, tmp_path, caplog):
        aux = write_corpus(tmp_path, pl=PL + "ghost 1 1 : N /FIXED\n")
        with caplog.at_level(logging.WARNING):
            design = parse_design(aux)
        assert "placement for undeclared cell 'ghost' skipped" in caplog.text
        assert design.names == ["a", "b", "c", "pad"] and design.num_fixed == 1
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            g = read_placement(design, str(tmp_path / "tiny.pl"))
        assert "placement for undeclared cell 'ghost' skipped" in caplog.text
        assert g.tolist() == [[1.0, 0.5], [3.5, 0.5], [0.5, 4.0], [9.5, 9.5]]

    def test_repeated_line_keeps_last_position_and_fixed_flag(self, tmp_path):
        pl = PL + "c 4 4 : N /FIXED\nb 1 1 : N /FIXED\nb 2 2 : N\n"
        aux = write_corpus(tmp_path, pl=pl)
        design = parse_design(aux)
        assert design.fixed.tolist() == [False, False, True, True]
        assert design.fixed_xy[2].tolist() == [4.5, 5.0]
        g = read_placement(design, str(tmp_path / "tiny.pl"))
        assert g[1].tolist() == [2.5, 2.5] and g[2].tolist() == [4.5, 5.0]


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

    @pytest.mark.parametrize(
        "text,lineno,entry",
        [
            ("RowBasedPlacement : other.nodes tiny.nodes tiny.nets tiny.pl\n", 1, "tiny.nodes"),
            ("RowBasedPlacement : tiny.nodes tiny.nets tiny.pl tiny.scl\nMore : tiny.pl\n", 2, "tiny.pl"),
            ("RowBasedPlacement : tiny.nodes tiny.nets tiny.pl tiny.scl tiny.scl\n", 1, "tiny.scl"),
        ],
        ids=["nodes", "pl-on-a-second-line", "scl"],
    )
    def test_aux_naming_a_kind_twice(self, tmp_path, text, lineno, entry):
        write_corpus(tmp_path)
        (tmp_path / "other.nodes").write_text(NODES)
        (tmp_path / "tiny.aux").write_text(text)
        with pytest.raises(MalformedLineError) as exc:
            aux_files(str(tmp_path / "tiny.aux"))
        assert exc.value.lineno == lineno
        assert exc.value.reason.startswith(f"second {entry[4:]} entry {entry!r}")

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

    @pytest.mark.parametrize(
        "header,bad,reason",
        [("NumPins : 5", "NumPins : 7", "header declares 7 pins, body has 5"),
         ("NumNets : 2", "NumNets : 3", "header declares 3 nets, body has 2")],
        ids=["pins", "nets"],
    )
    def test_nets_header_count_mismatch(self, tmp_path, header, bad, reason):
        with pytest.raises(MalformedLineError, match=reason):
            parse_design(write_corpus(tmp_path, nets=NETS.replace(header, bad)))

    def test_truncated_net_block(self, tmp_path):
        nets = NETS.replace("  pad I\n", "")
        with pytest.raises(MalformedLineError):
            parse_design(write_corpus(tmp_path, nets=nets))

    @pytest.mark.parametrize(
        "header,bad,lineno",
        [("NetDegree : 3 n_first", "NetDegree : -3 n_first", 4), ("NetDegree : 2 n_pad", "NetDegree : -1 n_pad", 8)],
        ids=["first-net", "last-net"],
    )
    def test_negative_net_degree(self, tmp_path, header, bad, lineno):
        with pytest.raises(MalformedLineError) as exc:
            parse_design(write_corpus(tmp_path, nets=NETS.replace(header, bad)))
        assert exc.value.lineno == lineno
        assert "NetDegree count must be >= 0" in str(exc.value)

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

    @pytest.mark.parametrize(
        "line,bad,lineno",
        [
            ("  Coordinate : 0", "  Coordinate : nan", 4),
            ("  Height : 5", "  Height : inf", 5),
            ("  Sitewidth : 1", "  Sitewidth : -inf", 6),
            ("SubrowOrigin : 0 NumSites", "SubrowOrigin : nan NumSites", 7),
            ("NumSites : 10", "NumSites : inf", 7),
            # a site count that int() would truncate, or a negative one
            ("SubrowOrigin : 0 NumSites : 10", "SubrowOrigin : -4.5 NumSites : 9.9", 7),
            ("NumSites : 10", "NumSites : -3", 7),
            ("NumSites : 10", "NumSites : -0.5", 7),
            # a row of no height or site width, which the region would leave out
            ("  Height : 5", "  Height : -3", 5),
            ("  Height : 5", "  Height : 0", 5),
            ("  Sitewidth : 1", "  Sitewidth : -1", 6),
            ("  Sitewidth : 1", "  Sitewidth : 0", 6),
        ],
    )
    def test_nonfinite_row_attribute(self, tmp_path, line, bad, lineno):
        with pytest.raises(MalformedLineError) as exc:
            parse_design(write_corpus(tmp_path, scl=SCL.replace(line, bad, 1)))
        assert exc.value.lineno == lineno
        if "nan" in bad or "inf" in bad:
            assert exc.value.reason == "row attributes must be finite"
        elif "NumSites" in bad:
            assert exc.value.reason == "NumSites must be a whole number >= 0"
        else:
            assert exc.value.reason == "row height and site width must be > 0"

    @pytest.mark.parametrize("sites", ["10.0", "1e1", "+10", "010"])
    def test_whole_site_count_in_any_spelling(self, tmp_path, sites):
        rows = parse_design(write_corpus(tmp_path, scl=SCL.replace("NumSites : 10", f"NumSites : {sites}"))).region.rows
        assert [r.num_sites for r in rows] == [10, 10]

    @pytest.mark.parametrize(
        "scl,opened,y",
        [(SCL[: SCL.rindex("End")], 9, 0.0), (SCL.replace("End\n", "", 1), 3, 5.0)],
        ids=["at-end-of-file", "cut-short-by-next-corerow"],
    )
    def test_block_without_end_skipped_with_warning(self, tmp_path, caplog, scl, opened, y):
        with caplog.at_level(logging.WARNING):
            rows = parse_design(write_corpus(tmp_path, scl=scl)).region.rows
        assert [r.y for r in rows] == [y]
        assert f"tiny.scl:{opened}: CoreRow block without End skipped" in caplog.text

    def test_error_carries_location(self, tmp_path):
        nets = NETS.replace("  b I\n", "  ghost I\n")
        with pytest.raises(DanglingPinError) as exc:
            parse_design(write_corpus(tmp_path, nets=nets))
        assert "ghost" in str(exc.value)
        assert ".nets" in str(exc.value)

    def test_aux_line_without_colon(self, tmp_path):
        write_corpus(tmp_path)
        (tmp_path / "tiny.aux").write_text("RowBasedPlacement : tiny.nodes tiny.nets\ntiny.pl tiny.scl\n")
        with pytest.raises(MalformedLineError) as exc:
            aux_files(str(tmp_path / "tiny.aux"))
        assert exc.value.lineno == 2
        assert exc.value.reason == "expected 'Tag : file ...'"

    def test_unsupported_aux_entry_skipped_with_warning(self, tmp_path, caplog):
        write_corpus(tmp_path)
        (tmp_path / "tiny.aux").write_text("RowBasedPlacement : tiny.nodes tiny.nets tiny.wts tiny.pl\n")
        with caplog.at_level(logging.WARNING):
            by_ext = aux_files(str(tmp_path / "tiny.aux"))
        assert sorted(by_ext) == [".nets", ".nodes", ".pl"]
        assert "unsupported file tiny.wts skipped" in caplog.text

    def test_fixed_cell_without_placement(self, tmp_path):
        with pytest.raises(MalformedLineError, match="fixed cell has no placement") as exc:
            parse_design(write_corpus(tmp_path, pl=PL.replace("pad 9 9 : N /FIXED\n", "")))
        assert exc.value.lineno == 0
        assert "pad" in str(exc.value)

    def test_read_placement_of_missing_file(self, tmp_path):
        design = parse_design(write_corpus(tmp_path))
        with pytest.raises(MissingFileError, match="missing.pl"):
            read_placement(design, str(tmp_path / "missing.pl"))


class TestPinLines:
    """A pin line is 'name dir [: dx dy]'; offsets never drop to 0 0 without a word."""

    @pytest.mark.parametrize(
        "line",
        ["a I :0.5 0.25", "a I: 0.5 0.25", "a I : 0.5", "a I :", "a I : 0.5 0.25 1", "a I 0.5 0.25", "a I:0.5"],
        ids=["glued-colon", "colon-on-dir", "one-offset", "no-offset", "three-offsets", "no-colon", "dir-glued"],
    )
    def test_malformed_offsets_are_errors_at_their_line(self, tmp_path, line):
        with pytest.raises(MalformedLineError, match=r"expected 'name dir \[: dx dy\]'") as exc:
            parse_design(write_corpus(tmp_path, nets=NETS.replace("a I : 0.5 0", line)))
        assert exc.value.lineno == 5

    @pytest.mark.parametrize(
        "line,dx,dy",
        [("a I", 0.0, 0.0), ("a", 0.0, 0.0), ("a I : 0.5 0.25", 0.5, 0.25), ("a : -1 2", -1.0, 2.0)],
        ids=["no-offsets", "name-only", "offsets", "no-dir"],
    )
    def test_well_formed_pin_lines(self, tmp_path, line, dx, dy):
        design = parse_design(write_corpus(tmp_path, nets=NETS.replace("a I : 0.5 0", line)))
        assert (design.pin_dx[0], design.pin_dy[0]) == (dx, dy)


class TestDesignAccessors:
    def test_pin_table_slices(self, tmp_path):
        design = parse_design(write_corpus(tmp_path))
        net_start, pin_cell, pin_dx, pin_dy = design.pin_table()
        assert net_start.tolist() == [0, 3, 5]
        assert pin_cell.tolist() == [0, 1, 2, 2, 3]
        assert pin_dx[0] == 0.5 and pin_dy[3] == 0.0

    def test_fixed_positions_nan_for_movable(self, tmp_path):
        design = parse_design(write_corpus(tmp_path))
        pos = design.fixed_xy
        assert np.isnan(pos[0]).all()
        assert pos[3].tolist() == [9.5, 9.5]

    def test_nets_view_reads_pin_table(self, tmp_path):
        nets = parse_design(write_corpus(tmp_path)).nets
        assert [net.name for net in nets] == ["n_first", "n_pad"]
        assert [p.cell for p in nets[0].pins] == [0, 1, 2]
        assert (nets[0].pins[2].dx, nets[0].pins[2].dy) == (-0.5, 0.25)

    def test_validate_rejects_bad_pin(self):
        for cell in (3, -1):
            with pytest.raises(GiftPlaceError, match="out of range"):
                Design(**design_fields(pin_cell=np.array([0, 1, 1, cell])))


class TestDerivedFixed:
    """``fixed`` is not a field: it is read from ``fixed_xy`` once and kept."""

    def test_not_a_constructor_field(self):
        with pytest.raises(TypeError, match="fixed"):
            Design(**design_fields(fixed=np.array([False, False, True])))

    def test_rows_holding_a_center_once_and_kept(self):
        fixed_xy = np.array([[1.0, -0.0], [np.nan, np.nan], [9.5, 9.5]])
        design = Design(**design_fields(fixed_xy=fixed_xy))
        assert design.fixed is design.fixed and design.fixed_mask() is design.fixed
        assert design.fixed.dtype == bool and design.fixed.tolist() == [True, False, True]
        np.testing.assert_array_equal(design.fixed, np.isfinite(design.fixed_xy[:, 0]))
        assert (design.num_fixed, design.num_movable) == (2, 1)

    def test_generated_design_fixes_its_io_pads(self):
        design = generate(cells=50, seed=2)
        assert design.fixed.tolist() == [False] * 50 + [True] * (design.num_cells - 50)


class TestDesignBounds:
    def test_clamps_movable_cells_into_the_region_and_pins_fixed_ones(self):
        # the pad's fixed center lies outside the region: its box is that point all the same
        pad = np.array([[np.nan, np.nan], [np.nan, np.nan], [12.5, -3.0]])
        design = Design(**design_fields(fixed_xy=pad, region=Region(0.0, 1.0, 10.0, 5.0)))
        lo, hi = design.bounds
        np.testing.assert_array_equal(lo, [[0.0, 1.0], [0.0, 1.0], [12.5, -3.0]])
        np.testing.assert_array_equal(hi, [[10.0, 5.0], [10.0, 5.0], [12.5, -3.0]])
        assert design.bounds is design.bounds
        g = np.array([[-3.0, 7.0], [4.0, 2.0], [-5.0, 9.0]])
        assert np.clip(g, *design.bounds, out=g) is g
        np.testing.assert_array_equal(g, [[0.0, 5.0], [4.0, 2.0], [12.5, -3.0]])


def design_fields(**override) -> dict:
    """Keyword arguments of a valid three-cell, two-net Design, some replaced."""
    fields = dict(
        names=["a", "b", "pad"],
        widths=np.ones(3),
        heights=np.ones(3),
        fixed_xy=np.array([[np.nan, np.nan], [np.nan, np.nan], [9.5, 9.5]]),
        net_names=["n0", "n1"],
        net_start=np.array([0, 2, 4]),
        pin_cell=np.array([0, 1, 1, 2]),
        pin_dx=np.zeros(4),
        pin_dy=np.zeros(4),
        region=Region(0.0, 0.0, 10.0, 10.0),
    )
    fields.update(override)
    return fields


class TestValidate:
    """Every Design is validated on construction; each invariant has a test."""

    def test_valid_fields_accepted(self):
        design = Design(**design_fields())
        assert design.num_cells == 3 and design.num_nets == 2 and design.num_fixed == 1

    def test_duplicate_name(self):
        with pytest.raises(GiftPlaceError, match="duplicate cell name 'a'"):
            Design(**design_fields(names=["a", "b", "a"]))

    @pytest.mark.parametrize("names, repeated", [
        (["b", "b", "pad"], "b"),  # found by key
        (["a_long_cell_name", "b", "a_long_cell_name"], "a_long_cell_name"),  # found through the dict
        (["pad", "a\x00", "a\x00"], "a\x00"),  # a NUL: through the dict
    ], ids=["short", "long", "nul"])
    def test_duplicate_name_on_either_lookup_path(self, names, repeated):
        with pytest.raises(GiftPlaceError, match=f"^duplicate cell name {re.escape(repr(repeated))}$"):
            Design(**design_fields(names=names))

    @pytest.mark.parametrize("names", [["prefix08a", "prefix08b", "pad"], ["a", "a\x00", "a\x00\x00"]],
                             ids=["shared-8-byte-prefix", "nul-padded"])
    def test_names_alike_in_their_first_8_bytes_are_distinct(self, names):
        design = Design(**design_fields(names=names))
        assert [design.names.get(name) for name in names] == [0, 1, 2]

    @pytest.mark.parametrize("key", ["widths", "heights"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_bad_size(self, key, value):
        with pytest.raises(GiftPlaceError, match="'b' has non-positive or non-finite"):
            Design(**design_fields(**{key: np.array([1.0, value, 1.0])}))

    @pytest.mark.parametrize("xy", [[9.5, np.nan], [np.inf, 9.5], [np.nan, 9.5], [-np.inf, -np.inf]],
                             ids=["y-nan", "x-inf", "x-nan", "both-inf"])
    def test_fixed_xy_row_neither_a_center_nor_nan(self, xy):
        fixed_xy = np.array([[np.nan, np.nan], [np.nan, np.nan], xy])
        with pytest.raises(GiftPlaceError, match="^cell 'pad': fixed_xy must be finite or NaN in both coordinates$"):
            Design(**design_fields(fixed_xy=fixed_xy))

    @pytest.mark.parametrize("net_start", [[0, 3, 2], [0, 2, 3], [0, 2, 5], [1, 2, 4]])
    def test_bad_net_start(self, net_start):
        with pytest.raises(GiftPlaceError, match="net_start"):
            Design(**design_fields(net_start=np.array(net_start)))

    @pytest.mark.parametrize(
        "override",
        [
            {"widths": np.ones(2)},
            {"heights": np.ones(4)},
            {"fixed_xy": np.full(3, np.nan)},
            {"net_names": ["n0"]},
            {"net_start": np.array([0, 2, 3, 4])},
            {"pin_dx": np.zeros(3)},
            {"pin_dy": np.zeros(5)},
        ],
        ids=lambda o: next(iter(o)),
    )
    def test_mismatched_lengths(self, override):
        with pytest.raises(GiftPlaceError, match="inconsistent lengths|rows, one per name"):
            Design(**design_fields(**override))

    @pytest.mark.parametrize(
        "region",
        [
            Region(0.0, 0.0, np.inf, 10.0),
            Region(-np.inf, 0.0, 10.0, 10.0),
            Region(0.0, np.nan, 10.0, 10.0),
            Region(0.0, 0.0, 0.0, 10.0),
        ],
    )
    def test_nonfinite_or_empty_region(self, region):
        with pytest.raises(GiftPlaceError, match="region"):
            Design(**design_fields(region=region))

    @pytest.mark.parametrize("key", ["pin_dx", "pin_dy"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_pin_offset_names_its_net(self, key, value):
        # the .nets parser refuses such an offset; a Design built in memory must too, before the placer diverges on it
        offsets = np.zeros(4)
        offsets[2] = value
        with pytest.raises(GiftPlaceError, match="^net 'n1' has a pin offset that is not finite$"):
            Design(**design_fields(**{key: offsets}))

    @pytest.mark.parametrize(
        "bad",
        [{"y": np.nan}, {"x": np.inf}, {"height": 0.0}, {"height": -1.0}, {"site_width": 0.0}, {"site_width": np.nan},
         {"num_sites": -3}, {"num_sites": 2.5}, {"num_sites": np.inf}],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    def test_row_the_scl_parser_refuses(self, bad):
        # write_design would write this row into an .scl that parse_design rejects
        rows = [Row(y=0.0, height=5.0, x=0.0, num_sites=10), Row(**{"y": 5.0, "height": 5.0, "x": 0.0, "num_sites": 10, **bad})]
        with pytest.raises(GiftPlaceError, match=r"^row 1 Row\(.*\): its values must be finite"):
            Design(**design_fields(region=Region(0.0, 0.0, 10.0, 10.0, rows)))

    def test_rows_the_scl_parser_reads_round_trip(self, tmp_path):
        rows = [Row(y=0.0, height=5.0, x=0.0, num_sites=0, site_width=0.5), Row(y=5.0, height=5.0, x=0.0, num_sites=10.0)]
        aux = write_design(Design(**design_fields(region=Region(0.0, 0.0, 10.0, 10.0, rows))), str(tmp_path), "rows")
        assert parse_design(aux).region.rows == rows

    def test_parsed_design_is_validated(self, tmp_path):
        # a zero-site row gives the region no width; the parser cannot skip the check
        with pytest.raises(GiftPlaceError):
            parse_design(write_corpus(tmp_path, scl=SCL.replace("NumSites : 10", "NumSites : 0")))


class TestRoundTrip:
    def test_write_parse_placement(self, tmp_path, anchored_design):
        rng = np.random.default_rng(7)
        g = rng.uniform(1.0, 11.0, size=(4, 2))
        mask = anchored_design.fixed
        g[mask] = anchored_design.fixed_xy[mask]
        path = str(tmp_path / "out.pl")
        write_placement(anchored_design, g, path)
        back = read_placement(anchored_design, path)
        assert np.abs(back - g).max() <= 1e-6

    def test_write_design_reparses_identically(self, tmp_path, anchored_design):
        aux = write_design(anchored_design, str(tmp_path), "copy")
        again = parse_design(aux)
        assert again.num_cells == anchored_design.num_cells
        assert again.num_fixed == anchored_design.num_fixed
        assert np.array_equal(again.net_start, anchored_design.net_start)
        assert again.fixed_xy[0].tolist() == anchored_design.fixed_xy[0].tolist()

    def test_written_pl_is_deterministic(self, tmp_path, anchored_design):
        g = np.full((4, 2), 3.25)
        p1, p2 = str(tmp_path / "a.pl"), str(tmp_path / "b.pl")
        write_placement(anchored_design, g, p1)
        write_placement(anchored_design, g, p2)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_fixed_marker_round_trips(self, tmp_path, anchored_design):
        path = str(tmp_path / "f.pl")
        g = np.full((4, 2), 2.0)
        mask = anchored_design.fixed
        g[mask] = anchored_design.fixed_xy[mask]
        write_placement(anchored_design, g, path)
        text = Path(path).read_text()
        assert text.count("/FIXED") == 2

    def test_shape_mismatch_rejected(self, tmp_path, anchored_design):
        with pytest.raises(GiftPlaceError):
            write_placement(anchored_design, np.zeros((2, 2)), str(tmp_path / "bad.pl"))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_refused_before_the_file_is_opened(self, tmp_path, anchored_design, value):
        # read_placement refuses such a line, so a written .pl would not read back
        g = np.full((4, 2), 2.0)
        g[2, 1] = value
        with pytest.raises(GiftPlaceError, match="^cell 'm1' has a placement coordinate that is not finite$"):
            write_placement(anchored_design, g, str(tmp_path / "bad.pl"))
        assert not (tmp_path / "bad.pl").exists()

    def test_region_that_is_not_its_rows_bounding_box_refused_before_any_file(self, tmp_path):
        # the .scl of one 5-site row would read back as the region (0, 0, 5, 1), not (0, 0, 10, 10)
        rows = [Row(y=0.0, height=1.0, x=0.0, num_sites=5)]
        design = Design(**design_fields(region=Region(0.0, 0.0, 10.0, 10.0, rows=rows)))
        with pytest.raises(GiftPlaceError, match="^" + re.escape(
                "region (0.0, 0.0, 10.0, 10.0) is not the bounding box of its rows, (0.0, 0.0, 5.0, 1.0)")):
            write_design(design, str(tmp_path / "out"), "d")
        assert not (tmp_path / "out").exists()
        assert Region.of_rows(rows) == Region(0.0, 0.0, 5.0, 1.0, rows=rows)

    def test_read_placement_requires_every_cell(self, tmp_path, anchored_design):
        path = tmp_path / "partial.pl"
        path.write_text("UCLA pl 1.0\nm0 1 1 : N\n")
        with pytest.raises(MalformedLineError):
            read_placement(anchored_design, str(path))


class TestNames:
    """The names of a Design, held as UTF-8 bytes, one name a line: a sequence of str that equals the list of the same
    strings."""

    def test_index_slice_and_equality(self):
        names = Names.of(["a", "b", "", "nœud"])  # a name may be empty
        assert len(names) == 4 and names[1] == "b" and names[-1] == "nœud" and names[np.int64(2)] == ""
        assert names[1:3] == ["b", ""] and names[::2] == ["a", ""] and names[3:1] == [] and names[:1] == ["a"]
        assert names == ["a", "b", "", "nœud"] and list(names) == names and names != ["a"] and Names.of(names) is names
        with pytest.raises(IndexError):
            names[4]

    def test_held_as_utf8_lines(self):
        names = Names.of(["a", "", "nœud"])
        assert names.data == "a\n\nnœud\n".encode() and names.start.tolist() == [0, 2, 3, 9]

    def test_lone_surrogate_reads_back(self):
        # encoded and decoded with surrogatepass, as the lookup encodes a name it is asked for
        names = Names.of(["a", "x\ud800", "\udfff", "nœud"])
        assert [names[i] for i in range(4)] == ["a", "x\ud800", "\udfff", "nœud"] and names[-2] == "\udfff"
        assert names[1:3] == ["x\ud800", "\udfff"] and names[::-1] == ["nœud", "\udfff", "x\ud800", "a"]
        assert [names.get(name) for name in names] == [0, 1, 2, 3] and names.get("\ud800") is None

    @pytest.mark.parametrize("make", [
        lambda: Names.of(["a", "b\nc", "d\n"]),
        lambda: Design(**design_fields(names=["a", "b\nc", "pad"])),
        lambda: Design(**design_fields(net_names=["n0", "b\nc"])),
    ], ids=["names", "cell", "net"])
    def test_newline_name_refused_at_construction(self, make):
        # a newline ends a name, so no name can hold one; the first such name is named
        with pytest.raises(GiftPlaceError, match="^" + re.escape(r"name 'b\nc' holds a newline")):
            make()

    def test_name_with_a_newline_is_no_cell(self):
        names = Names.of(["a", "b", "long_name_c"])
        assert names.get("a\nb") is None and names.get("long_name_c\na") is None and names.get("long_name_c") == 2


class TestUnreadableNames:
    """write_design refuses a name that would not read back, naming the first one, before it writes a file."""

    @pytest.mark.parametrize("names, net_names, bad", [
        (["a", "b", "pad"], ["n 0", "n1"], "net name 'n 0'"),  # read back as n
        (["a", "b", "pad"], ["n#0", "n1"], "net name 'n#0'"),  # read back as n
        (["a", "b", "pad"], ["n0", ""], "net name ''"),  # read back as net1
        (["a", "b", "pad"], ["n\x1c0", "n 1"], r"net name 'n\x1c0'"),  # whitespace to str.isspace, the first of two
        (["a", "c d", "pad"], ["n0", "n1"], "cell name 'c d'"),
        (["a", "c\u3000d", "pad"], ["n0", "n1"], r"cell name 'c\u3000d'"),
        (["a", "c#d", "pad"], ["n0", "n1"], "cell name 'c#d'"),
        (["a", "UCLA", "pad"], ["n0", "n1"], "cell name 'UCLA'"),
        (["a", "b", ""], ["n0", "n1"], "cell name ''"),
        (["a", "NetDegree", "NumNodes"], ["n0", "n1"], "cell name 'NetDegree'"),
        (["a", "b", ":"], ["n0", "n1"], "cell name ':'"),
        (["a", "b", "NumPins"], ["n 0", "n1"], "cell name 'NumPins'"),  # cells are checked first
    ], ids=["net-space", "net-hash", "net-empty", "net-first-of-two", "cell-space", "cell-ideographic-space",
            "cell-hash", "cell-UCLA", "cell-empty", "cell-keywords", "cell-colon", "cell-before-net"])
    def test_refused_before_any_file(self, tmp_path, names, net_names, bad):
        design = Design(**design_fields(names=names, net_names=net_names))
        with pytest.raises(GiftPlaceError, match="^" + re.escape(f"{bad} would not read back")):
            write_design(design, str(tmp_path / "out"), "d")
        assert not (tmp_path / "out").exists()

    def test_names_that_read_back_are_written(self, tmp_path):
        # the reader's words are names in other places: a net may be named UCLA or ':', and a cell UCLAx or I
        design = Design(**design_fields(names=["UCLAx", "I", "nœud"], net_names=["UCLA", ":"]))
        again = parse_design(write_design(design, str(tmp_path), "d"))
        assert again.names == design.names and again.net_names == design.net_names


# Multiples of 0.25 below 1e4 print exactly with both ``:g`` (six significant
# digits) and ``.6f``, and a half width or height is a multiple of 0.125, so a
# fixed center survives the lower-left conversion bit for bit.
QUARTERS = st.integers(-39999, 39999).map(lambda k: k / 4.0)
POSITIVE_QUARTERS = st.integers(1, 39999).map(lambda k: k / 4.0)
ROUND_TRIP_REGION = Region(-2e4, -2e4, 2e4, 2e4, rows=[Row(y=-2e4, height=4e4, x=-2e4, num_sites=40000)])


@st.composite
def small_designs(draw) -> Design:
    """Random small designs: pads, pin offsets, degree-0/1 nets, repeated cells, UCLAcell."""
    names = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,5}", fullmatch=True), min_size=0, max_size=7, unique=True))
    names.insert(draw(st.integers(0, len(names))), "UCLAcell")
    n = len(names)
    fixed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    fixed_xy = np.full((n, 2), np.nan)
    for i in np.flatnonzero(fixed):
        fixed_xy[i] = (draw(QUARTERS), draw(QUARTERS))
    nets = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=5), max_size=6))
    pins = [cell for net in nets for cell in net]
    offsets = draw(st.lists(st.tuples(QUARTERS, QUARTERS), min_size=len(pins), max_size=len(pins)))
    return Design(
        names=names,
        widths=draw(st.lists(POSITIVE_QUARTERS, min_size=n, max_size=n)),
        heights=draw(st.lists(POSITIVE_QUARTERS, min_size=n, max_size=n)),
        fixed_xy=fixed_xy,
        net_names=[f"net_{j}" for j in range(len(nets))],
        net_start=np.cumsum([0] + [len(net) for net in nets]),
        pin_cell=pins,
        pin_dx=[dx for dx, _ in offsets],
        pin_dy=[dy for _, dy in offsets],
        region=ROUND_TRIP_REGION,
    )


EVERY_FEATURE = Design(
    names=["pad", "UCLAcell", "m"],
    widths=[2.5, 1.0, 0.25],
    heights=[1.5, 1.0, 9999.75],
    fixed_xy=[[-3.25, 7.75], [np.nan, np.nan], [np.nan, np.nan]],
    net_names=["empty", "single", "repeat", "offsets"],
    net_start=[0, 0, 1, 4, 6],
    pin_cell=[1, 2, 2, 0, 0, 1],
    pin_dx=[0.0, 0.5, -0.5, 0.0, 1234.25, -0.75],
    pin_dy=[0.0, 0.25, 0.0, -9999.75, 0.0, 0.5],
    region=ROUND_TRIP_REGION,
)


# values a 6-significant-digit format would move: 1.23457, 0.123457 and a row 2.75 units off at 1234570
SEVENTEEN_DIGITS = dataclasses.replace(
    EVERY_FEATURE,
    widths=[2.5, 1.2345678, 0.1 + 0.2],
    pin_dx=[0.0, 0.1234567, -0.5, 0.0, 1234.25, -0.75],
    region=Region(1234567.25, -2e4, 1274567.25, 2e4, rows=[Row(y=-2e4, height=4e4, x=1234567.25, num_sites=40000)]),
)


@settings(max_examples=40, deadline=None)
@example(EVERY_FEATURE)
@example(SEVENTEEN_DIGITS)
@given(small_designs())
def test_write_parse_round_trip_is_exact(tmp_path_factory, design):
    again = parse_design(write_design(design, str(tmp_path_factory.mktemp("rt")), "rt"))
    for key in ("names", "net_names", "widths", "heights", "fixed", "net_start", "pin_cell", "pin_dx", "pin_dy"):
        assert np.array_equal(getattr(again, key), getattr(design, key)), key
    assert np.array_equal(again.fixed_xy, design.fixed_xy, equal_nan=True)
    assert again.region.rows == design.region.rows


def per_line_text(design) -> tuple[str, str, str | None]:
    """The .nodes, .nets and .scl text of ``design`` formatted one f-string per line; no .scl without rows."""
    nodes = ["UCLA nodes 1.0", "", f"NumNodes : {design.num_cells}", f"NumTerminals : {design.num_fixed}"]
    for cell, w, h, fixed in zip(design.names, design.widths.tolist(), design.heights.tolist(), design.fixed.tolist()):
        nodes.append(f"\t{cell}\t{w:.17g}\t{h:.17g}" + ("\tterminal" if fixed else ""))
    nets = ["UCLA nets 1.0", "", f"NumNets : {design.num_nets}", f"NumPins : {design.pin_cell.size}"]
    starts = design.net_start.tolist()
    for j, net in enumerate(design.net_names):
        nets.append(f"NetDegree : {starts[j + 1] - starts[j]} {net}")
        for i in range(starts[j], starts[j + 1]):
            nets.append(f"\t{design.names[design.pin_cell[i]]} I : {design.pin_dx[i]:.17g} {design.pin_dy[i]:.17g}")
    scl = ["UCLA scl 1.0", "", f"NumRows : {len(design.region.rows)}"]
    for row in design.region.rows:
        scl.append("CoreRow Horizontal")
        scl.append(f"\tCoordinate : {row.y:.17g}")
        scl.append(f"\tHeight : {row.height:.17g}")
        scl.append(f"\tSitewidth : {row.site_width:.17g}")
        scl.append(f"\tSubrowOrigin : {row.x:.17g} NumSites : {row.num_sites}")
        scl.append("End")
    return "\n".join(nodes) + "\n", "\n".join(nets) + "\n", "\n".join(scl) + "\n" if design.region.rows else None


SIZES = st.sampled_from([1.5e-7, 1e16, 2.5, 1e-300]) | st.floats(min_value=5e-324, allow_infinity=False)
OFFSETS = st.sampled_from([-0.0, 1.5e-7, 1e16, -2.5]) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def designs_with_any_numbers(draw) -> Design:
    """``small_designs`` with sizes, pin offsets and rows drawn from all finite floats; there may be no row. A region
    with rows is their bounding box; a draw whose box is not finite with positive extent, or whose center is not
    finite (``write_design`` writes movable cells there), is skipped."""
    design = draw(small_designs())
    n, pins = design.num_cells, design.pin_cell.size
    row = st.builds(Row, y=OFFSETS, height=SIZES, x=OFFSETS, num_sites=st.integers(0, 10**9), site_width=SIZES)
    rows = draw(st.lists(row, max_size=3))
    region = Region.of_rows(rows) if rows else dataclasses.replace(ROUND_TRIP_REGION, rows=[])
    assume(np.isfinite([region.xmin, region.ymin, region.xmax, region.ymax, *region.center]).all()
           and region.xmax > region.xmin and region.ymax > region.ymin)
    return dataclasses.replace(
        design,
        region=region,
        widths=draw(st.lists(SIZES, min_size=n, max_size=n)),
        heights=draw(st.lists(SIZES, min_size=n, max_size=n)),
        pin_dx=draw(st.lists(OFFSETS, min_size=pins, max_size=pins)),
        pin_dy=draw(st.lists(OFFSETS, min_size=pins, max_size=pins)),
    )


NO_PADS = dataclasses.replace(
    EVERY_FEATURE,
    widths=[1.5e-7, 1e16, 2.5],
    fixed_xy=np.full((3, 2), np.nan),
    pin_dx=[-0.0, 1.5e-7, 1e16, -2.5, 0.0, -1e16],
)


@settings(max_examples=60, deadline=None)
@example(EVERY_FEATURE)
@example(NO_PADS)
@example(dataclasses.replace(NO_PADS, region=dataclasses.replace(ROUND_TRIP_REGION, rows=[])))
@given(designs_with_any_numbers())
def test_write_design_matches_the_per_line_form(tmp_path_factory, design):
    out = tmp_path_factory.mktemp("lines")
    write_design(design, str(out), "d")
    nodes, nets, scl = per_line_text(design)
    assert (out / "d.nodes").read_bytes() == nodes.encode()
    assert (out / "d.nets").read_bytes() == nets.encode()
    if scl is None:
        assert not (out / "d.scl").exists()
    else:
        assert (out / "d.scl").read_bytes() == scl.encode()


# both signed zeros as offsets and coordinates, fractional sizes and offsets, empty nets, non-ASCII names, fixed pads
SIGNED_ZEROS = Design(
    names=["pad_é", "ノード", "m", "pad2"],
    widths=[2.5, 0.1 + 0.2, 1.0, 3.0],
    heights=[1.5, 1.0, 1.2345678, 1.0],
    fixed_xy=[[-3.25, 7.75], [np.nan, np.nan], [np.nan, np.nan], [-0.0, 0.0]],
    net_names=["empty", "zeros", "ネット", "empty2", "fractions"],
    net_start=[0, 0, 4, 5, 5, 8],
    pin_cell=[0, 1, 2, 3, 1, 2, 0, 3],
    pin_dx=[0.0, -0.0, 0.0, -0.0, 0.125, -0.0, 1.0 / 3.0, -2.5e-7],
    pin_dy=[-0.0, 0.0, -0.0, 0.0, -0.375, 0.0, -1e16, 0.0],
    region=ROUND_TRIP_REGION,
)
WRITTEN = {"signed-zeros": SIGNED_ZEROS, "every-feature": EVERY_FEATURE, "no-pads": NO_PADS,
           "benchgen": generate(cells=60, fanout={2: 0.5, 3: 0.3, 7: 0.2}, long_range_fraction=0.5, seed=1)}


@pytest.mark.parametrize("rows_per_write", [1, 2, 3, 10**6], ids=["slice-1", "slice-2", "slice-3", "one-slice"])
@pytest.mark.parametrize("name", list(WRITTEN))
def test_writers_write_the_bytes_of_the_whole_file_writers(tmp_path, monkeypatch, name, rows_per_write):
    design = WRITTEN[name]
    placement = np.random.default_rng(3).uniform(-5.0, 5.0, (design.num_cells, 2))
    placement[0] = (-0.0, 1.0 / 3.0)
    monkeypatch.setattr(netlist, "WRITE_SLICE", rows_per_write)
    for out, writers in ((tmp_path / "sliced", netlist), (tmp_path / "whole", writer_reference)):
        writers.write_design(design, str(out), "d")
        writers.write_placement(design, placement, str(out / "start.pl"))
    for ext in ("aux", "nodes", "nets", "pl", "scl"):
        assert (tmp_path / "sliced" / f"d.{ext}").read_bytes() == (tmp_path / "whole" / f"d.{ext}").read_bytes(), ext
    assert (tmp_path / "sliced" / "start.pl").read_bytes() == (tmp_path / "whole" / "start.pl").read_bytes()
