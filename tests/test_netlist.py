"""Bookshelf parsing, validation, and write/read round-trips."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
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
        assert np.diff(design.net_start).tolist() == [3, 2]
        assert design.net_names == ["n_first", "n_pad"]

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

    def test_pl_fixed_marker_forces_fixed(self, tmp_path):
        pl = PL.replace("c 0 3 : N", "c 0 3 : N /FIXED")
        design = parse_design(write_corpus(tmp_path, pl=pl))
        assert design.fixed[2]
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
        ],
    )
    def test_nonfinite_row_attribute(self, tmp_path, line, bad, lineno):
        with pytest.raises(MalformedLineError) as exc:
            parse_design(write_corpus(tmp_path, scl=SCL.replace(line, bad, 1)))
        assert exc.value.lineno == lineno

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


def design_fields(**override) -> dict:
    """Keyword arguments of a valid three-cell, two-net Design, some replaced."""
    fields = dict(
        names=["a", "b", "pad"],
        widths=np.ones(3),
        heights=np.ones(3),
        fixed=np.array([False, False, True]),
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

    @pytest.mark.parametrize("key", ["widths", "heights"])
    @pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
    def test_bad_size(self, key, value):
        with pytest.raises(GiftPlaceError, match="'b' has non-positive or non-finite"):
            Design(**design_fields(**{key: np.array([1.0, value, 1.0])}))

    @pytest.mark.parametrize("xy", [[np.nan, np.nan], [9.5, np.nan], [np.inf, 9.5]])
    def test_fixed_cell_without_finite_position(self, xy):
        fixed_xy = np.array([[np.nan, np.nan], [np.nan, np.nan], xy])
        with pytest.raises(GiftPlaceError, match="'pad'"):
            Design(**design_fields(fixed_xy=fixed_xy))

    def test_movable_cell_with_position(self):
        fixed_xy = np.array([[1.0, 1.0], [np.nan, np.nan], [9.5, 9.5]])
        with pytest.raises(GiftPlaceError, match="'a'"):
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
            {"fixed": np.array([False, True])},
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

    def test_parsed_design_is_validated(self, tmp_path):
        # a zero-site row gives the region no width; the parser cannot skip the check
        with pytest.raises(GiftPlaceError):
            parse_design(write_corpus(tmp_path, scl=SCL.replace("NumSites : 10", "NumSites : 0")))


class TestRoundTrip:
    def test_write_parse_placement(self, tmp_path, anchored_design):
        rng = np.random.default_rng(7)
        g = rng.uniform(1.0, 11.0, size=(4, 2))
        mask = anchored_design.fixed_mask()
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
        mask = anchored_design.fixed_mask()
        g[mask] = anchored_design.fixed_xy[mask]
        write_placement(anchored_design, g, path)
        text = Path(path).read_text()
        assert text.count("/FIXED") == 2

    def test_shape_mismatch_rejected(self, tmp_path, anchored_design):
        with pytest.raises(GiftPlaceError):
            write_placement(anchored_design, np.zeros((2, 2)), str(tmp_path / "bad.pl"))

    def test_read_placement_requires_every_cell(self, tmp_path, anchored_design):
        path = tmp_path / "partial.pl"
        path.write_text("UCLA pl 1.0\nm0 1 1 : N\n")
        with pytest.raises(MalformedLineError):
            read_placement(anchored_design, str(path))


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
        fixed=fixed,
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
    fixed=[True, False, False],
    fixed_xy=[[-3.25, 7.75], [np.nan, np.nan], [np.nan, np.nan]],
    net_names=["empty", "single", "repeat", "offsets"],
    net_start=[0, 0, 1, 4, 6],
    pin_cell=[1, 2, 2, 0, 0, 1],
    pin_dx=[0.0, 0.5, -0.5, 0.0, 1234.25, -0.75],
    pin_dy=[0.0, 0.25, 0.0, -9999.75, 0.0, 0.5],
    region=ROUND_TRIP_REGION,
)


@settings(max_examples=40, deadline=None)
@example(EVERY_FEATURE)
@given(small_designs())
def test_write_parse_round_trip_is_exact(tmp_path_factory, design):
    again = parse_design(write_design(design, str(tmp_path_factory.mktemp("rt")), "rt"))
    for key in ("names", "net_names", "widths", "heights", "fixed", "net_start", "pin_cell", "pin_dx", "pin_dy"):
        assert np.array_equal(getattr(again, key), getattr(design, key)), key
    assert np.array_equal(again.fixed_xy, design.fixed_xy, equal_nan=True)
