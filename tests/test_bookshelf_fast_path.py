"""The chunked Bookshelf reader against the line-by-line reference parser.

Every .nodes, .nets and .pl file, valid or not, must parse exactly as the
reference in ``bookshelf_reference.py`` parses it: the same ``Design`` arrays
and warnings, or the same exception, message and line.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from giftplace import Design, Region, Row, generate, netlist, parse_design, read_placement, write_design, write_placement

import bookshelf_reference as reference

FILES = (".nodes", ".nets", ".pl")
ARRAYS = ("widths", "heights", "fixed", "fixed_xy", "net_start", "pin_cell", "pin_dx", "pin_dy")


def _offsets_design() -> Design:
    """Fractional sizes and offsets, negative corners, a net of 12 pins, empty nets."""
    region = Region(-8.0, -8.0, 8.0, 8.0, rows=[Row(y=-8.0, height=16.0, x=-8.0, num_sites=16)])
    n = 14
    fixed_xy = np.full((n, 2), np.nan)
    fixed_xy[0] = (-7.25, 6.5)
    pins = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 0, 13, 13, 1]
    return Design(
        names=[f"cell{i}" for i in range(n)],
        widths=[0.5 + 0.25 * i for i in range(n)],
        heights=[1.0] * (n - 1) + [12.0],
        fixed_xy=fixed_xy,
        net_names=["wide", "none", "pad", "twice", "none2"],
        net_start=[0, 12, 12, 14, 16, 16],
        pin_cell=pins,
        pin_dx=[0.25 * (i % 5) - 0.5 for i in range(len(pins))],
        pin_dy=[-1.5e-3 * i for i in range(len(pins))],
        region=region,
    )


def _byte_names_design() -> Design:
    """Names a cut from a chunk's bytes must get whole, two of them sharing their first 8 bytes: of the
    kinds ``NAMES`` holds below, but none of those, so that a renamed cell repeats no name."""
    design = generate(cells=12, seed=3)
    names = ["nœud", "ノード1", "another_name_longer_than_8", "shared08_x", "shared08_y"]
    return dataclasses.replace(design, names=names + design.names[len(names):])


BASES = [generate(cells=12, seed=1), generate(cells=16, seed=2, fanout={2: 0.5, 3: 0.3, 11: 0.2}), _offsets_design(),
         _byte_names_design()]
PLACEMENTS = [np.random.default_rng(i).uniform(-3.0, 3.0, (d.num_cells, 2)) for i, d in enumerate(BASES)]
# cell names the reference reads as banners or headers, or that look like them, and names a cut from
# a chunk's bytes must get whole: multi-byte UTF-8, longer than 8 bytes, sharing their first 8 bytes
NAMES = ["UCLA", "UCLAcell", "NetDegree", "NumNodes", "NumTerminals", "NumNets", "NumPins", ":", "/FIXED", "c0:1",
         "cé", "セル0", "a_cell_name_longer_than_8_bytes", "prefix08_a", "prefix08_b"]
TOKENS = ["0", "7", "12", "-1", "+2", "03", "1_0", "1e3", "0.5", "-0", "nan", "inf", "x", ":", ":0.5", "0.5:",
          "I", "NetDegree", "NumPins", "NumNets", "NumNodes", "UCLA", "UCLAx", "/FIXED", "/FIXED_NI", "terminal",
          "terminal_NI", "N", "c0", "c1", "n0", "p0"]
LINES = ["", "# note", "UCLA nets 1.0", "NetDegree : 1 extra", "NetDegree : 0 empty", "NumNodes : 3", "NumNets : 1",
         "NumPins : 2", "NumTerminals : 0", "c0 I : 0.5", "c0 I :0.5 0.25", "c0 I 0.5 0.25", "c1 O : 1 2",
         "c2 1 1", "UCLAcell 1 1", "NetDegree 1 1", "ghost 1 2 : N", "c1 5 5 : N /FIXED", "c0 1 1 : N",
         "c3 2.5 -1 : FS", "\tc4\t1\t1\tterminal"]
MUTATIONS = ["drop-token", "dup-token", "alter-token", "drop-line", "dup-line", "insert-line", "alter-line",
             "join-lines", "split-line", "comment", "crlf", "space-run", "header-comment", "lone-cr",
             "\xa0", "\x85", "\u3000"]


def _mutate(text: str, kind: str, rnd, token_pool: list[str] = TOKENS, line_pool: list[str] = LINES) -> str:
    """One edit of a file's text at a place drawn from ``rnd``; new tokens and lines come from the pools."""
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    lines = text.split("\n")
    if kind == "header-comment":  # as in ISPD contest files, after the banner
        lines.insert(1, "# Created : Sun Oct 18 2026")
        return "\n".join(lines)
    i = rnd.randrange(len(lines))
    tokens = lines[i].split()
    j = rnd.randrange(len(tokens)) if tokens else 0
    if kind in ("drop-token", "dup-token", "alter-token", "split-line") and tokens:
        if kind == "drop-token":
            del tokens[j]
        elif kind == "dup-token":
            tokens.insert(j, tokens[j])
        elif kind == "alter-token":
            tokens[j] = rnd.choice(token_pool)
        else:
            tokens.insert(j, "\n")
        lines[i] = " ".join(tokens).replace(" \n ", "\n").replace("\n ", "\n")
    elif kind == "drop-line":
        del lines[i]
    elif kind == "dup-line":
        lines.insert(i, lines[i])
    elif kind == "insert-line":
        lines.insert(i, rnd.choice(line_pool))
    elif kind == "alter-line":
        lines[i] = rnd.choice(line_pool)
    elif kind == "join-lines" and i + 1 < len(lines):
        lines[i:i + 2] = [lines[i] + " " + lines[i + 1]]
    elif kind == "comment":
        lines[i] += " # c : 1"
    elif kind == "space-run":
        lines[i] = "  " + lines[i].replace(" ", " \t ")
    elif kind == "lone-cr" and i + 1 < len(lines):
        lines[i:i + 2] = [lines[i] + "\r" + lines[i + 1]]
    elif kind in ("\xa0", "\x85", "\u3000"):  # a non-ASCII separator in place of one space or tab
        gaps = [m.start() for m in re.finditer(r"[ \t]", lines[i])]
        at = rnd.choice(gaps) if gaps else 0
        lines[i] = lines[i][:at] + kind + lines[i][at + bool(gaps):]
    return "\n".join(lines)


class _Records(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())


def _outcome(fn, *args):
    """(value or (exception type, message, line), warnings logged)."""
    records = _Records()
    logger = logging.getLogger("giftplace")
    logger.addHandler(records)
    try:
        value = fn(*args)
    except Exception as exc:  # the reference's own exceptions are compared too
        value = (type(exc), str(exc), getattr(exc, "lineno", None))
    finally:
        logger.removeHandler(records)
    return value, records.messages


def _by_line(fn, *args):
    """``fn(*args)`` with the reference line parser reading .nodes, .nets and .pl."""
    with mock.patch.object(netlist, "_parse_nodes", reference._parse_nodes), \
            mock.patch.object(netlist, "_parse_nets", reference._parse_nets), \
            mock.patch.object(netlist, "_parse_pl", reference._parse_pl):
        return _outcome(fn, *args)


def _assert_same(a, b) -> None:
    (va, wa), (vb, wb) = a, b
    assert wa == wb
    assert type(va) is type(vb)
    if isinstance(va, Design):
        assert va.names == vb.names and va.net_names == vb.net_names
        for key in ARRAYS:
            x, y = getattr(va, key), getattr(vb, key)
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes(), key
        assert vars(va.region) == vars(vb.region)
    elif isinstance(va, np.ndarray):
        assert va.dtype == vb.dtype and va.shape == vb.shape and va.tobytes() == vb.tobytes()
    else:
        assert va == vb


def _pinned(design: Design, placement: np.ndarray) -> np.ndarray:
    """``placement`` with the fixed cells at their fixed centers, as the design's own .pl must place them."""
    return np.where(design.fixed[:, None], design.fixed_xy, placement)


def _written(tmp_dir: str, base: int, name: str | None = None, cell: int = 0) -> dict[str, str]:
    """Write base design ``base``, with cell ``cell`` renamed to ``name`` if given. ``write_design`` refuses a name
    that would not read back, as most of ``NAMES`` would not, so the cell is written under a stand-in name that the
    written files then trade for ``name``."""
    design, stand_in = BASES[base], "stand_in_for_the_renamed_cell"
    if name is not None:
        design = dataclasses.replace(design, names=[stand_in if i == cell else n for i, n in enumerate(design.names)])
    write_design(design, tmp_dir, "d")
    paths = {ext: os.path.join(tmp_dir, "d" + ext) for ext in (".aux", *FILES)}
    write_placement(design, _pinned(design, PLACEMENTS[base]), paths[".pl"])
    for ext in FILES if name is not None else ():
        with open(paths[ext], newline="") as f:
            text = f.read()
        with open(paths[ext], "w", newline="") as f:
            f.write(text.replace(stand_in, name))
    return paths


@pytest.mark.parametrize("chunk", [24, 200, netlist.CHUNK_BYTES], ids=["chunk-24", "chunk-200", "chunk-default"])
@pytest.mark.parametrize("base", range(len(BASES)))
def test_written_designs_take_the_chunked_path(tmp_path, base, chunk):
    """Written designs parse at every chunk size exactly as the reference parses them."""
    paths = _written(str(tmp_path), base)
    by_line = _by_line(parse_design, paths[".aux"])
    by_line_pl = _by_line(read_placement, by_line[0], paths[".pl"])
    with mock.patch.object(netlist, "CHUNK_BYTES", chunk):
        chunked = _outcome(parse_design, paths[".aux"])
        _assert_same(chunked, by_line)
        _assert_same(_outcome(read_placement, chunked[0], paths[".pl"]), by_line_pl)


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_ispd_style_headers_parse_to_the_plain_arrays(tmp_path, newline):
    """``# Created``/``# User`` comments and a blank line after each banner, as in
    ISPD contest files, with LF or CRLF line ends: bit-identical arrays."""
    plain = _written(str(tmp_path / "plain"), 1)
    contest = _written(str(tmp_path / "contest"), 1)
    for ext in FILES:
        with open(contest[ext]) as f:
            banner, rest = f.read().split("\n\n", 1)
        text = f"{banner}\n# Created : Sun Oct 18 2026\n# User : someone@example.com (Some One)\n\n{rest}"
        with open(contest[ext], "w", newline="") as f:
            f.write(text.replace("\n", newline))
    _assert_same(_outcome(parse_design, contest[".aux"]), _outcome(parse_design, plain[".aux"]))
    _assert_same(_by_line(parse_design, contest[".aux"]), _outcome(parse_design, plain[".aux"]))


# Edits the random mutations below reach rarely: (file, pattern, replacement) on base 0
EDITS = [
    (".nodes", r"\tc0\t1\t1\n", r"\tc0\t1\t1\tterminal_NI\n"),
    (".nodes", r"\tc0\t1\t1\n", r"\tc0\t1\t1\tmovable\n"),
    (".nodes", r"\tc0\t1\t1\n", r"\tc0\t1_0\t1\n"),
    (".nodes", r"\tc0\t1\t1\n", r"\tc0\t1\r1\n"),
    (".nodes", r"\tc0\t1\t1\n", "\tc0\t1\t1\x00\n"),
    (".nodes", r"\tc0\t1\t1\n", "\tc0\x0b1\x0c1\x1c\n"),
    (".nodes", r"\tc0\t1\t1\n", r"\tc0\t1\t1\tx\tterminal\n"),
    (".nodes", r"NumTerminals : \d+", "NumTerminals : 0"),
    (".nodes", r"NumNodes : (\d+)", r"NumNodes \1"),
    (".nets", r"NetDegree : 2 n0\n", r"NetDegree : 2 n0 extra\n"),
    (".nets", r"NetDegree : 2 n0\n", r"NetDegree : 2 n0#x\n"),
    (".nets", r"NetDegree : 2 n0\n", r"NetDegree : +2 n0\n"),
    (".nets", r"NetDegree : 2 n0\n", r"NetDegree : 02 n0\n"),
    (".nets", r"NetDegree : 2 n0\n", r"NetDegree : 3 n0\n"),
    (".nets", r"NetDegree : 2 n0\n", r"NetDegree :2 n0\n"),
    (".nets", r"NetDegree : 2 n0\n", r"NetDegree : 2\n"),
    (".nets", r"NumPins : \d+", "NumPins : 99"),
    (".nets", r"NumPins : (\d+)", r"NumPins : \1 x"),
    (".nets", r"\tc0 I : 0 0\n", r"\tc0 I : 1e-3 -0\n"),
    (".nets", r"\tc0 I : 0 0\n", r"\tc0 I : 00 0.50\n"),
    (".nets", r"\tc0 I : 0 0\n", r"\tc0 : : 0 0\n"),
    (".nets", r"\tc0 I : 0 0\n", "\tc0\x01I : 0 0\n"),
    (".nets", r"\tc0 I : 0 0\n", "\tc0\xa0I : 0 0\n"),
    (".nets", r"\tc0 I : 0 0\n", "\tc0\x85I : 0 0\n"),
    (".nets", r"\tc0 I : 0 0\n", "\tc0 I : 0 0\rc1 I : 0 0\n"),
    (".pl", r"(c0\t\S+\t\S+\t: )N", r"\1/FIXED"),
    (".pl", r"(c0\t\S+\t\S+\t: N)", r"\1 /FIXED_NI"),
    (".pl", r"(c0\t\S+\t\S+\t: N)", r"\1 keep"),
    (".pl", r"(c1\t.*\n)", r"\1\1"),
    (".pl", r"(c1\t.*\n)", r"\1c1 0 0 : N\n"),
    (".pl", r"(c1\t.*\n)", r"\1ghost 1 1 : N\n"),
    (".pl", r"(c1\t.*\n)", r"\1UCLA pl 1.0\n"),
    (".pl", r"(c1\t.*\n)", ""),
]


@pytest.mark.parametrize("ext,pattern,repl", EDITS, ids=[f"{ext[1:]}-{i}" for i, (ext, _, _) in enumerate(EDITS)])
def test_edited_files_parse_as_the_line_parser_parses_them(tmp_path, ext, pattern, repl):
    paths = _written(str(tmp_path), 0)
    with open(paths[ext], encoding="utf-8", newline="") as f:
        text, count = re.subn(pattern, repl, f.read(), count=1)
    assert count == 1
    with open(paths[ext], "w", encoding="utf-8", newline="") as f:
        f.write(text)
    _assert_same(_outcome(parse_design, paths[".aux"]), _by_line(parse_design, paths[".aux"]))
    _assert_same(_outcome(read_placement, BASES[0], paths[".pl"]), _by_line(read_placement, BASES[0], paths[".pl"]))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, len(BASES) - 1), name=st.one_of(st.none(), st.sampled_from(NAMES)),
       ext=st.sampled_from(FILES), kind=st.one_of(st.none(), st.sampled_from(MUTATIONS)),
       chunk=st.sampled_from([24, 200, 1 << 19]), rnd=st.randoms(use_true_random=False))
def test_mutated_files_parse_as_the_line_parser_parses_them(tmp_path_factory, base, name, ext, kind, chunk, rnd):
    cell = rnd.randrange(BASES[base].num_cells)
    paths = _written(str(tmp_path_factory.mktemp("mut")), base, name, cell)
    if kind is not None:
        with open(paths[ext], newline="") as f:
            text = f.read()
        with open(paths[ext], "w", newline="") as f:
            f.write(_mutate(text, kind, rnd))
    with mock.patch.object(netlist, "CHUNK_BYTES", chunk):
        _assert_same(_outcome(parse_design, paths[".aux"]), _by_line(parse_design, paths[".aux"]))
        if ext == ".pl" and name is None:
            design = BASES[base]
            _assert_same(_outcome(read_placement, design, paths[".pl"]), _by_line(read_placement, design, paths[".pl"]))


# .scl tokens and lines: whole, fractional and negative site counts, glued and misplaced colons
SCL_TOKENS = ["0", "1", "10", "10.0", "1e1", "-3", "-4.5", "9.9", "-0", "nan", "inf", "x", ":", ":5", "5:", "NumSites",
              "CoreRow", "End", "Coordinate", "Height", "SubrowOrigin", "UCLA"]
SCL_LINES = ["", "# note", "UCLA scl 1.0", "NumRows : 3", "CoreRow Horizontal", "End", "Coordinate : 2", "Coordinate:2",
             "Coordinate 5 : 1", "Height : 1", "Height : nan", "Sitewidth : 0.5", "Sitewidth : inf", "Siteorient : N",
             "SubrowOrigin : -4.5 NumSites : 9", "SubrowOrigin:3 NumSites:7", "SubrowOrigin : 1 NumSites",
             "SubrowOrigin : 1", "SubrowOrigin : 2 NumSites : 9.9", "SubrowOrigin : 0 NumSites : -2",
             "SubrowOrigin : 0 NumSites : inf", "SubrowOrigin : nan NumSites : 0.5", "Height : 0", "Sitewidth : -1"]
# edits that reach the row values more often than the generic ones do
SCL_MUTATIONS = MUTATIONS + ["alter-token"] * 8 + ["alter-line", "insert-line"] * 4


def _lineno(warning: str) -> int:
    return int(re.search(r":(\d+): ", warning).group(1))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(base=st.integers(0, len(BASES) - 1), kinds=st.lists(st.sampled_from(SCL_MUTATIONS), max_size=4),
       chunk=st.sampled_from([24, 200, 1 << 19]), rnd=st.randoms(use_true_random=False))
def test_mutated_scl_parses_as_the_line_parser_parses_it(tmp_path_factory, base, kinds, chunk, rnd):
    """The same rows and warnings, or the same exception, message and line, as the reference, except
    that a fractional or negative ``NumSites``, which the reference truncates, and a ``Height`` or
    ``Sitewidth`` of at most 0, which it keeps, are errors at their line."""
    tmp_dir = str(tmp_path_factory.mktemp("scl"))
    _written(tmp_dir, base)
    path = os.path.join(tmp_dir, "d.scl")
    with open(path, newline="") as f:
        text = f.read()
    for kind in kinds:
        text = _mutate(text, kind, rnd, SCL_TOKENS, SCL_LINES)
    with open(path, "w", newline="") as f:
        f.write(text)
    with mock.patch.object(netlist, "CHUNK_BYTES", chunk):
        chunked = _outcome(netlist._parse_scl, path)
    by_line = _outcome(reference._parse_scl, path)
    value, warnings = chunked
    reason = value[1] if isinstance(value, tuple) else ""
    if not ("NumSites must be a whole number >= 0" in reason or "row height and site width must be > 0" in reason):
        return _assert_same(chunked, by_line)
    # the reference read that line without an error, and warned alike before it
    lineno = value[2]
    with open(path) as f:
        line = list(f)[lineno - 1].split("#", 1)[0]
    if "NumSites" in reason:
        parts = line.replace(":", " ").split()
        sites = float(parts[parts.index("NumSites") + 1])
        assert math.isfinite(sites) and (sites < 0 or sites != int(sites))
    else:
        assert line.split()[0] in ("Height", "Sitewidth") and float(line.partition(":")[2]) <= 0
    ref_value, ref_warnings = by_line
    assert isinstance(ref_value, list) or ref_value[2] > lineno
    # the block that holds the line was open there: the reference warns of it, if at all, after the line
    opened = max(n for n, line in reference._data_lines(path) if n < lineno and line.split()[0] == "CoreRow")
    unclosed = f"{path}:{opened}: CoreRow block without End skipped"
    assert warnings == [w for w in ref_warnings if _lineno(w) < lineno and w != unclosed]


# Names at the edges of the key path: of 8 bytes and of 9, sharing their first 8 bytes, holding a NUL (which pads a
# key alike) or another control byte, and non-ASCII of at most 8 UTF-8 bytes and of more
KEY_NAMES = {
    "8-and-9-bytes": ["abcdefgh", "abcdefghi", "abcdefg"],
    "shared-8-byte-prefix": ["prefix08", "prefix08a", "prefix08b"],
    "nul": ["a", "a\x00", "a\x00\x00"],
    "control-byte": ["a\x01", "\x7f", "b\x1b[0m"],
    "non-ascii-at-most-8": ["nœud", "ノー", "éééé"],
    "non-ascii-over-8": ["ノード", "nœud_long", "éééée"],
}


@pytest.mark.parametrize("chunk", [24, netlist.CHUNK_BYTES], ids=["chunk-24", "chunk-default"])
@pytest.mark.parametrize("names", KEY_NAMES.values(), ids=KEY_NAMES.keys())
def test_names_at_the_edges_of_the_key_path_find_their_cells(tmp_path, names, chunk):
    """Each name finds its own cell, by key or through the dict: the reference's arrays, and ``get`` gives each
    name the id of its cell and a name of no cell None."""
    design = dataclasses.replace(BASES[0], names=names + BASES[0].names[len(names):])
    write_design(design, str(tmp_path), "d")
    aux, pl = str(tmp_path / "d.aux"), str(tmp_path / "d.pl")
    write_placement(design, _pinned(design, PLACEMENTS[0]), pl)
    with mock.patch.object(netlist, "CHUNK_BYTES", chunk):
        parsed = _outcome(parse_design, aux)
        _assert_same(parsed, _by_line(parse_design, aux))
        _assert_same(_outcome(read_placement, design, pl), _by_line(read_placement, design, pl))
    assert parsed[0].names == design.names
    assert [design.names.get(name) for name in design.names] == list(range(design.num_cells))
    assert [design.names.get(name) for name in ("a\x00\x00\x00", "abcdefgh\x00", "prefix08c", "ノ")] == [None] * 4


# One edit of base 3, whose cells have names of at most 8 bytes and of more: a dangling pin, an undeclared .pl name
# and a repeated .nodes name, each named on the key path and on the dict path; and a repeated name with another fault
# after it, before it and on its own line
PATH_EDITS = {
    "dangling-pin-key": (".nets", "\tnœud I : ", "\tghost I : "),
    "dangling-pin-dict": (".nets", "\tnœud I : ", "\tghost_of_a_cell I : "),
    "undeclared-pl-key": (".pl", "\nc5\t", "\nghost 1 1 : N\nc5\t"),
    "undeclared-pl-dict": (".pl", "\nc5\t", "\nghost_of_a_cell 1 1 : N\nc5\t"),
    "repeated-key": (".nodes", "\tc5\t1\t1\n", "\tc5\t1\t1\n" * 2),
    "repeated-dict": (".nodes", "\tanother_name_longer_than_8\t1\t1\n", "\tanother_name_longer_than_8\t1\t1\n" * 2),
    "repeated-far": (".nodes", "\tc11\t1\t1\n", "\tc11\t1\t1\n\tnœud\t1\t1\n"),
    "repeated-then-fault": (".nodes", "\tc5\t1\t1\n", "\tc5\t1\t1\n\tc5\t1\t1\n\tc98\tx\t1\n"),
    "fault-then-repeated": (".nodes", "\tc5\t1\t1\n", "\tc98\tx\t1\n\tc5\t1\t1\n\tc5\t1\t1\n"),
    "repeated-with-fault": (".nodes", "\tc5\t1\t1\n", "\tc5\t1\t1\n\tc5\tx\t1\n"),
}


@pytest.mark.parametrize("chunk", [24, 200, netlist.CHUNK_BYTES], ids=["chunk-24", "chunk-200", "chunk-default"])
@pytest.mark.parametrize("ext,old,new", PATH_EDITS.values(), ids=PATH_EDITS.keys())
def test_faults_on_either_lookup_path_as_the_line_parser_finds_them(tmp_path, ext, old, new, chunk):
    paths = _written(str(tmp_path), 3)
    with open(paths[ext], encoding="utf-8", newline="") as f:
        text = f.read()
    assert old in text
    with open(paths[ext], "w", encoding="utf-8", newline="") as f:
        f.write(text.replace(old, new, 1))
    with mock.patch.object(netlist, "CHUNK_BYTES", chunk):
        parsed = _outcome(parse_design, paths[".aux"])
        placed = _outcome(read_placement, BASES[3], paths[".pl"])
    _assert_same(parsed, _by_line(parse_design, paths[".aux"]))
    _assert_same(placed, _by_line(read_placement, BASES[3], paths[".pl"]))
    assert isinstance(parsed[0], tuple) or parsed[1]  # an error or a warning


# Files that reads of CHUNK_BYTES, at every size, cut at every byte: a '\r\n' split between two reads, a comment
# across a read's end, no final newline, lone '\r's, and non-ASCII names and separators
LEX_TEXTS = {
    "crlf": b"UCLA nodes 1.0\r\n\r\nNumNodes : 2\r\n\ta\t1\t1\r\n\tb\t2\t2\r\n",
    "comment": b"a 1 1 # a comment longer than a read\nb 2 2\n# a whole line\nc 3 3 #\n",
    "no-final-newline": b"a 1 1\nb 2 2\n\nc 3 3",
    "lone-cr": b"a 1 1\rb 2 2\r\rc 3 3\r",
    "non-ascii": "nœud 1 1　x\nノード 2 2 # セル\r\nc\xa03 3".encode(),
}


def _lexed(path: str) -> list:
    return [(n, tokens) for chunk in netlist._lex(path) for n, tokens in zip(chunk.lineno.tolist(), chunk.rows())]


@pytest.mark.parametrize("name", LEX_TEXTS)
def test_reads_cut_anywhere_lex_as_the_line_parser_reads(tmp_path, name):
    path = tmp_path / "f"
    path.write_bytes(LEX_TEXTS[name])
    expected = [(n, line.split()) for n, line in reference._data_lines(str(path))]
    for chunk in range(1, len(LEX_TEXTS[name]) + 2):
        with mock.patch.object(netlist, "CHUNK_BYTES", chunk):
            assert _lexed(str(path)) == expected, chunk


def test_an_undecodable_byte_is_reported_at_its_line_after_the_lines_before_it(tmp_path):
    data = b"a 1 1\nb 2 2\r\nc\xff 3 3\nd 4 4\n"
    (tmp_path / "f").write_bytes(data)
    for chunk in range(1, len(data) + 2):
        lines = []
        with mock.patch.object(netlist, "CHUNK_BYTES", chunk), pytest.raises(netlist.MalformedLineError) as exc:
            for part in netlist._lex(str(tmp_path / "f")):
                lines += part.lineno.tolist()
        assert (exc.value.lineno, exc.value.line, lines) == (3, "c� 3 3", [1, 2]), chunk
    # in a design, from a later read than the first: the error names its line
    paths = _written(str(tmp_path / "d"), 0)
    with open(paths[".nodes"], "rb") as f:
        lines = f.read().split(b"\n")
    lines[-3] += b"\xff"
    with open(paths[".nodes"], "wb") as f:
        f.write(b"\n".join(lines))
    with mock.patch.object(netlist, "CHUNK_BYTES", 24), pytest.raises(netlist.MalformedLineError) as exc:
        parse_design(paths[".aux"])
    assert exc.value.lineno == len(lines) - 2 and "byte 0xff is not valid utf-8" in str(exc.value)
