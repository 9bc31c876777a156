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

from giftplace import Design, Region, Row, generate, netlist, parse_design, read_placement, write_design

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
        fixed=np.isfinite(fixed_xy[:, 0]),
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


def _written(tmp_dir: str, base: int, name: str | None = None, cell: int = 0) -> dict[str, str]:
    """Write base design ``base``, with cell ``cell`` renamed to ``name`` if given."""
    design = BASES[base]
    if name is not None:
        design = dataclasses.replace(design, names=[name if i == cell else n for i, n in enumerate(design.names)])
    write_design(design, tmp_dir, "d", placement=PLACEMENTS[base])
    return {ext: os.path.join(tmp_dir, "d" + ext) for ext in (".aux", *FILES)}


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
    ``Sitewidth`` of at most 0, which it keeps, are errors at their line, and that a ``CoreRow`` block
    without ``End``, which the reference drops without a word, is dropped with a warning."""
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
    warnings = [w for w in warnings if not w.endswith(": CoreRow block without End skipped")]  # the reference's is silent
    chunked = value, warnings
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
    assert warnings == [w for w in ref_warnings if _lineno(w) < lineno]
