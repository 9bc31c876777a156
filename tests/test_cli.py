"""End-to-end command-line tests: exit codes, artifacts, manifest replay.

Each test works in its own tmp directory; designs come from the benchgen
subcommand so the whole pipeline is exercised exactly as a user would drive
it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import logging
import os
import re
import resource
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from giftplace import parse_design, read_placement, write_placement
from giftplace import cli
from giftplace.cli import _write_csv, main
from giftplace.placer import PlacerConfig


def run_cli(capsys, *args: str) -> tuple[int, str, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def bench(tmp_path, capsys):
    """A small generated design; returns its .aux path."""
    out = tmp_path / "bench"
    out.mkdir()
    code, _, _ = run_cli(
        capsys, "benchgen", "--cells", "60", "--seed", "1", "--out-dir", str(out)
    )
    assert code == 0
    return str(out / "synth.aux")


class TestBenchgen:
    def test_writes_parseable_design(self, tmp_path, capsys):
        code, out, _ = run_cli(
            capsys, "benchgen", "--cells", "50", "--seed", "3", "--out-dir", str(tmp_path)
        )
        assert code == 0
        info = json.loads(out)
        design = parse_design(info["aux"])
        assert int(np.count_nonzero(~design.fixed)) == 50

    def test_same_seed_identical_files(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            code, _, _ = run_cli(
                capsys, "benchgen", "--cells", "40", "--seed", "9", "--out-dir", str(d)
            )
            assert code == 0
        for ext in (".aux", ".nodes", ".nets", ".pl", ".scl"):
            assert (a / f"synth{ext}").read_bytes() == (b / f"synth{ext}").read_bytes()


class TestGift:
    def test_writes_placement_and_manifest(self, bench, tmp_path, capsys):
        out = tmp_path / "gift.pl"
        code, stdout, _ = run_cli(capsys, "gift", bench, "--out", str(out), "--seed", "2")
        assert code == 0
        assert out.exists()
        info = json.loads(stdout)
        phases = {t["phase"] for t in info["timings"]}
        assert {"parse", "graph", "filter"} <= phases
        design = parse_design(bench)
        g = read_placement(design, str(out))
        assert np.isfinite(g).all()

    def test_seed_determinism(self, bench, tmp_path, capsys):
        p1 = tmp_path / "g1.pl"
        p2 = tmp_path / "g2.pl"
        for p in (p1, p2):
            code, _, _ = run_cli(capsys, "gift", bench, "--out", str(p), "--seed", "7")
            assert code == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_nodes_file_exit_1(self, tmp_path, capsys):
        aux = tmp_path / "broken.aux"
        aux.write_text("RowBasedPlacement : broken.nodes broken.nets broken.pl broken.scl\n")
        code, _, err = run_cli(capsys, "gift", str(aux))
        assert code == 1
        assert "broken.nodes" in err

    def test_aux_naming_two_nodes_files_exit_1(self, bench, tmp_path, capsys):
        aux = Path(bench)
        (aux.parent / "other.nodes").write_bytes(aux.with_suffix(".nodes").read_bytes())
        aux.write_text("RowBasedPlacement : other.nodes synth.nodes synth.nets synth.pl synth.scl\n")
        out = tmp_path / "g.pl"
        code, stdout, err = run_cli(capsys, "gift", bench, "--out", str(out))
        assert code == 1
        assert err.count("\n") == 1
        assert f"{bench}:1: second .nodes entry 'synth.nodes'" in err
        assert stdout == "" and not out.exists()


class TestFilterOverflow:
    """A filter result out of numeric range ends gift and place --init gift with exit 2, before anything is written."""

    @pytest.mark.parametrize("command", ["gift", "place"])
    @pytest.mark.parametrize("flags", [["--jitter", "1e308"], ["--terms", "0:1:1e308"], ["--terms", "2:2:-1e308,4:1:1e308"]],
                             ids=["jitter", "alpha", "alphas-of-either-sign"])
    def test_exit_2_writes_nothing(self, bench, tmp_path, capsys, command, flags):
        init = ["--init", "gift"] if command == "place" else []
        code, stdout, err = run_cli(capsys, command, bench, *init, *flags, "--out", str(tmp_path / "p.pl"))
        assert code == 2
        assert err.count("\n") == 1
        assert "GiftPlaceError: the filtered placement is not finite" in err
        assert stdout == ""
        assert list(tmp_path.iterdir()) == [tmp_path / "bench"]


@pytest.fixture(scope="module")
def small_aux(tmp_path_factory):
    """A 60-cell generated design shared by every example of a property test; returns its .aux path."""
    out = tmp_path_factory.mktemp("small")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["benchgen", "--cells", "60", "--seed", "1", "--out-dir", str(out)]) == 0
    return str(out / "synth.aux")


FILTER_TERMS = st.lists(
    st.tuples(st.sampled_from([0.0, 0.5, 2.0, 4.0]), st.integers(1, 4), st.floats(-1e308, 1e308, allow_nan=False)),
    min_size=1, max_size=3,
)


# place's floats that the placer takes as they are, drawn up to the largest float
PLACER_FLOATS = st.fixed_dictionaries({}, optional={flag: st.floats(0.0, 1e308)
                                                    for flag in ("--gamma", "--lambda0", "--lambda-growth")})


@settings(max_examples=100, deadline=None)
@example(command="gift", jitter=1e308, terms=None, placer={})
@example(command="gift", jitter=None, terms=[(0.0, 1, 1e308)], placer={})
@example(command="place", jitter=None, terms=None, placer={"--gamma": 1e-308})
@example(command="place", jitter=None, terms=None, placer={"--gamma": 1e308})
@example(command="place", jitter=None, terms=None, placer={"--lambda-growth": 1e308})
@given(command=st.sampled_from(["gift", "place"]), jitter=st.none() | st.floats(0.0, 1e308),
       terms=st.none() | FILTER_TERMS, placer=PLACER_FLOATS)
def test_gift_and_place_write_finite_outputs_or_nothing(small_aux, tmp_path_factory, command, jitter, terms, placer):
    # place starts from the filter, so the filter's options reach it too; no numpy warning may escape either
    out = tmp_path_factory.mktemp(command) / "g.pl"
    flags = [] if jitter is None else ["--jitter", repr(jitter)]
    if terms is not None:
        flags += ["--terms", ",".join(f"{sigma!r}:{k}:{alpha!r}" for sigma, k, alpha in terms)]
    if command == "place":
        flags += ["--init", "gift", "--max-iters", "5", *(word for item in placer.items() for word in map(str, item))]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([command, small_aux, "--seed", "1", "--out", str(out), *flags])
    written = sorted(p.name for p in out.parent.iterdir())
    if code == 0:
        assert np.isfinite(read_placement(parse_design(small_aux), str(out))).all()
        assert written == sorted(["g.pl", "g.pl.manifest.json", *(["g.pl.trace.csv"] if command == "place" else [])])
    else:
        assert code in ((2, 4) if command == "place" else (2,)) and written == []


def poison_c0(aux: str, ext: str, column: int, value: str) -> int:
    """Overwrite one number on cell c0's line of the design's ``ext`` file; return the line number."""
    path = aux[: -len(".aux")] + ext
    with open(path) as f:
        lines = f.read().split("\n")
    lineno = next(i for i, line in enumerate(lines, start=1) if line.split()[:1] == ["c0"])
    tokens = lines[lineno - 1].split()
    tokens[column] = value
    lines[lineno - 1] = "\t".join(tokens)
    with open(path, "w") as f:
        f.write("\n".join(lines))
    return lineno


class TestNonFiniteInput:
    """NaN or inf in an input file exits 1 naming the line: no traceback, no NaN JSON."""

    @pytest.mark.parametrize("command", ["gift", "metrics"])
    @pytest.mark.parametrize(
        "ext,column,value", [(".nodes", 1, "nan"), (".nodes", 2, "inf"), (".pl", 1, "nan"), (".pl", 2, "-inf")]
    )
    def test_design_file_exit_1(self, bench, capsys, command, ext, column, value):
        lineno = poison_c0(bench, ext, column, value)
        code, out, err = run_cli(capsys, command, bench)
        assert code == 1
        assert f"synth{ext}:{lineno}:" in err
        assert "Traceback" not in err
        assert "NaN" not in out and "Infinity" not in out

    def test_metrics_placement_exit_1(self, bench, tmp_path, capsys):
        design = parse_design(bench)
        pl = str(tmp_path / "eval.pl")
        write_placement(design, np.tile(design.region.center, (design.num_cells, 1)), pl)
        lineno = poison_c0(pl[: -len(".pl")] + ".aux", ".pl", 1, "nan")
        code, out, err = run_cli(capsys, "metrics", bench, "--pl", pl)
        assert code == 1
        assert f"eval.pl:{lineno}:" in err
        assert "Traceback" not in err
        assert "NaN" not in out


# a fixed pad whose .pl corner plus half its size is past the float range, in both coordinates
OVERFLOW_FILES = {
    "nodes": "UCLA nodes 1.0\nNumNodes : 3\nNumTerminals : 1\nc0 1 1\nc1 1 1\npad 1e308 1e308 terminal\n",
    "nets": "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\nNetDegree : 3 n0\nc0 I\nc1 I\npad I\n",
    "big.pl": "UCLA pl 1.0\nc0 0 0 : N\nc1 1 0 : N\npad 1.7e308 1.7e308 : N /FIXED\n",
    "pl": "UCLA pl 1.0\nc0 0 0 : N\nc1 1 0 : N\npad 0 0 : N /FIXED\n",
    "scl": "UCLA scl 1.0\nNumRows : 1\nCoreRow Horizontal\n Coordinate : 0\n Height : 10\n Sitewidth : 1\n"
           " SubrowOrigin : 0 NumSites : 10\nEnd\n",
}


class TestOverflowingCenter:
    """A .pl corner whose cell center (the corner plus half the cell's size) is past the float range exits 1, with
    one line naming the .pl and the cell and nothing written. Tests run with warnings as errors, so no numpy warning is
    printed on the way."""

    @staticmethod
    def design(tmp_path, scl: bool) -> str:
        """The overflowing pad in the design's own .pl without a .scl, or placed at 0 0 beside a .scl and in big.pl."""
        pl = "pl" if scl else "big.pl"
        for ext, name in (("nodes", "nodes"), ("nets", "nets"), ("pl", pl), ("big.pl", "big.pl"), ("scl", "scl")):
            (tmp_path / f"d.{ext}").write_text(OVERFLOW_FILES[name])
        (tmp_path / "d.aux").write_text("RowBasedPlacement : d.nodes d.nets d.pl" + " d.scl" * scl + "\n")
        return str(tmp_path / "d.aux")

    @pytest.mark.parametrize("command, scl, pl, flags", [
        ("gift", False, "d.pl", ["--out", "out.pl"]),
        ("place", True, "d.big.pl", ["--init", "file:{pl}", "--out", "out.pl"]),
        ("metrics", True, "d.big.pl", ["--pl", "{pl}", "--out", "out.json"]),
    ], ids=["gift-without-scl", "place-init-file", "metrics-pl"])
    def test_exit_1_one_line_nothing_written(self, tmp_path, capsys, monkeypatch, command, scl, pl, flags):
        aux, pl = self.design(tmp_path, scl), str(tmp_path / pl)
        monkeypatch.chdir(tmp_path)
        before = sorted(os.listdir(tmp_path))
        code, stdout, err = run_cli(capsys, command, aux, *(flag.format(pl=pl) for flag in flags))
        assert code == 1 and stdout == ""
        assert err == f"giftplace: error: {pl}:0: cell center (corner plus half the cell's size) is not finite: 'pad'\n"
        assert sorted(os.listdir(tmp_path)) == before


def poison_scl(aux: str, keyword: str, line: str) -> int:
    """Replace the first .scl line holding ``keyword``; returns its line number."""
    path = aux[: -len(".aux")] + ".scl"
    with open(path) as f:
        lines = f.read().split("\n")
    lineno = next(i for i, text in enumerate(lines, start=1) if keyword in text)
    lines[lineno - 1] = line
    with open(path, "w") as f:
        f.write("\n".join(lines))
    return lineno


class TestSclRows:
    """A bad .scl row ends in a one-line diagnostic and its exit code, never a traceback."""

    @pytest.mark.parametrize("command", ["gift", "place"])
    @pytest.mark.parametrize(
        "keyword,line",
        [
            ("Coordinate", "\tCoordinate : nan"),
            ("Coordinate", "\tCoordinate : inf"),
            ("Height", "\tHeight : -inf"),
            ("Sitewidth", "\tSitewidth : nan"),
            ("SubrowOrigin", "\tSubrowOrigin : nan NumSites : 10"),
            ("SubrowOrigin", "\tSubrowOrigin : 0 NumSites : inf"),
        ],
        ids=["coordinate-nan", "coordinate-inf", "height-inf", "sitewidth-nan", "origin-nan", "numsites-inf"],
    )
    def test_nonfinite_row_exit_1(self, bench, tmp_path, capsys, command, keyword, line):
        lineno = poison_scl(bench, keyword, line)
        out = tmp_path / "out.pl"
        code, stdout, err = run_cli(capsys, command, bench, "--out", str(out))
        assert code == 1
        assert f"synth.scl:{lineno}:" in err
        assert "Traceback" not in err
        assert stdout == ""
        assert not out.exists()

    def test_invalid_design_exit_2(self, bench, tmp_path, capsys):
        # rows of zero sites give the region no width: validation, not parsing, rejects it
        scl = bench[: -len(".aux")] + ".scl"
        with open(scl) as f:
            text = f.read()
        with open(scl, "w") as f:
            f.write(re.sub(r"NumSites : \d+", "NumSites : 0", text))
        out = tmp_path / "out.pl"
        code, stdout, err = run_cli(capsys, "gift", bench, "--out", str(out))
        assert code == 2
        assert err.count("\n") == 1
        assert "GiftPlaceError: region must be finite with positive extent" in err
        assert stdout == ""
        assert not out.exists()


class TestUndecodableByte:
    """A byte the input encoding cannot decode exits 1 with one line naming its file and line."""

    @pytest.mark.parametrize("ext", [".aux", ".nodes", ".nets", ".pl", ".scl"])
    def test_design_file_exit_1(self, bench, tmp_path, capsys, ext):
        path = bench[: -len(".aux")] + ext
        with open(path, "rb") as f:
            lines = f.read().split(b"\n")
        lines.insert(1, b"# caf\xe9")
        lines[-1] += b"\xff"
        with open(path, "wb") as f:
            f.write(b"\n".join(lines))
        out = tmp_path / "out.pl"
        code, stdout, err = run_cli(capsys, "gift", bench, "--out", str(out))
        assert code == 1
        assert err.startswith(f"giftplace: error: {path}:2: byte 0xe9 is not valid ")
        assert err.count("\n") == 1
        assert stdout == "" and not out.exists()


def child_env() -> dict[str, str]:
    """This environment, with a PYTHONPATH under which a fresh interpreter imports this giftplace."""
    import giftplace

    src = str(Path(giftplace.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run_cli_process(*args: str) -> subprocess.CompletedProcess:
    """The console script in a process of its own, so that its log reaches its stderr."""
    return subprocess.run([sys.executable, "-m", "giftplace.cli", *args], capture_output=True, text=True, env=child_env())


class TestUnconvergedPlace:
    """A place run that stops above its target overflow says so on stderr; its JSON and exit code stay."""

    def test_unconverged_run_warns(self, bench, tmp_path):
        run = run_cli_process("place", bench, "--init", "center", "--max-iters", "3", "--out", str(tmp_path / "p.pl"))
        assert run.returncode == 0
        assert json.loads(run.stdout)["converged"] is False
        assert run.stderr.count("\n") == 1
        assert re.fullmatch(r"WARNING giftplace\.placer: placer stopped after 3 iterations at overflow \S+, "
                            r"above the target 0\.15\n", run.stderr)

    def test_coarse_bins_are_named(self, bench, tmp_path):
        run = run_cli_process("place", bench, "--init", "center", "--max-iters", "3", "--bins", "4x4",
                              "--out", str(tmp_path / "p.pl"))
        assert run.returncode == 0
        assert json.loads(run.stdout)["converged"] is False
        assert run.stderr.count("\n") == 1
        assert ("; the 4x4 bins of 2.5 x 2.5 are larger than the average movable cell of 1 x 1, "
                "so cells inside one bin feel no density force\n") in run.stderr

    def test_converging_run_is_silent(self, bench, tmp_path):
        run = run_cli_process("place", bench, "--init", "gift", "--out", str(tmp_path / "p.pl"))
        assert run.returncode == 0
        assert json.loads(run.stdout)["converged"] is True
        assert run.stderr == ""


def test_place_refuses_a_pile_no_force_can_move(tmp_path, capsys):
    # without IO pads nothing pulls the pile at the center apart; the run exits 2 and writes nothing
    gen = tmp_path / "gen"
    code, _, _ = run_cli(capsys, "benchgen", "--cells", "100", "--io", "0", "--seed", "1", "--out-dir", str(gen))
    assert code == 0
    out = tmp_path / "p.pl"
    code, stdout, err = run_cli(capsys, "place", str(gen / "synth.aux"), "--init", "center", "--seed", "1", "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1
    assert err.startswith("giftplace: error: GiftPlaceError: zero gradient at iteration 1: ")
    assert "--init gift" in err
    assert sorted(os.listdir(tmp_path)) == ["gen"]


def test_out_of_memory_exit_2(tmp_path):
    # a design far larger than the child's address space, which the limit caps for the child alone: numpy's
    # allocation fails, and the run ends in one line, exit 2 and no --out-dir
    limit = 1500 * 2**20
    run = subprocess.run([sys.executable, "-m", "giftplace.cli", "benchgen", "--cells", "300000000", "--out-dir",
                          str(tmp_path / "D")], capture_output=True, text=True, env=child_env(),
                         preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    assert run.returncode == 2
    assert run.stderr.startswith("giftplace: error: MemoryError: ") and run.stderr.count("\n") == 1
    assert "Traceback" not in run.stderr
    assert run.stdout == "" and os.listdir(tmp_path) == []


class TestPlace:
    def test_center_init_runs(self, bench, tmp_path, capsys):
        out = tmp_path / "p.pl"
        code, stdout, _ = run_cli(
            capsys, "place", bench, "--init", "center", "--out", str(out),
            "--max-iters", "60",
        )
        assert code == 0
        info = json.loads(stdout)
        assert info["iterations"] <= 60
        assert out.exists()
        assert (tmp_path / "p.pl.trace.csv").exists()
        assert (tmp_path / "p.pl.manifest.json").exists()

    def test_gift_init_runs(self, bench, tmp_path, capsys):
        out = tmp_path / "p.pl"
        code, stdout, _ = run_cli(
            capsys, "place", bench, "--init", "gift", "--out", str(out),
            "--max-iters", "60",
        )
        assert code == 0
        assert json.loads(stdout)["iterations"] <= 60

    def test_file_init_starts_from_given_coordinates(self, bench, tmp_path, capsys):
        design = parse_design(bench)
        rng = np.random.default_rng(5)
        g = np.array(design.fixed_xy)
        movable = ~design.fixed
        g[movable, 0] = rng.uniform(design.region.xmin + 1, design.region.xmax - 1, movable.sum())
        g[movable, 1] = rng.uniform(design.region.ymin + 1, design.region.ymax - 1, movable.sum())
        custom = tmp_path / "custom.pl"
        write_placement(design, g, str(custom))
        out = tmp_path / "from_file.pl"
        # a satisfied stopping target returns at iteration 0: the output must
        # be exactly the file coordinates
        code, stdout, _ = run_cli(
            capsys, "place", bench, "--init", f"file:{custom}", "--out", str(out),
            "--stop-overflow", "0.999",
        )
        assert code == 0
        assert json.loads(stdout)["iterations"] == 0
        g_out = read_placement(design, str(out))
        np.testing.assert_allclose(g_out, g, atol=1e-6)

    def test_file_init_keeps_fixed_cells(self, bench, tmp_path, capsys):
        design = parse_design(bench)
        g = np.tile(design.region.center, (design.num_cells, 1))
        g[design.fixed] = design.fixed_xy[design.fixed]
        pad = int(np.flatnonzero(design.fixed)[0])
        g[pad] = (0.0, 0.0)
        custom = tmp_path / "moved_pad.pl"
        write_placement(design, g, str(custom))
        out = tmp_path / "from_file.pl"
        code, _, _ = run_cli(
            capsys, "place", bench, "--init", f"file:{custom}", "--out", str(out), "--max-iters", "3",
        )
        assert code == 0
        g_out = read_placement(design, str(out))
        np.testing.assert_allclose(g_out[design.fixed], design.fixed_xy[design.fixed], atol=1e-6)

    def test_eigen_init_too_large_exit_2(self, tmp_path, capsys):
        out = tmp_path / "big"
        out.mkdir()
        code, _, _ = run_cli(
            capsys, "benchgen", "--cells", "2100", "--seed", "0", "--out-dir", str(out)
        )
        assert code == 0
        code, _, err = run_cli(
            capsys, "place", str(out / "synth.aux"), "--init", "eigen",
            "--out", str(out / "e.pl"),
        )
        assert code == 2
        assert "TooLargeForDense" in err

    def test_diverging_run_exit_4_writes_nothing(self, bench, tmp_path, capsys):
        out = tmp_path / "p.pl"
        code, stdout, err = run_cli(capsys, "place", bench, "--lambda0", "1e308", "--out", str(out))
        assert code == 4
        assert err.count("\n") == 1
        assert "DivergenceError: objective not finite at iteration 0" in err
        assert stdout == ""
        assert list(tmp_path.iterdir()) == [tmp_path / "bench"]

    def test_unknown_init_exit_2(self, bench, capsys):
        code, _, err = run_cli(capsys, "place", bench, "--init", "sideways")
        assert code == 2
        assert "sideways" in err


class TestOutputDirectories:
    """An output in a directory that does not exist ends the run before its work: exit 3, nothing written."""

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("gift", ["--manifest", "missing/m.json"]),
            ("gift", ["--out", "missing/g.pl"]),
            ("place", ["--trace", "missing/t.csv"]),
            ("place", ["--manifest", "missing/m.json"]),
            ("metrics", ["--out", "missing/m.json"]),
            ("metrics", ["--manifest", "missing/m.json"]),
            ("spectrum", ["--out-dir", "spec", "--manifest", "missing/m.json"]),
            ("benchgen", ["--out-dir", "gen", "--manifest", "missing/m.json"]),
        ],
    )
    def test_exit_3_before_any_work(self, bench, tmp_path, capsys, monkeypatch, command, flags):
        monkeypatch.chdir(tmp_path)
        before = sorted(Path(bench).parent.iterdir())
        code, stdout, err = run_cli(capsys, command, *([] if command == "benchgen" else [bench]), *flags)
        assert code == 3
        assert err.count("\n") == 1
        assert "output directory missing does not exist" in err
        assert stdout == ""
        assert sorted(Path(bench).parent.iterdir()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bench"]

    @pytest.mark.parametrize("command", ["spectrum", "benchgen"])
    def test_empty_out_dir_exit_2_before_any_work(self, bench, tmp_path, capsys, monkeypatch, command):
        # os.makedirs("") fails only after the work: the empty path is refused before it
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "parse_design", None)
        monkeypatch.setattr(cli, "generate", None)
        code, stdout, err = run_cli(capsys, command, *([] if command == "benchgen" else [bench]), "--out-dir", "")
        assert code == 2
        assert err.count("\n") == 1
        assert "--out-dir is the empty path" in err
        assert stdout == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bench"]

    @pytest.mark.parametrize("command", ["spectrum", "benchgen"])
    def test_manifest_in_the_out_dir_made(self, bench, tmp_path, capsys, command):
        out_dir = tmp_path / "new"
        args = [] if command == "benchgen" else [bench]
        code, _, _ = run_cli(capsys, command, *args, "--out-dir", str(out_dir), "--manifest", str(out_dir / "m.json"))
        assert code == 0
        assert json.loads((out_dir / "m.json").read_text())["command"] == command


# four cells, c3 on no net: the sigma-0 operator divides by its zero degree
ISOLATED_CELL = {
    "i.aux": "RowBasedPlacement : i.nodes i.nets i.pl\n",
    "i.nodes": "UCLA nodes 1.0\nNumNodes : 4\nNumTerminals : 0\nc0 1 1\nc1 1 1\nc2 1 1\nc3 1 1\n",
    "i.nets": "UCLA nets 1.0\nNumNets : 1\nNumPins : 3\nNetDegree : 3 n0\nc0 I\nc1 I\nc2 I\n",
    "i.pl": "UCLA pl 1.0\nc0 0 0 : N\nc1 1 0 : N\nc2 2 0 : N\nc3 3 0 : N\n",
}
# six cells in three two-cell nets: lambda_3 is 0, so the eigenvector start warns that it is degenerate
DISCONNECTED = {
    "d.aux": "RowBasedPlacement : d.nodes d.nets d.pl\n",
    "d.nodes": "UCLA nodes 1.0\nNumNodes : 6\nNumTerminals : 0\n" + "".join(f"c{i} 1 1\n" for i in range(6)),
    "d.nets": "UCLA nets 1.0\nNumNets : 3\nNumPins : 6\n"
              + "".join(f"NetDegree : 2 n{j}\nc{2 * j} I\nc{2 * j + 1} I\n" for j in range(3)),
    "d.pl": "UCLA pl 1.0\n" + "".join(f"c{i} {i} 0 : N\n" for i in range(6)),
}


class TestFailedRunWritesNothing:
    """A run that ends with a non-zero exit leaves every file and directory as it found them. An output that is a
    directory, or an output directory that is a file, ends it with exit 3 before the design is read or generated."""

    @pytest.mark.parametrize(
        "args,code,message",
        [
            (["spectrum", "iso/i.aux", "--sigma", "1,0", "--k", "1", "--out-dir", "S"], 2,
             "IsolatedNodeError: node 3 has degree 0"),
            # pytest's warning filter raises the warning, as `python -W error` does
            (["place", "disc/d.aux", "--init", "eigen", "--out", "e.pl"], 2,
             "DegenerateSpectrumWarning: second/third eigenvalues are numerically zero"),
            (["gift", "{bench}", "--out", "taken"], 3, "--out taken is a directory"),
            (["gift", "{bench}", "--manifest", "taken"], 3, "--manifest taken is a directory"),
            (["place", "{bench}", "--trace", "taken", "--out", "p.pl"], 3, "--trace taken is a directory"),
            (["place", "{bench}", "--out", "taken"], 3, "--out taken is a directory"),
            (["metrics", "{bench}", "--out", "taken"], 3, "--out taken is a directory"),
            (["spectrum", "{bench}", "--out-dir", "S", "--manifest", "taken"], 3, "--manifest taken is a directory"),
            (["spectrum", "{bench}", "--out-dir", "taken"], 3, "eig_hist_sigma0.csv taken/eig_hist_sigma0.csv is a directory"),
            (["spectrum", "{bench}", "--out-dir", "file"], 3, "output directory file cannot be made"),
            (["spectrum", "{bench}", "--out-dir", "file/S"], 3, "output directory file/S cannot be made"),
            (["benchgen", "--out-dir", "G", "--manifest", "taken"], 3, "--manifest taken is a directory"),
            (["benchgen", "--out-dir", "taken"], 3, "synth.pl taken/synth.pl is a directory"),
            (["benchgen", "--out-dir", "file"], 3, "output directory file cannot be made"),
            (["report", "g.pl.manifest.json", "--replay", "--out-dir", "R"], 3, "--out R/g.pl is a directory"),
            (["report", "g.pl.manifest.json", "--replay", "--out-dir", "file"], 3, "output directory file cannot be made"),
            (["place", "{bench}", "--init", "center", "--max-iters", "30", "--gamma", "1e308"], 4, "DivergenceError"),
            (["place", "{bench}", "--init", "center", "--max-iters", "30", "--lambda-growth", "1e308"], 4,
             "DivergenceError"),
        ],
        ids=["spectrum-isolated-cell", "place-eigen-disconnected", "gift-out", "gift-manifest", "place-trace", "place-out", "metrics-out",
             "spectrum-manifest", "spectrum-csv", "spectrum-out-dir-file", "spectrum-out-dir-under-a-file",
             "benchgen-manifest", "benchgen-design-file", "benchgen-out-dir-file", "replay-out", "replay-out-dir-file",
             "place-gamma", "place-lambda-growth"],
    )
    def test_nonzero_exit_writes_nothing(self, bench, tmp_path, capsys, monkeypatch, args, code, message):
        monkeypatch.chdir(tmp_path)
        for folder in ("iso", "disc", "taken/eig_hist_sigma0.csv", "taken/synth.pl", "R/g.pl"):
            (tmp_path / folder).mkdir(parents=True)
        for folder, files in (("iso", ISOLATED_CELL), ("disc", DISCONNECTED)):
            for name, text in files.items():
                (tmp_path / folder / name).write_text(text)
        (tmp_path / "file").write_text("")
        assert run_cli(capsys, "gift", bench, "--out", "g.pl")[0] == 0  # a manifest to replay
        if code == 3:
            monkeypatch.setattr(cli, "parse_design", None)
            monkeypatch.setattr(cli, "generate", None)
        before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
        got, stdout, err = run_cli(capsys, *(a.format(bench=bench) for a in args))
        assert got == code
        assert err.count("\n") == 1 and message in err
        assert stdout == ""
        assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == before

    @pytest.mark.parametrize("flags", [["--gamma", "1e-308"]], ids=["gamma"])
    def test_extreme_placer_option_runs_with_no_warning(self, bench, tmp_path, capsys, flags):
        # pytest's warning filter makes any numpy warning an error, on the placer's worker thread too
        code, stdout, _ = run_cli(capsys, "place", bench, "--init", "center", "--max-iters", "30", *flags,
                                  "--out", str(tmp_path / "p.pl"))
        assert code == 0
        assert json.loads(stdout)["out"] == str(tmp_path / "p.pl")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bench", "p.pl", "p.pl.manifest.json", "p.pl.trace.csv"]


class TestSharedOutputPaths:
    """Two outputs of one run that name the same file, or an output that names one of its inputs, end the run before
    its work: exit 2, nothing written."""

    @pytest.mark.parametrize(
        "command,flags,named",
        [
            ("place", ["--out", "x", "--trace", "x"], "--out and --trace"),
            ("place", ["--trace", "x", "--manifest", "./x"], "--trace and --manifest"),
            ("gift", ["--out", "x", "--manifest", "x"], "--out and --manifest"),
            ("metrics", ["--out", "x", "--manifest", "x"], "--out and --manifest"),
        ],
    )
    def test_exit_2_before_any_work(self, bench, tmp_path, capsys, monkeypatch, command, flags, named):
        monkeypatch.chdir(tmp_path)
        before = sorted(Path(bench).parent.iterdir())
        code, stdout, err = run_cli(capsys, command, bench, *flags)
        assert code == 2
        assert err.count("\n") == 1
        assert f"{named} are the same file" in err
        assert stdout == ""
        assert sorted(Path(bench).parent.iterdir()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bench"]

    def test_replay_onto_one_basename(self, bench, tmp_path, capsys):
        # a replay writes every output into --out-dir under its basename, so these two would become one file
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
        code, _, _ = run_cli(capsys, "place", bench, "--init", "gift", "--max-iters", "5",
                             "--out", str(tmp_path / "a" / "p.pl"), "--trace", str(tmp_path / "b" / "p.pl"))
        assert code == 0
        replay_dir = tmp_path / "replay"
        code, stdout, err = run_cli(capsys, "report", str(tmp_path / "a" / "p.pl.manifest.json"), "--replay",
                                    "--out-dir", str(replay_dir))
        assert code == 2
        assert "--out and --trace are the same file" in err
        assert stdout == ""
        assert not replay_dir.exists()

    @pytest.mark.parametrize(
        "command,flags,named",
        [
            ("benchgen", ["--cells", "50", "--out-dir", "gen", "--manifest", "gen/synth.pl"], "synth.pl and --manifest"),
            ("spectrum", ["--out-dir", "spec", "--manifest", "spec/eig_hist_sigma0.csv"],
             "eig_hist_sigma0.csv and --manifest"),
            ("gift", ["--manifest", "bench/synth.nets"], "synth.nets and --manifest"),
            ("place", ["--init", "file:start.pl", "--out", "start.pl", "--max-iters", "3"], "--init and --out"),
        ],
        ids=["benchgen-design-file", "spectrum-csv", "gift-design-nets", "place-own-start"],
    )
    def test_output_over_another_output_or_an_input(self, bench, tmp_path, capsys, monkeypatch, command, flags, named):
        # every file already there, the design's .nets and the place run's start among them, keeps its bytes
        monkeypatch.chdir(tmp_path)
        (tmp_path / "start.pl").write_bytes(Path(bench).with_suffix(".pl").read_bytes())
        before = {p: p.read_bytes() for p in tmp_path.rglob("*.*")}
        code, stdout, err = run_cli(capsys, command, *([] if command == "benchgen" else [bench]), *flags)
        assert code == 2
        assert err.count("\n") == 1
        assert f"{named} are the same file" in err
        assert stdout == ""
        assert {p: p.read_bytes() for p in tmp_path.rglob("*.*")} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bench", "start.pl"]

    def test_every_run_writes_its_outputs_and_manifest_only(self, bench, tmp_path, capsys):
        # the manifest's outputs list every file a run writes but the manifest itself
        runs = {
            "benchgen": ["--cells", "50", "--out-dir", "{d}"],
            "gift": [bench, "--out", "{d}/g.pl"],
            "place": [bench, "--init", "gift", "--max-iters", "3", "--out", "{d}/p.pl"],
            "spectrum": [bench, "--sigma", "0,1", "--k", "1,2", "--out-dir", "{d}"],
            "metrics": [bench, "--out", "{d}/m.json"],
        }
        for command, args in runs.items():
            fresh = tmp_path / f"fresh-{command}"
            fresh.mkdir()
            code, _, err = run_cli(capsys, command, *(a.format(d=fresh) for a in args))
            assert code == 0, err
            (manifest,) = fresh.glob("*manifest.json")
            written = json.loads(manifest.read_text())["outputs"].values()
            assert sorted(fresh.iterdir()) == sorted([manifest, *map(Path, written)]), command


class TestSpectrum:
    def test_histograms_and_responses(self, bench, tmp_path, capsys):
        out = tmp_path / "spec"
        code, stdout, _ = run_cli(
            capsys, "spectrum", bench, "--sigma", "0,1,2,3", "--k", "1,2,4",
            "--out-dir", str(out),
        )
        assert code == 0
        for s in (0, 1, 2, 3):
            assert (out / f"eig_hist_sigma{s}.csv").exists()
            for k in (1, 2, 4):
                assert (out / f"response_sigma{s}_k{k}.csv").exists()
        summary = json.loads(stdout)
        lam_max = [summary[f"lambda_max_sigma{s}"] for s in (0, 1, 2, 3)]
        assert all(b <= a + 1e-12 for a, b in zip(lam_max, lam_max[1:]))

    def test_histograms_count_every_cell(self, tmp_path, capsys):
        """An eigenvalue that eigh returns a rounding error below 0 is counted in the first bin."""
        code, _, _ = run_cli(capsys, "benchgen", "--cells", "300", "--seed", "1", "--out-dir", str(tmp_path))
        assert code == 0
        cells = parse_design(str(tmp_path / "synth.aux")).num_cells
        code, _, _ = run_cli(capsys, "spectrum", str(tmp_path / "synth.aux"), "--out-dir", str(tmp_path / "spec"))
        assert code == 0
        for sigma in (0, 1, 2, 3):
            counts = np.loadtxt(tmp_path / "spec" / f"eig_hist_sigma{sigma}.csv", delimiter=",", skiprows=1)[:, 1]
            assert counts.sum() == cells

    def test_csv_rows_match_the_fstring_format(self, tmp_path):
        """_write_csv writes what ``f"{x:.10g}"`` per value, and ``int`` per histogram count, would."""
        values = np.array([-0.0, 1e-300, 0.1 + 0.2, 1e16, 123456789012.0, np.nan, np.inf, -np.inf, 0.5, 2.0 / 3.0])
        counts = np.array([0, 1, 7, 50, 2000, 123456, 0, 9999999999, 3, 40])
        path = tmp_path / "out.csv"
        _write_csv(str(path), "lambda,h", values, values[::-1])
        rows = "".join(f"{x:.10g},{h:.10g}\n" for x, h in zip(values, values[::-1]))
        assert path.read_bytes() == ("lambda,h\n" + rows).encode()
        _write_csv(str(path), "lambda,count", values, counts)
        rows = "".join(f"{x:.10g},{int(c)}\n" for x, c in zip(values, counts))
        assert path.read_bytes() == ("lambda,count\n" + rows).encode()

    @pytest.mark.parametrize("command, exit_code", [("spectrum", 1), ("metrics", 0), ("gift", 0), ("place", 0)])
    def test_empty_design_exit_code(self, tmp_path, capsys, command, exit_code):
        # in-process, so a numpy warning is an error: a design with no cells has nothing to analyze, but every
        # other command runs to its end, and metrics reports a Rayleigh quotient of the empty signal as null
        (tmp_path / "e.nodes").write_text("UCLA nodes 1.0\nNumNodes : 0\nNumTerminals : 0\n")
        (tmp_path / "e.nets").write_text("UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n")
        (tmp_path / "e.pl").write_text("UCLA pl 1.0\n")
        (tmp_path / "e.scl").write_text("UCLA scl 1.0\nNumRows : 0\n")
        (tmp_path / "e.aux").write_text("RowBasedPlacement : e.nodes e.nets e.pl e.scl\n")
        code, stdout, _ = run_cli(capsys, command, str(tmp_path / "e.aux"))
        assert code == exit_code
        if command == "metrics":
            report = json.loads(stdout)
            assert report["rayleigh_x"] is None and report["rayleigh_y"] is None

    def test_too_large_exit_2_makes_no_out_dir(self, tmp_path, capsys):
        # the dense eigensystem is refused after the design is read; the --out-dir is made only for a result
        code, _, _ = run_cli(capsys, "benchgen", "--cells", "2100", "--seed", "0", "--out-dir", str(tmp_path / "big"))
        assert code == 0
        code, stdout, err = run_cli(capsys, "spectrum", str(tmp_path / "big" / "synth.aux"), "--out-dir", str(tmp_path / "spec"))
        assert code == 2
        assert "TooLargeForDense" in err
        assert stdout == ""
        assert not (tmp_path / "spec").exists()


def move_in_pl(src: str, dst: str, cell: str, x: str, y: str) -> None:
    """Copy a .pl file with ``cell``'s lower-left corner moved to (x, y)."""
    lines = []
    for line in Path(src).read_text().split("\n"):
        tokens = line.split()
        lines.append("\t".join([cell, x, y, *tokens[3:]]) if tokens[:1] == [cell] else line)
    Path(dst).write_text("\n".join(lines))


class TestMetrics:
    def test_unsupported_aux_entry_warns_once(self, bench, caplog, capsys):
        # the default --pl comes from the one read of the .aux, so its warning is logged once, as by gift
        aux = Path(bench)
        aux.write_text(aux.read_text().rstrip("\n") + " synth.wts\n")
        with caplog.at_level(logging.WARNING, logger="giftplace.netlist"):
            code, _, _ = run_cli(capsys, "metrics", bench)
        assert code == 0
        assert [r.getMessage() for r in caplog.records] == [f"{bench}: unsupported file synth.wts skipped"]

    def test_reports_quality_numbers(self, bench, capsys):
        code, stdout, _ = run_cli(capsys, "metrics", bench)
        assert code == 0
        rep = json.loads(stdout)
        assert {"hpwl", "quadratic_wl", "overflow", "max_bin_density"} <= set(rep)

    @pytest.mark.parametrize(
        "init,bins", [("center", []), ("gift", []), ("center", ["--bins", "7x5"])], ids=["center", "gift", "bins"]
    )
    def test_overflow_of_a_place_output_is_the_one_place_printed(self, bench, tmp_path, capsys, init, bins):
        """metrics measures density on the grid the placer stops on, by default or from --bins."""
        out = tmp_path / "p.pl"
        code, stdout, _ = run_cli(
            capsys, "place", bench, "--init", init, *bins, "--max-iters", "60", "--out", str(out)
        )
        assert code == 0
        placed = json.loads(stdout)["overflow"]
        code, stdout, _ = run_cli(capsys, "metrics", bench, "--pl", str(out), *bins)
        assert code == 0
        assert json.loads(stdout)["overflow"] == pytest.approx(placed, abs=1e-6)

    @pytest.mark.parametrize("via_pl_option", [True, False], ids=["movable-in-pl-option", "fixed-pad-in-design"])
    def test_non_finite_metric_exit_2_writes_nothing(self, bench, tmp_path, capsys, via_pl_option):
        """Coordinates whose squares overflow end in one line naming the metric, not Infinity/NaN JSON."""
        design_pl = bench[: -len(".aux")] + ".pl"
        if via_pl_option:
            placed = str(tmp_path / "big.pl")
            move_in_pl(design_pl, placed, "c0", "1e300", "-1e300")
            flags = ["--pl", placed]
        else:
            move_in_pl(design_pl, design_pl, "io0", "1e200", "-1e200")
            flags = []
        out = tmp_path / "metrics.json"
        code, stdout, err = run_cli(capsys, "metrics", bench, *flags, "--out", str(out))
        assert code == 2
        assert err.count("\n") == 1
        assert "GiftPlaceError: metric quadratic_wl is not finite" in err
        assert stdout == ""
        assert not out.exists()
        assert not (tmp_path / "metrics.json.manifest.json").exists()


class TestUnusableOptions:
    """A value no config object can use exits 2 with one diagnostic line and writes nothing."""

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("place", ["--gamma", "inf"]),
            ("place", ["--lambda0", "-1"]),
            ("place", ["--lambda-growth", "nan"]),
            ("place", ["--max-iters", "-1"]),
            ("place", ["--bins", "0"]),
            ("place", ["--init", "gift", "--jitter", "nan"]),
            ("gift", ["--jitter", "nan"]),
            ("gift", ["--jitter", "inf"]),
            ("gift", ["--terms", "2:2:nan"]),
            ("gift", ["--terms", "nan:2:1"]),
            ("metrics", ["--bins", "0"]),
            ("place", ["--jitter", "-1"]),
            ("place", ["--terms", "1:0:1"]),
            ("gift", ["--terms", "2:100000000:1"]),  # 10^8 products: refused before the parse
            ("place", ["--terms", "2:600:1,4:600:1"]),  # 1200 products in all
        ],
    )
    def test_exit_2(self, bench, tmp_path, capsys, command, flags):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, command, bench, *flags, "--out", str(out))
        assert code == 2
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flags,named",
        [
            ("place", ["--bins", "x"], "--bins"),
            ("place", ["--bins", "3x"], "--bins"),
            ("metrics", ["--bins", "3x4x5"], "--bins"),
            ("gift", ["--terms", "1:2:x"], "--terms"),
            ("gift", ["--terms", "1:0.5:1"], "--terms"),
            ("place", ["--init", "gift", "--terms", "1:2"], "--terms"),
            ("gift", ["--terms", "1:2:3:4"], "bad --terms entry '1:2:3:4', expected sigma:k:alpha"),
            ("gift", ["--terms", "1:2:0.5,"], "bad --terms entry '', expected sigma:k:alpha"),
        ],
    )
    def test_conversion_error_names_option(self, bench, tmp_path, capsys, command, flags, named):
        out = tmp_path / "out"
        code, stdout, err = run_cli(capsys, command, bench, *flags, "--out", str(out))
        assert code == 2
        assert err.count("\n") == 1
        assert named in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "command,flags",
        [
            ("gift", ["--terms", "1:0:1"]),
            ("place", ["--jitter", "-1"]),
            ("place", ["--bins", "x"]),
            ("metrics", ["--bins", "x"]),
            ("place", ["--init", "foo"]),
        ],
    )
    def test_filter_and_grid_options_checked_before_parsing(self, tmp_path, capsys, command, flags):
        code, _, err = run_cli(capsys, command, str(tmp_path / "missing.aux"), *flags)
        assert code == 2
        assert "missing.aux" not in err

    def test_metrics_bins_above_cap_exit_2(self, bench, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, stdout, err = run_cli(capsys, "metrics", bench, "--bins", "2049", "--out", str(out))
        assert code == 2
        assert err.count("\n") == 1
        assert "<= 2048" in err
        assert stdout == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["metrics", "place"])
    def test_bins_above_cap_checked_before_parsing(self, tmp_path, capsys, command):
        code, _, err = run_cli(capsys, command, str(tmp_path / "missing.aux"), "--bins", "2049x4")
        assert code == 2
        assert "missing.aux" not in err

    def test_spectrum_non_finite_sigma_exit_2(self, bench, tmp_path, capsys):
        out_dir = tmp_path / "spec"
        code, stdout, err = run_cli(capsys, "spectrum", bench, "--sigma", "nan", "--out-dir", str(out_dir))
        assert code == 2
        assert err.count("\n") == 1
        assert stdout == ""
        assert not list(out_dir.glob("*.csv"))

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--k", "2,0"], "--k"),
            (["--k", "1.5"], "--k"),
            (["--sigma", "1,-1"], "--sigma"),
            (["--sigma", "0,x"], "--sigma"),
            (["--sigma", "0,inf"], "--sigma"),
            (["--sigma", "1:2"], "bad --sigma entry '1:2', expected a finite number >= 0"),
            (["--k", "1,,2"], "bad --k entry '', expected an integer >= 1"),
        ],
    )
    def test_spectrum_bad_list_exit_2_before_writing(self, bench, tmp_path, capsys, flags, named):
        out_dir = tmp_path / "spec"
        code, stdout, err = run_cli(capsys, "spectrum", bench, *flags, "--out-dir", str(out_dir))
        assert code == 2
        assert err.count("\n") == 1
        assert named in err
        assert stdout == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("flags", [["--sigma", "0.1234567,0.1234568"], ["--sigma", "1,1.0"], ["--k", "2,2"]])
    def test_spectrum_values_alike_in_file_names_exit_2_before_parsing(self, bench, tmp_path, capsys, monkeypatch,
                                                                       flags):
        # two values that name one CSV would write one over the other: refused before any eigensystem
        monkeypatch.setattr(cli, "parse_design", None)
        out_dir = tmp_path / "spec"
        code, stdout, err = run_cli(capsys, "spectrum", bench, *flags, "--out-dir", str(out_dir))
        assert code == 2
        assert err.count("\n") == 1
        assert "give two outputs one file name" in err
        assert stdout == ""
        assert not out_dir.exists()

    def test_spectrum_lists_checked_before_parsing(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "spectrum", str(tmp_path / "missing.aux"), "--k", "0")
        assert code == 2
        assert "--k" in err

    @pytest.mark.parametrize("command", ["gift", "place", "benchgen"])
    def test_negative_seed_exit_2_before_reading(self, tmp_path, capsys, command):
        out_dir = tmp_path / "gen"
        args = ["--out-dir", str(out_dir)] if command == "benchgen" else [str(tmp_path / "missing.aux")]
        code, stdout, err = run_cli(capsys, command, *args, "--seed", "-1")
        assert code == 2
        assert err.count("\n") == 1
        assert "seed" in err
        assert "missing.aux" not in err
        assert stdout == ""
        assert not out_dir.exists()

    def test_help_shows_library_defaults(self, capsys):
        with pytest.raises(SystemExit):
            main(["place", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for default in ("(default 1.03)", "(default 1000)", "(default 0.15)", "(default 1.0)", "(default center)"):
            assert default in text

    def test_place_options_hold_every_placer_default(self):
        # run_place builds its PlacerConfig from these options, one per field; --bins and --rho-t make its grid
        hints = typing.get_type_hints(PlacerConfig)
        for f in dataclasses.fields(PlacerConfig):
            if f.name != "grid":
                kind, default, _ = cli.OPTIONS["place"][f.name]
                assert default == f.default and kind in (hints[f.name], *typing.get_args(hints[f.name])), f.name


class TestRemovedOptions:
    """Options that no code read are gone: --seed of metrics and spectrum, and report's
    --seed and --manifest; so is place's --step, with the fixed step, and every command's
    --config file, whose options are flags. Each now exits 2 at argument parsing."""

    @pytest.mark.parametrize(
        "command,flag",
        [("metrics", "--seed"), ("spectrum", "--seed"), ("report", "--seed"), ("report", "--manifest"), ("report", "--config"),
         ("place", "--step"), *((command, "--config") for command in ("gift", "place", "spectrum", "metrics", "benchgen"))],
    )
    def test_exit_2(self, bench, tmp_path, monkeypatch, capsys, command, flag):
        monkeypatch.chdir(tmp_path)  # where benchgen and spectrum write by default
        before = sorted(os.listdir(os.path.dirname(bench)))
        positional = {"report": ["run.manifest.json"], "benchgen": []}.get(command, [bench])
        with pytest.raises(SystemExit) as exc:
            main([command, *positional, flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["bench"] and sorted(os.listdir(os.path.dirname(bench))) == before

    @pytest.mark.parametrize(
        "command,options",
        [
            ("metrics", "--bins --manifest --max-clique-pins --out --pl --rho-t --verbose"),
            ("spectrum", "--k --manifest --max-clique-pins --out-dir --sigma --verbose"),
            ("report", "--out-dir --replay --verbose"),
            ("place", "--bins --gamma --init --jitter --lambda-growth --lambda0 --manifest --max-clique-pins "
                      "--max-iters --out --rho-t --seed --stop-overflow --terms --trace --verbose"),
            ("gift", "--jitter --manifest --max-clique-pins --out --seed --terms --verbose"),
            ("benchgen", "--cells --cols --fanout --io --long-range-fraction --manifest --name --out-dir --rows --seed "
                         "--utilization --verbose"),
        ],
        ids=["metrics", "spectrum", "report", "place", "gift", "benchgen"],
    )
    def test_help_lists_the_options_read(self, capsys, command, options):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert " ".join(sorted(set(re.findall(r"--[a-z][a-z0-9-]*", capsys.readouterr().out)) - {"--help"})) == options


class TestManifestPhases:
    """The timed phases a manifest records, per command and start."""

    @pytest.mark.parametrize(
        "args,phases",
        [
            (["place", "--init", "center", "--max-iters", "3"], ["parse", "place"]),
            (["place", "--init", "gift", "--max-iters", "3"], ["parse", "graph", "filter", "place"]),
            (["place", "--init", "eigen", "--max-iters", "3"], ["parse", "graph", "eigen", "place"]),
            (["gift"], ["parse", "graph", "filter"]),
        ],
    )
    def test_phase_names(self, bench, tmp_path, capsys, args, phases):
        command, *flags = args
        manifest = tmp_path / "run.manifest.json"
        code, _, _ = run_cli(
            capsys, command, bench, *flags, "--out", str(tmp_path / "out.pl"), "--manifest", str(manifest)
        )
        assert code == 0
        timings = json.loads(manifest.read_text())["timings"]
        assert [t["phase"] for t in timings] == phases
        assert all(t["seconds"] >= 0.0 for t in timings)


class TestDiagnostics:
    def test_no_color_respected(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("NO_COLOR", "1")
        code, _, err = run_cli(capsys, "gift", str(tmp_path / "missing.aux"))
        assert code == 1
        assert "error:" in err
        assert "\x1b[" not in err


    def test_missing_placement_exit_1(self, bench, tmp_path, capsys):
        code, stdout, err = run_cli(capsys, "metrics", bench, "--pl", str(tmp_path / "missing.pl"))
        assert code == 1
        assert "missing input file" in err and "missing.pl" in err
        assert stdout == ""


class TestReportReplay:
    def replay(self, capsys, manifest: str, out_dir: str) -> int:
        code, _, _ = run_cli(capsys, "report", manifest, "--replay", "--out-dir", out_dir)
        return code

    def test_report_prints_manifest(self, bench, tmp_path, capsys):
        out = tmp_path / "g.pl"
        code, _, _ = run_cli(capsys, "gift", bench, "--out", str(out))
        assert code == 0
        code, stdout, _ = run_cli(capsys, "report", str(tmp_path / "g.pl.manifest.json"))
        assert code == 0
        assert json.loads(stdout)["command"] == "gift"

    def test_gift_replay_byte_identical(self, bench, tmp_path, capsys):
        out = tmp_path / "g.pl"
        code, _, _ = run_cli(capsys, "gift", bench, "--out", str(out), "--seed", "4")
        assert code == 0
        replay_dir = tmp_path / "replay"
        assert self.replay(capsys, str(tmp_path / "g.pl.manifest.json"), str(replay_dir)) == 0
        assert (replay_dir / "g.pl").read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("step", [False, True], ids=["as-written", "recording-null-step"])
    def test_place_replay_byte_identical(self, bench, tmp_path, capsys, step):
        out = tmp_path / "p.pl"
        code, stdout, _ = run_cli(
            capsys, "place", bench, "--init", "gift", "--out", str(out),
            "--max-iters", "25", "--seed", "6",
        )
        assert code == 0
        manifest = tmp_path / "p.pl.manifest.json"
        if step:  # as every place manifest did while place took a fixed --step: null, the saturated step
            doc = json.loads(manifest.read_text())
            doc["options"]["step"] = None
            manifest.write_text(json.dumps(doc))
        replay_dir = tmp_path / "replay"
        code, replayed, _ = run_cli(capsys, "report", str(manifest), "--replay", "--out-dir", str(replay_dir))
        assert code == 0
        assert json.loads(replayed) == {**json.loads(stdout), "out": str(replay_dir / "p.pl")}
        assert (replay_dir / "p.pl").read_bytes() == out.read_bytes()
        assert (replay_dir / "p.pl.trace.csv").read_bytes() == (
            tmp_path / "p.pl.trace.csv"
        ).read_bytes()
        assert "step" not in json.loads((replay_dir / "p.pl.manifest.json").read_text())["options"]

    def test_replay_verbose(self, bench, tmp_path, capsys):
        out = tmp_path / "g.pl"
        code, _, _ = run_cli(capsys, "gift", bench, "--out", str(out), "--seed", "4")
        assert code == 0
        replay_dir = tmp_path / "replay"
        code, _, _ = run_cli(capsys, "report", str(tmp_path / "g.pl.manifest.json"), "--replay", "-v", "--out-dir", str(replay_dir))
        assert code == 0
        assert (replay_dir / "g.pl").read_bytes() == out.read_bytes()

    @staticmethod
    def record_seed(manifest: Path) -> None:
        """Record a ``seed`` option, as every metrics and spectrum manifest once did."""
        doc = json.loads(manifest.read_text())
        doc["options"]["seed"] = 3
        manifest.write_text(json.dumps(doc))

    @pytest.mark.parametrize("seed", [False, True], ids=["as-written", "recording-seed"])
    def test_metrics_replay_byte_identical(self, bench, tmp_path, capsys, seed):
        out = tmp_path / "m.json"
        code, stdout, _ = run_cli(capsys, "metrics", bench, "--out", str(out))
        assert code == 0
        manifest = tmp_path / "m.json.manifest.json"
        if seed:
            self.record_seed(manifest)
        replay_dir = tmp_path / "replay"
        code, replayed, _ = run_cli(capsys, "report", str(manifest), "--replay", "--out-dir", str(replay_dir))
        assert code == 0
        assert replayed == stdout
        assert (replay_dir / "m.json").read_bytes() == out.read_bytes()
        assert "seed" not in json.loads((replay_dir / "m.json.manifest.json").read_text())["options"]

    @pytest.mark.parametrize("seed", [False, True], ids=["as-written", "recording-seed"])
    def test_spectrum_replay_byte_identical(self, bench, tmp_path, capsys, seed):
        out = tmp_path / "spec"
        code, stdout, _ = run_cli(capsys, "spectrum", bench, "--sigma", "0,2", "--k", "1,3", "--out-dir", str(out))
        assert code == 0
        if seed:
            self.record_seed(out / "spectrum.manifest.json")
        replay_dir = tmp_path / "replay"
        code, replayed, _ = run_cli(capsys, "report", str(out / "spectrum.manifest.json"), "--replay", "--out-dir", str(replay_dir))
        assert code == 0
        assert replayed == stdout
        written = sorted(p.name for p in out.glob("*.csv"))
        assert len(written) == 6 and sorted(p.name for p in replay_dir.glob("*.csv")) == written
        for name in written:
            assert (replay_dir / name).read_bytes() == (out / name).read_bytes()
        assert "seed" not in json.loads((replay_dir / "spectrum.manifest.json").read_text())["options"]

    def test_benchgen_replay_byte_identical(self, tmp_path, capsys):
        first = tmp_path / "first"
        code, _, _ = run_cli(
            capsys, "benchgen", "--cells", "30", "--seed", "5", "--out-dir", str(first)
        )
        assert code == 0
        replay_dir = tmp_path / "replay"
        assert self.replay(capsys, str(first / "synth.manifest.json"), str(replay_dir)) == 0
        for ext in (".aux", ".nodes", ".nets", ".pl", ".scl"):
            assert (replay_dir / f"synth{ext}").read_bytes() == (
                first / f"synth{ext}"
            ).read_bytes()


class TestReportRejects:
    """report takes only run manifests: anything else exits with one line and creates nothing."""

    def report(self, capsys, tmp_path, path, replay):
        out_dir = tmp_path / "replay"
        code, stdout, err = run_cli(capsys, "report", str(path), *replay, "--out-dir", str(out_dir))
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert stdout == ""
        assert not out_dir.exists()
        return code, err

    @pytest.mark.parametrize("replay", [[], ["--replay"]], ids=["print", "replay"])
    @pytest.mark.parametrize(
        "text,problem",
        [
            ("[1]", "not a JSON object"),
            ('{"command": "gift"}', "options is not an object"),
            ('{"command": "gift", "options": []}', "options is not an object"),
            ('{"command": "gift", "options": {}}', "options lack"),
            ('{"command": "nope", "options": {}}', "unknown command 'nope'"),
            ('{"command": ["gift"], "options": {}}', "unknown command"),
            ("{", "not a run manifest"),
        ],
        ids=["list", "no-options", "options-list", "options-empty", "unknown-command", "command-list", "not-json"],
    )
    def test_not_a_manifest_exit_2(self, tmp_path, capsys, text, problem, replay):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, err = self.report(capsys, tmp_path, path, replay)
        assert code == 2
        assert "bad.json" in err
        assert problem in err

    def test_replay_without_out_dir_exit_2(self, bench, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "gift", bench, "--out", str(tmp_path / "g.pl"))
        assert code == 0
        code, stdout, err = run_cli(capsys, "report", str(tmp_path / "g.pl.manifest.json"), "--replay")
        assert code == 2
        assert "--replay requires --out-dir" in err
        assert stdout == ""

    @pytest.mark.parametrize("key", ["aux", "terms", "seed"])
    def test_manifest_lacking_an_option_exit_2(self, bench, tmp_path, capsys, key):
        code, _, _ = run_cli(capsys, "gift", bench, "--out", str(tmp_path / "g.pl"))
        assert code == 0
        path = tmp_path / "g.pl.manifest.json"
        doc = json.loads(path.read_text())
        del doc["options"][key]
        path.write_text(json.dumps(doc))
        code, err = self.report(capsys, tmp_path, path, ["--replay"])
        assert code == 2
        assert f"options lack {key!r}" in err

    @pytest.mark.parametrize("replay", [[], ["--replay"]], ids=["print", "replay"])
    @pytest.mark.parametrize("command,key", [("metrics", "binz"), ("gift", "bins")])
    def test_unknown_option_exit_2(self, bench, tmp_path, capsys, command, key, replay):
        code, _, _ = run_cli(capsys, command, bench, "--out", str(tmp_path / "out"))
        assert code == 0
        path = tmp_path / "out.manifest.json"
        doc = json.loads(path.read_text())
        doc["options"][key] = "3"
        path.write_text(json.dumps(doc))
        code, err = self.report(capsys, tmp_path, path, replay)
        assert code == 2
        assert f"not a run manifest: unknown option {key!r}" in err

    def place_manifest(self, capsys, bench, tmp_path, **options):
        """A place run's manifest with some recorded options replaced."""
        code, _, _ = run_cli(capsys, "place", bench, "--out", str(tmp_path / "p.pl"), "--max-iters", "1")
        assert code == 0
        path = tmp_path / "p.pl.manifest.json"
        doc = json.loads(path.read_text())
        doc["options"].update(options)
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.parametrize("replay", [[], ["--replay"]], ids=["print", "replay"])
    @pytest.mark.parametrize(
        "key,value",
        [
            ("seed", "abc"),
            ("max_iters", None),
            ("gamma", "x"),
            ("seed", 1.5),
            ("seed", True),
            ("stop_overflow", False),
            ("lambda_growth", [1.03]),
            ("init", None),
            ("out", 3),
            ("aux", None),
        ],
    )
    def test_mistyped_option_exit_2(self, bench, tmp_path, capsys, key, value, replay):
        path = self.place_manifest(capsys, bench, tmp_path, **{key: value})
        code, err = self.report(capsys, tmp_path, path, replay)
        assert code == 2
        assert f"not a run manifest: option {key!r} is {json.dumps(value)}" in err

    @pytest.mark.parametrize("step", [0.02, 1])
    def test_fixed_step_manifest_replay_exit_2(self, bench, tmp_path, capsys, step):
        # a fixed step chose another update rule, which is gone: such a run cannot be replayed, though it still prints
        path = self.place_manifest(capsys, bench, tmp_path, step=step)
        code, err = self.report(capsys, tmp_path, path, ["--replay"])
        assert code == 2
        assert f"p.pl.manifest.json: cannot replay --step {step}: " in err
        code, stdout, _ = run_cli(capsys, "report", str(path))
        assert code == 0 and json.loads(stdout)["options"]["step"] == step

    def test_int_for_float_and_null_defaults_replay(self, bench, tmp_path, capsys):
        path = self.place_manifest(capsys, bench, tmp_path, lambda_growth=1, gamma=None, step=None, max_clique_pins=None)
        code, _, err = run_cli(capsys, "report", str(path), "--replay", "--out-dir", str(tmp_path / "replay"))
        assert code == 0, err
        assert (tmp_path / "replay" / "p.pl").exists()

    @pytest.mark.parametrize("replay", [[], ["--replay"]], ids=["print", "replay"])
    def test_missing_manifest_exit_1(self, tmp_path, capsys, replay):
        code, err = self.report(capsys, tmp_path, tmp_path / "missing.json", replay)
        assert code == 1
        assert "missing.json" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "giftplace" in capsys.readouterr().out


class TestUnusableGeneratorInputs:
    """A benchgen input the generator cannot use exits 2, names the option and writes nothing."""

    @pytest.mark.parametrize(
        "flags,named",
        [
            (["--long-range-fraction", "-1"], "long_range_fraction"),
            (["--long-range-fraction", "2"], "long_range_fraction"),
            (["--long-range-fraction", "nan"], "long_range_fraction"),
            (["--io", "-3"], "io_count"),
            (["--fanout", "2:nan"], "fanout"),
            (["--fanout", "2:0"], "fanout"),
            (["--fanout", "2:-1,3:2"], "fanout"),
            (["--fanout", "2:1e308,3:1e308"], "fanout"),
            (["--fanout", "2"], "--fanout"),
            (["--fanout", "two:1"], "--fanout"),
            (["--fanout", "2:0.5:1"], "bad --fanout entry '2:0.5:1', expected DEGREE:WEIGHT"),
            (["--utilization", "1e-8"], "utilization"),
            (["--utilization", "5e-324"], "utilization"),
            (["--fanout", "2:0.3,3:0.3,2:0.4"], "--fanout repeats degree 2"),
            (["--name", ""], "name '' cannot be listed in an .aux"),
            (["--name", "a b"], "name 'a b' cannot be listed in an .aux"),
            (["--name", "a#b"], "name 'a#b' cannot be listed in an .aux"),
            (["--name", "sub/x"], "name 'sub/x' cannot be listed in an .aux"),
        ],
    )
    def test_exit_2(self, tmp_path, capsys, flags, named):
        out_dir = tmp_path / "gen"
        code, stdout, err = run_cli(capsys, "benchgen", "--cells", "50", *flags, "--out-dir", str(out_dir))
        assert code == 2
        assert err.count("\n") == 1
        assert named in err
        assert stdout == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags,named",
        [(["--cols", "0"], "cols"), (["--cols", "-1"], "cols"), (["--rows", "0"], "rows"), (["--rows", "-2"], "rows")],
    )
    def test_grid_below_one_exit_2(self, tmp_path, capsys, flags, named):
        self.test_exit_2(tmp_path, capsys, flags, named)

    @pytest.mark.parametrize("flags", [["--long-range-fraction", "0"], ["--long-range-fraction", "1"], ["--io", "0"]])
    def test_boundary_values_accepted(self, tmp_path, capsys, flags):
        code, _, _ = run_cli(capsys, "benchgen", "--cells", "50", *flags, "--out-dir", str(tmp_path))
        assert code == 0


class TestCliqueCap:
    """A clique cap below 2 would skip every net; each command that reads it exits 2."""

    @pytest.mark.parametrize("cap", ["-1", "0", "1"])
    @pytest.mark.parametrize(
        "command,flags",
        [("gift", []), ("place", ["--init", "gift"]), ("metrics", []), ("spectrum", [])],
    )
    def test_below_two_exit_2(self, bench, tmp_path, capsys, command, flags, cap):
        out = tmp_path / "out"
        out_flag = "--out-dir" if command == "spectrum" else "--out"
        code, stdout, err = run_cli(capsys, command, bench, *flags, "--max-clique-pins", cap, out_flag, str(out))
        assert code == 2
        assert err.count("\n") == 1
        assert "--max-clique-pins" in err
        assert stdout == ""
        assert not out.exists()

    def test_two_accepted(self, bench, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "gift", bench, "--max-clique-pins", "2", "--out", str(tmp_path / "g.pl"))
        assert code == 0

    def test_net_over_the_old_entry_bound_runs(self, tmp_path, capsys):
        # one 8193-pin net: its clique would hold 8193 * 8192 > 2**26 entries, the operator 8193
        gen = tmp_path / "gen"
        flags = ["--cells", "8193", "--fanout", "8193:1", "--long-range-fraction", "0.0001"]
        code, _, _ = run_cli(capsys, "benchgen", *flags, "--out-dir", str(gen))
        assert code == 0
        out = tmp_path / "g.pl"
        code, stdout, err = run_cli(capsys, "gift", str(gen / "synth.aux"), "--out", str(out))
        assert code == 0
        assert err == ""
        assert json.loads(stdout)["out"] == str(out)
        assert out.exists()


def probe_words(tmp_path, code: str) -> list[str]:
    """The stdout words of ``code`` run in a fresh interpreter, in ``tmp_path``."""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=child_env(), check=True, cwd=tmp_path)
    return run.stdout.split()


SCIPY_LOADED = "any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)"


def test_importing_the_cli_leaves_scipy_fft_unloaded(tmp_path):
    """Only the dense spectral paths (`spectrum`, `place --init eigen`) need scipy; importing the CLI loads none."""
    probe = f"import sys, giftplace.cli; print({SCIPY_LOADED})"
    assert probe_words(tmp_path, probe) == ["False"]


def test_gift_leaves_scipy_fft_unloaded(tmp_path):
    """benchgen, gift and metrics filter and measure with numpy alone: no scipy module loads."""
    probe = ("import contextlib, io, sys, giftplace.cli as cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [cli.main(['benchgen', '--cells', '50', '--seed', '1', '--out-dir', 'd']),\n"
             "             cli.main(['gift', 'd/synth.aux', '--seed', '1', '--out', 'g.pl']),\n"
             "             cli.main(['metrics', 'd/synth.aux', '--pl', 'g.pl'])]\n"
             f"print(*codes, {SCIPY_LOADED})")
    assert probe_words(tmp_path, probe) == ["0", "0", "0", "False"]
    assert (tmp_path / "g.pl").exists()


@pytest.mark.parametrize("init", ["center", "gift"])
def test_place_leaves_scipy_unloaded(tmp_path, init):
    """The placer solves its Poisson problem with numpy's FFT: place loads no scipy module from either start."""
    probe = ("import contextlib, io, sys, giftplace.cli as cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             "    codes = [cli.main(['benchgen', '--cells', '50', '--seed', '1', '--out-dir', 'd']),\n"
             f"             cli.main(['place', 'd/synth.aux', '--init', '{init}', '--seed', '1', '--out', 'p.pl'])]\n"
             f"print(*codes, {SCIPY_LOADED})")
    assert probe_words(tmp_path, probe) == ["0", "0", "False"]
    assert (tmp_path / "p.pl").exists()
