"""Synthetic benchmark generator: structure, determinism, connectivity."""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from giftplace import Design, Region, Row, build_clique_graph, generate, parse_design, write_design
from giftplace.benchgen import DEFAULT_FANOUT, _ring_point


class UnionFind:
    """Independent connectivity oracle."""

    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def components(self) -> int:
        return len({self.find(i) for i in range(len(self.parent))})


def clique_components(design) -> int:
    uf = UnionFind(design.num_cells)
    starts = design.net_start.tolist()
    for lo, hi in zip(starts, starts[1:]):
        pins = design.pin_cell[lo:hi].tolist()
        for a, b in zip(pins, pins[1:]):
            uf.union(a, b)
    return uf.components()


class TestGenerate:
    def test_basic_structure(self):
        design = generate(cells=100, seed=1)
        assert design.num_movable == 100
        assert design.num_fixed >= 4
        assert design.num_nets >= 99

    def test_clique_graph_connected(self):
        design = generate(cells=100, seed=1)
        assert clique_components(design) == 1
        # and the matrix agrees with the oracle's verdict
        adj = build_clique_graph(design)
        assert (adj.degrees > 0).all()

    def test_connected_across_sizes_and_seeds(self):
        for cells, seed in ((17, 0), (64, 3), (200, 7), (500, 11)):
            assert clique_components(generate(cells=cells, seed=seed)) == 1

    def test_determinism(self):
        a = generate(cells=120, seed=9)
        b = generate(cells=120, seed=9)
        assert a.names == b.names
        assert np.array_equal(a.fixed_xy, b.fixed_xy, equal_nan=True)
        assert np.array_equal(a.net_start, b.net_start) and np.array_equal(a.pin_cell, b.pin_cell)

    def test_seeds_differ(self):
        a = generate(cells=120, seed=1)
        b = generate(cells=120, seed=2)
        assert not (np.array_equal(a.net_start, b.net_start) and np.array_equal(a.pin_cell, b.pin_cell))

    def test_all_two_pin_fanout(self):
        design = generate(cells=60, fanout={2: 1.0}, seed=5)
        assert np.all(np.diff(design.net_start) == 2)

    def test_io_on_periphery(self):
        design = generate(cells=100, seed=1)
        r = design.region
        for x, y in design.fixed_xy[design.fixed].tolist():
            on_x_edge = abs(x - (r.xmin + 0.5)) < 1e-9 or abs(x - (r.xmax - 0.5)) < 1e-9
            on_y_edge = abs(y - (r.ymin + 0.5)) < 1e-9 or abs(y - (r.ymax - 0.5)) < 1e-9
            assert on_x_edge or on_y_edge

    def test_io_count_override(self):
        design = generate(cells=64, io_count=10, seed=2)
        assert design.num_fixed == 10

    def test_utilization_controls_area(self):
        dense = generate(cells=100, utilization=1.0, seed=1)
        loose = generate(cells=100, utilization=0.25, seed=1)
        assert loose.region.width * loose.region.height > dense.region.width * dense.region.height
        # movable area / region area is at most the requested utilization
        assert 100.0 / (dense.region.width * dense.region.height) <= 1.0 + 1e-9
        assert 100.0 / (loose.region.width * loose.region.height) <= 0.25 + 1e-9

    def test_region_has_rows(self):
        design = generate(cells=50, seed=0)
        assert design.region.rows
        assert design.region.rows[0].height == 1.0

    def test_too_few_cells_rejected(self):
        with pytest.raises(ValueError):
            generate(cells=3)

    def test_bad_utilization_rejected(self):
        with pytest.raises(ValueError):
            generate(cells=10, utilization=0.0)

    def test_region_over_max_side_rejected(self):
        # 4 cells at these utilizations need a region of 65537 and 65536 rows
        with pytest.raises(ValueError, match="utilization .* needs more than 65536 rows"):
            generate(cells=4, utilization=4 / 65536.5**2)
        assert len(generate(cells=4, utilization=4 / 65535.5**2).region.rows) == 65536

    def test_bad_fanout_rejected(self):
        with pytest.raises(ValueError):
            generate(cells=10, fanout={1: 1.0})

    @pytest.mark.parametrize("long_range_fraction", [0.0, 0.5])
    def test_fanout_weights_summing_past_the_floats_rejected(self, long_range_fraction):
        with pytest.raises(ValueError, match="positive, finite sum"):
            generate(cells=10, fanout={2: 1e308, 3: 1e308}, long_range_fraction=long_range_fraction)

    def test_grid_shape_override(self):
        design = generate(cells=12, rows=3, cols=4, seed=0)
        assert design.num_movable == 12
        with pytest.raises(ValueError):
            generate(cells=12, rows=2, cols=2)

    def test_mesh_nets_match_per_cell_loop(self):
        # reference: each cell's right neighbor, then its upper one, cell by cell
        cells, cols = 23, 5
        design = generate(cells=cells, cols=cols, seed=0)
        expected = []
        for i in range(cells):
            if i % cols + 1 < cols and i + 1 < cells:
                expected += [i, i + 1]
            if i + cols < cells:
                expected += [i, i + cols]
        assert design.pin_cell[: len(expected)].tolist() == expected
        assert np.all(np.diff(design.net_start)[: len(expected) // 2] == 2)

    def test_long_range_fraction_zero(self):
        design = generate(cells=49, long_range_fraction=0.0, seed=3)
        # mesh + io nets only; everything is 2-pin
        assert np.all(np.diff(design.net_start) == 2)


def per_net_choice_generate(cells: int, fanout: dict | None = None, long_range_fraction: float = 0.15,
                            seed: int = 0) -> Design:
    """``generate`` with its default grid, pads and utilization as it was when each long net drew its degree with
    ``rng.choice(degrees, p=weights)``: the random stream the generator must keep."""
    rng = np.random.default_rng(seed)
    cols = math.ceil(math.sqrt(cells))
    rows = math.ceil(cells / cols)
    fanout = fanout or DEFAULT_FANOUT
    side = math.ceil(math.sqrt(cells / 0.70))
    half = side / 2.0
    region = Region(xmin=-half, ymin=-half, xmax=half, ymax=half,
                    rows=[Row(y=-half + r, height=1.0, x=-half, num_sites=side) for r in range(side)])
    ids = np.arange(cells)
    mesh = np.stack([ids, ids + 1, ids, ids + cols], axis=1).reshape(cells, 2, 2)
    mesh = mesh[np.stack([(ids % cols + 1 < cols) & (ids + 1 < cells), ids + cols < cells], axis=1)]
    degrees = np.array(sorted(fanout), dtype=np.int64)
    weights = np.array([fanout[int(d)] for d in degrees], dtype=float)
    weights = weights / weights.sum()
    long_nets = []
    for _ in range(int(round(long_range_fraction * cells))):
        d = min(int(rng.choice(degrees, p=weights)), cells)
        long_nets.append(rng.choice(cells, size=d, replace=False))
    n_io = max(4, int(round(2 * math.sqrt(cells))))
    grid_c, grid_r = ids % cols, ids // cols
    side_cells = {
        "bottom": np.flatnonzero(grid_r <= max(rows // 3, 0)),
        "right": np.flatnonzero(grid_c >= cols - 1 - cols // 3),
        "top": np.flatnonzero(grid_r >= rows - 1 - rows // 3),
        "left": np.flatnonzero(grid_c <= max(cols // 3, 0)),
    }
    fixed_xy = np.full((cells + n_io, 2), np.nan)
    io_nets = np.empty((n_io, 2), dtype=np.int64)
    for j in range(n_io):
        x, y, side_name = _ring_point((j + 0.5) * 4.0 * side / n_io, side, half)
        fixed_xy[cells + j] = (x, y)
        candidates = side_cells[side_name]
        target = int(rng.choice(candidates)) if candidates.size else int(rng.integers(cells))
        io_nets[j] = (target, cells + j)
    pin_cell = np.concatenate([mesh.ravel(), *long_nets, io_nets.ravel()])
    net_degrees = np.concatenate([np.full(len(mesh), 2), [len(n) for n in long_nets], np.full(n_io, 2)])
    return Design(
        names=[f"c{i}" for i in range(cells)] + [f"io{j}" for j in range(n_io)],
        widths=np.ones(cells + n_io), heights=np.ones(cells + n_io), fixed_xy=fixed_xy,
        net_names=[f"n{j}" for j in range(net_degrees.size)],
        net_start=np.concatenate(([0], np.cumsum(net_degrees))), pin_cell=pin_cell,
        pin_dx=np.zeros(pin_cell.size), pin_dy=np.zeros(pin_cell.size), region=region,
    )


WIDE_FANOUT = {2: 0.35, 3: 0.2, 4: 0.15, 6: 0.1, 8: 0.08, 16: 0.07, 32: 0.05}  # the benchmark's wide-fanout profile


@pytest.mark.parametrize("seed", [0, 1, 29])
@pytest.mark.parametrize("cells, fanout, long_range_fraction", [
    (500, None, 0.15),
    (700, WIDE_FANOUT, 0.5),
    (300, {2: 3, 5: 1}, 0.15),
    (300, {2: 0.5, 3: 0.0, 4: 0.5}, 0.3),
    (30, {2: 0.5, 40: 0.5}, 0.5),
    (200, None, 0.0),
    (200, WIDE_FANOUT, 1.0),
], ids=["default", "wide-fanout", "unnormalized", "zero-weight", "degree-above-cells", "no-long-nets", "all-long-nets"])
def test_same_random_stream_as_a_per_net_choice(cells, fanout, long_range_fraction, seed):
    design = generate(cells=cells, fanout=fanout, long_range_fraction=long_range_fraction, seed=seed)
    expected = per_net_choice_generate(cells, fanout, long_range_fraction, seed)
    for field in dataclasses.fields(Design):
        got, want = getattr(design, field.name), getattr(expected, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True), field.name
        else:
            assert got == want, field.name


@pytest.mark.parametrize("spec", [
    {"cells": 4},
    {"cells": 300},
    {"cells": 20000, "fanout": WIDE_FANOUT, "long_range_fraction": 0.5},
], ids=["4", "300", "wide-fanout-20k"])
def test_region_is_the_bounding_box_of_its_rows(tmp_path, spec):
    design = generate(seed=1, **spec)
    box = Region.of_rows(design.region.rows)
    assert box == design.region and box.rows is design.region.rows
    assert (box.xmin, box.ymin, box.xmax, box.ymax) == (-box.xmax, -box.ymax, len(box.rows) / 2, len(box.rows) / 2)
    assert parse_design(write_design(design, str(tmp_path), "synth")).region == box


class TestRoundTripThroughBookshelf:
    def test_write_parse_preserves_structure(self, tmp_path):
        design = generate(cells=80, seed=4)
        aux = write_design(design, str(tmp_path), "bench")
        again = parse_design(aux)
        assert again.num_cells == design.num_cells
        assert again.num_fixed == design.num_fixed
        assert np.array_equal(again.net_start, design.net_start)
        r1, r2 = design.region, again.region
        assert (r1.xmin, r1.ymin, r1.xmax, r1.ymax) == (r2.xmin, r2.ymin, r2.xmax, r2.ymax)
        assert clique_components(again) == 1

    def test_identical_files_for_same_seed(self, tmp_path):
        d1 = generate(cells=30, seed=8)
        d2 = generate(cells=30, seed=8)
        a1 = write_design(d1, str(tmp_path / "a"), "x")
        a2 = write_design(d2, str(tmp_path / "b"), "x")
        for ext in (".aux", ".nodes", ".nets", ".pl", ".scl"):
            f1 = a1.replace(".aux", ext)
            f2 = a2.replace(".aux", ext)
            assert Path(f1).read_bytes() == Path(f2).read_bytes()

    def test_fixed_positions_survive_round_trip(self, tmp_path):
        design = generate(cells=40, seed=6)
        aux = write_design(design, str(tmp_path), "rt")
        again = parse_design(aux)
        p1 = design.fixed_xy
        p2 = again.fixed_xy
        mask = design.fixed
        assert np.allclose(p1[mask], p2[mask], atol=1e-6)
