"""Wirelength, smoothness, density and overflow measures.

Derived quantities are cross-checked with independent oracles: the Laplacian
quadratic form for the edge-sum wirelength, brute-force per-net bounding boxes
for HPWL, and pairwise-transfer monotonicity for overflow.
"""

from __future__ import annotations

import numpy as np
import pytest

from giftplace import (
    DensityGrid,
    DimensionMismatchError,
    GridConfig,
    Region,
    ZeroSignalError,
    build_clique_graph,
    default_bins,
    density_map,
    eigendecompose,
    generate,
    hpwl,
    identity_minus,
    laplacian,
    max_bin_density,
    normalized_augmented_adjacency,
    overflow,
    quadratic_wirelength,
    rayleigh_smoothness,
)
from giftplace import report as metrics_report
from giftplace.metrics import MAX_BINS
from tests.conftest import from_coo, make_design, random_connected_graph


def grid_design(n_cells=1, cell_w=1.0, cell_h=1.0, region=(0.0, 0.0, 8.0, 8.0), nets=()):
    return make_design(n_cells, list(nets), Region(*region), sizes=(cell_w, cell_h))


class TestQuadraticWirelength:
    def test_constant_placement_zero(self, graph_rng):
        adj = random_connected_graph(10, graph_rng)
        g = np.full((10, 2), 3.0)
        assert quadratic_wirelength(adj, g) == 0.0

    def test_single_edge(self):
        adj = from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
        g = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert quadratic_wirelength(adj, g) == pytest.approx(2.0)

    def test_matches_laplacian_form(self, graph_rng):
        adj = random_connected_graph(40, graph_rng)
        lap = laplacian(adj)
        g = graph_rng.uniform(-5.0, 5.0, size=(40, 2))
        edge_sum = quadratic_wirelength(adj, g)
        lap_form = sum(float(g[:, a] @ lap.matmul(g[:, a])) for a in (0, 1))
        assert edge_sum == pytest.approx(lap_form, rel=1e-6)

    def test_scale_quadratic(self, graph_rng):
        adj = random_connected_graph(20, graph_rng)
        g = graph_rng.standard_normal((20, 2))
        assert quadratic_wirelength(adj, 3.0 * g) == pytest.approx(
            9.0 * quadratic_wirelength(adj, g), rel=1e-10
        )

    def test_translation_invariant(self, graph_rng):
        adj = random_connected_graph(20, graph_rng)
        g = graph_rng.standard_normal((20, 2))
        assert quadratic_wirelength(adj, g + 100.0) == pytest.approx(
            quadratic_wirelength(adj, g), rel=1e-8
        )

    def test_dimension_check(self, graph_rng):
        adj = random_connected_graph(5, graph_rng)
        with pytest.raises(DimensionMismatchError):
            quadratic_wirelength(adj, np.zeros((6, 2)))

    def test_edgeless_graph_zero(self):
        adj = from_coo(3, [], [], [])
        assert adj.nnz == 0
        assert quadratic_wirelength(adj, np.arange(6.0).reshape(3, 2)) == 0.0


class TestRayleigh:
    def test_eigenvector_identity(self, graph_rng):
        adj = random_connected_graph(30, graph_rng)
        lt = identity_minus(normalized_augmented_adjacency(adj, 0.0))
        lambdas, u = eigendecompose(lt)
        for i in (1, 10, 29):
            r = rayleigh_smoothness(lt, u[:, i], center=False)
            assert abs(r - lambdas[i]) <= 1e-8

    def test_dimension_check(self, graph_rng):
        adj = random_connected_graph(10, graph_rng)
        with pytest.raises(DimensionMismatchError, match="signal has 9 rows, Laplacian has 10"):
            rayleigh_smoothness(laplacian(adj), np.arange(9.0))

    def test_constant_signal_rejected(self, graph_rng):
        adj = random_connected_graph(10, graph_rng)
        with pytest.raises(ZeroSignalError):
            rayleigh_smoothness(laplacian(adj), np.full(10, 5.0))

    def test_scaling_invariance(self, graph_rng):
        adj = random_connected_graph(15, graph_rng)
        lap = laplacian(adj)
        g = graph_rng.standard_normal(15)
        assert rayleigh_smoothness(lap, 7.5 * g) == pytest.approx(
            rayleigh_smoothness(lap, g), rel=1e-10
        )

    def test_nonnegative(self, graph_rng):
        adj = random_connected_graph(15, graph_rng)
        assert rayleigh_smoothness(laplacian(adj), graph_rng.standard_normal(15)) >= 0.0


class TestHpwl:
    def test_direct_definition(self):
        design = grid_design(n_cells=2, nets=[[0, 1]])
        g = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert hpwl(design, g) == pytest.approx(7.0)

    def test_single_pin_net_zero(self):
        design = grid_design(n_cells=1, nets=[[0]])
        assert hpwl(design, np.array([[2.0, 2.0]])) == 0.0

    def test_empty_nets_skipped(self):
        design = grid_design(n_cells=2, nets=[[], [0, 1]])
        g = np.array([[0.0, 0.0], [1.0, 2.0]])
        assert hpwl(design, g) == pytest.approx(3.0)

    def test_translation_invariance(self):
        design = grid_design(n_cells=3, nets=[[0, 1, 2], [0, 2]])
        g = np.array([[0.0, 0.0], [5.0, 1.0], [2.0, 7.0]])
        assert hpwl(design, g + 11.0) == pytest.approx(hpwl(design, g))

    def test_pin_offsets_honored(self):
        design = make_design(
            ["a", "b"], [[(0, 2.0, 0.0), (1, -1.0, 0.5)]], Region(0.0, 0.0, 20.0, 20.0), sizes=[(4.0, 2.0), (2.0, 2.0)]
        )
        g = np.array([[5.0, 5.0], [10.0, 5.0]])
        # pin positions: (7,5) and (9,5.5)
        assert hpwl(design, g) == pytest.approx(2.0 + 0.5)

    def test_brute_force_oracle(self):
        design = generate(cells=80, seed=3)
        rng = np.random.default_rng(5)
        g = rng.uniform(-5.0, 5.0, size=(design.num_cells, 2))
        expected = 0.0
        for a, b in zip(design.net_start[:-1], design.net_start[1:]):
            if b - a < 2:
                continue
            xs = [g[c, 0] + dx for c, dx in zip(design.pin_cell[a:b], design.pin_dx[a:b])]
            ys = [g[c, 1] + dy for c, dy in zip(design.pin_cell[a:b], design.pin_dy[a:b])]
            expected += (max(xs) - min(xs)) + (max(ys) - min(ys))
        assert hpwl(design, g) == pytest.approx(expected, rel=1e-10)


class TestDensityMap:
    def test_cell_inside_one_bin(self):
        design = grid_design()
        grid = density_map(design, np.array([[0.5, 0.5]]), GridConfig(nx=8, ny=8))
        assert grid.rho[0, 0] == pytest.approx(1.0)
        assert grid.rho.sum() == pytest.approx(1.0)

    def test_cell_split_across_boundary(self):
        design = grid_design(cell_w=2.0, cell_h=1.0)
        # center on the x=1 bin boundary: one unit of area in each adjacent bin
        grid = density_map(design, np.array([[1.0, 0.5]]), GridConfig(nx=8, ny=8))
        assert grid.rho[0, 0] == pytest.approx(1.0)
        assert grid.rho[1, 0] == pytest.approx(1.0)

    def test_four_way_split(self):
        design = grid_design(cell_w=1.0, cell_h=1.0)
        grid = density_map(design, np.array([[1.0, 1.0]]), GridConfig(nx=8, ny=8))
        for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
            assert grid.rho[i, j] == pytest.approx(0.25)

    def test_wide_cell_slow_path(self):
        design = grid_design(cell_w=5.0, cell_h=3.0)
        grid = density_map(design, np.array([[4.0, 4.0]]), GridConfig(nx=8, ny=8))
        assert grid.rho.sum() == pytest.approx(15.0)
        # middle column bins fully covered
        assert grid.rho[3, 3] == pytest.approx(1.0)

    def test_mass_conservation_random(self):
        design = generate(cells=300, seed=9)
        rng = np.random.default_rng(1)
        r = design.region
        g = np.column_stack(
            [rng.uniform(r.xmin, r.xmax, design.num_cells), rng.uniform(r.ymin, r.ymax, design.num_cells)]
        )
        grid = density_map(design, g, GridConfig(nx=13, ny=11))
        w, h = design.widths, design.heights
        x0 = np.clip(g[:, 0] - w / 2, r.xmin, r.xmax)
        x1 = np.clip(g[:, 0] + w / 2, r.xmin, r.xmax)
        y0 = np.clip(g[:, 1] - h / 2, r.ymin, r.ymax)
        y1 = np.clip(g[:, 1] + h / 2, r.ymin, r.ymax)
        clipped = np.maximum(x1 - x0, 0.0) * np.maximum(y1 - y0, 0.0)
        assert grid.rho.sum() == pytest.approx(clipped.sum(), rel=1e-6)

    def test_out_of_region_mass_clipped(self):
        design = grid_design()
        grid = density_map(design, np.array([[0.0, 0.0]]), GridConfig(nx=8, ny=8))
        # only the in-region quarter of the cell counts
        assert grid.rho.sum() == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "cell,region,bins",
        [
            ((1.0, 1.0), (0.0, 0.0, 64.0, 48.0), (64, 48)),
            ((2.0, 0.5), (0.0, 0.0, 64.0, 48.0), (32, 96)),
        ],
    )
    def test_default_bins_are_the_average_movable_cell_within_4_to_512(self, cell, region, bins):
        assert default_bins(grid_design(cell_w=cell[0], cell_h=cell[1], region=region)) == bins

    @pytest.mark.parametrize(
        "region,bins",
        [
            ((0.0, 0.0, 535.0, 600.0), (535, 600)),
            ((0.0, 0.0, 2048.0, 700.5), (2048, 700)),
            ((0.0, 0.0, 2.0, 4096.0), (4, MAX_BINS)),
        ],
    )
    def test_default_bins_keep_unit_cells_past_512_up_to_max_bins(self, region, bins):
        # bins stay one cell wide past the old cap of 512, so a 200k-cell region is not coarser than its cells
        assert default_bins(grid_design(region=region)) == bins

    def test_default_bins_average_fixed_cells_only_when_none_moves(self):
        region = Region(0.0, 0.0, 64.0, 64.0)
        macro = make_design(2, [], region, sizes=[(1.0, 1.0), (30.0, 20.0)], pads={1: (32.0, 32.0)})
        assert default_bins(macro) == (64, 64)
        pad = make_design(1, [], region, sizes=(2.0, 4.0), pads={0: (1.0, 2.0)})
        assert default_bins(pad) == (32, 16)

    @pytest.mark.parametrize("bins,want", [({}, (64, 48)), ({"nx": 7}, (7, 48)), ({"ny": 5}, (64, 5))])
    def test_density_map_fills_unset_counts_from_default_bins(self, bins, want):
        design = grid_design(region=(0.0, 0.0, 64.0, 48.0))
        grid = density_map(design, np.array([[3.0, 3.0]]), GridConfig(**bins))
        assert (grid.nx, grid.ny) == want
        assert (grid.bin_w, grid.bin_h) == (64.0 / want[0], 48.0 / want[1])

    @pytest.mark.parametrize("bins", [{"nx": 0}, {"ny": 0}, {"nx": -2, "ny": 4}])
    def test_grid_rejects_empty_bin_counts(self, bins):
        with pytest.raises(ValueError, match="bin counts must be >= 1"):
            GridConfig(**bins)

    @pytest.mark.parametrize("bins", [{"nx": 2049}, {"ny": 2049}, {"nx": 4, "ny": 10_000_000}])
    def test_grid_rejects_bin_counts_above_cap(self, bins):
        with pytest.raises(ValueError, match="bin counts must be .*<= 2048"):
            GridConfig(**bins)

    @pytest.mark.parametrize("rho_t", [0.0, -0.5, 1.5, float("nan")])
    def test_grid_rejects_target_density_outside_0_1(self, rho_t):
        with pytest.raises(ValueError, match=r"rho_t must be in \(0, 1\]"):
            GridConfig(rho_t=rho_t)

    def test_grid_accepts_bin_counts_at_cap(self):
        assert (GridConfig(nx=2048, ny=1).nx, GridConfig(nx=1, ny=2048).ny) == (2048, 2048)


class TestOverflow:
    def make_grid(self, rho, rho_t=1.0, bin_w=1.0, bin_h=1.0):
        return DensityGrid(
            nx=rho.shape[0], ny=rho.shape[1], bin_w=bin_w, bin_h=bin_h,
            rho=rho, rho_t=rho_t,
        )

    def test_empty_grid_zero(self):
        assert overflow(self.make_grid(np.zeros((4, 4)))) == 0.0

    def test_under_target_zero(self):
        grid = self.make_grid(np.full((4, 4), 0.5))
        assert overflow(grid) == 0.0

    def test_single_stack_approaches_one(self):
        rho = np.zeros((10, 10))
        rho[0, 0] = 100.0
        grid = self.make_grid(rho, rho_t=0.01)
        assert overflow(grid) == pytest.approx((100.0 - 0.01) / 100.0)

    def test_pairwise_transfer_monotone(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            rho = rng.uniform(0.0, 3.0, size=(6, 6))
            grid = self.make_grid(rho.copy())
            base = overflow(grid)
            over = np.argwhere(rho > 1.0)
            empty = np.argwhere(rho == 0.0)
            if over.size == 0:
                continue
            src = tuple(over[0])
            dst = tuple(empty[0]) if empty.size else None
            if dst is None:
                continue
            moved = min(rho[src] - 1.0, 1.0)
            rho2 = rho.copy()
            rho2[src] -= moved
            rho2[dst] += moved
            assert overflow(self.make_grid(rho2)) <= base + 1e-12

    def test_hand_built_grid_needs_no_overlaps(self):
        rho = np.array([[0.5, 2.0], [0.0, 1.5]])
        grid = self.make_grid(rho)
        assert grid.overlaps is None
        assert overflow(grid) == pytest.approx(1.5 / 4.0)
        assert max_bin_density(grid) == 2.0

    def test_max_bin_density(self):
        rho = np.zeros((3, 3))
        rho[1, 2] = 4.5
        grid = self.make_grid(rho, bin_w=2.0, bin_h=1.5)
        assert max_bin_density(grid) == pytest.approx(4.5 / 3.0)


class TestReport:
    def test_keys_and_values(self):
        design = generate(cells=64, seed=2)
        adj = build_clique_graph(design)
        rng = np.random.default_rng(0)
        r = design.region
        g = np.column_stack(
            [rng.uniform(r.xmin, r.xmax, design.num_cells), rng.uniform(r.ymin, r.ymax, design.num_cells)]
        )
        rep = metrics_report(design, adj, g)
        assert set(rep) == {"hpwl", "quadratic_wl", "rayleigh_x", "rayleigh_y", "overflow", "max_bin_density"}
        assert rep["hpwl"] > 0 and rep["quadratic_wl"] > 0
        assert 0.0 <= rep["overflow"] <= 1.0

    def test_degenerate_rayleigh_is_none(self):
        design = grid_design(n_cells=2, nets=[[0, 1]])
        adj = build_clique_graph(design)
        g = np.full((2, 2), 4.0)  # constant placement -> centered signal is zero
        rep = metrics_report(design, adj, g)
        assert rep["rayleigh_x"] is None and rep["rayleigh_y"] is None
