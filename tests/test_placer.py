"""Placer tests: gradient oracles, descent invariants, trace plumbing.

The two gradient routines are the numerical backbone — both are checked
against central finite differences. The loop tests pin determinism, fixed-cell
immobility, the pure-wirelength monotone-descent sanity check, and stopping
behavior.
"""

from __future__ import annotations

import dataclasses
import logging
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from giftplace import (
    Design,
    DivergenceError,
    GiftPlaceError,
    GridConfig,
    PlacerConfig,
    Region,
    default_bins,
    density_map,
    electrostatic_grad,
    generate,
    hpwl,
    overflow,
    run_placer,
    smooth_wirelength_grad,
    write_design,
    write_placement,
)
from giftplace import cli, metrics, placer

from conftest import make_design


def random_positions(design, rng):
    """Uniform random placement; fixed rows at their pinned coordinates."""
    region = design.region
    g = np.column_stack(
        [
            rng.uniform(region.xmin + 1.0, region.xmax - 1.0, design.num_cells),
            rng.uniform(region.ymin + 1.0, region.ymax - 1.0, design.num_cells),
        ]
    )
    fixed = design.fixed
    g[fixed] = design.fixed_xy[fixed]
    return g


def offset_pin_design():
    """Four cells, pins displaced from cell centers, on a 20x20 region."""
    nets = [
        [(0, 0.3, -0.2), (1, -0.4, 0.1), (2, 0.0, 0.5)],
        [(2, -0.1, -0.3), (3, 0.2, 0.2)],
        [(0, 0.0, 0.0), (3, -0.5, 0.4)],
    ]
    return make_design(4, nets, Region(0.0, 0.0, 20.0, 20.0), sizes=(2.0, 2.0))


def fd_gradient(fun, g, movable, h):
    """Central finite differences of fun(g) over the movable rows of g."""
    grad = np.zeros_like(g)
    for i in np.flatnonzero(movable):
        for axis in (0, 1):
            gp_ = g.copy()
            gp_[i, axis] += h
            gm = g.copy()
            gm[i, axis] -= h
            grad[i, axis] = (fun(gp_) - fun(gm)) / (2.0 * h)
    return grad


class TestWirelengthGradient:
    def test_two_pin_log_sum_exp_bounds(self):
        design = make_design(["a", "b"], [[0, 1]], Region(0.0, 0.0, 20.0, 20.0))
        g = np.array([[2.0, 5.0], [12.0, 8.0]])
        gamma = 1.0
        value, _ = smooth_wirelength_grad(design, g, gamma)
        exact = hpwl(design, g)
        # per axis the two-pin log-sum-exp overshoot is at most 2*gamma*ln 2
        assert exact <= value <= exact + 4.0 * gamma * np.log(2.0) + 1e-12

    def test_tightens_as_gamma_shrinks(self):
        design = offset_pin_design()
        g = random_positions(design, np.random.default_rng(3))
        exact = hpwl(design, g)
        loose, _ = smooth_wirelength_grad(design, g, 1.0)
        tight, _ = smooth_wirelength_grad(design, g, 1e-3)
        assert exact <= tight <= loose
        assert tight - exact < 1e-2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, seed):
        design = generate(cells=20, seed=seed)
        rng = np.random.default_rng(100 + seed)
        g = random_positions(design, rng)
        movable = ~design.fixed
        _, grad = smooth_wirelength_grad(design, g, 1.0)
        fd = fd_gradient(
            lambda gg: smooth_wirelength_grad(design, gg, 1.0)[0], g, movable, 1e-6
        )
        assert np.max(np.abs(grad[movable] - fd[movable])) <= 1e-5

    def test_matches_finite_differences_with_pin_offsets(self):
        design = offset_pin_design()
        g = random_positions(design, np.random.default_rng(7))
        movable = ~design.fixed
        _, grad = smooth_wirelength_grad(design, g, 1.0)
        fd = fd_gradient(
            lambda gg: smooth_wirelength_grad(design, gg, 1.0)[0], g, movable, 1e-6
        )
        assert np.max(np.abs(grad[movable] - fd[movable])) <= 1e-5

    def test_translation_leaves_gradient_unchanged(self):
        design = offset_pin_design()
        g = random_positions(design, np.random.default_rng(11))
        value, grad = smooth_wirelength_grad(design, g, 0.7)
        value2, grad2 = smooth_wirelength_grad(design, g + np.array([3.3, -1.7]), 0.7)
        assert value2 == pytest.approx(value, rel=1e-9)
        np.testing.assert_allclose(grad2, grad, atol=1e-9)

    def test_fixed_rows_zeroed(self, anchored_design):
        g = np.array([[1.0, 2.0], [4.0, 2.0], [8.0, 2.0], [11.0, 2.0]])
        _, grad = smooth_wirelength_grad(anchored_design, g, 0.5)
        np.testing.assert_array_equal(grad[anchored_design.fixed], 0.0)
        assert np.any(grad[~anchored_design.fixed] != 0.0)

    @pytest.mark.parametrize("nets", [[[], [0, 1]], []], ids=["empty-net", "no-nets"])
    def test_empty_net_and_no_nets(self, nets):
        design = make_design(2, nets, Region(0.0, 0.0, 20.0, 20.0))
        g = np.array([[2.0, 5.0], [12.0, 8.0]])
        value, grad = smooth_wirelength_grad(design, g, 1.0)
        assert value >= hpwl(design, g)
        assert np.isfinite(grad).all()
        fd = fd_gradient(lambda gg: smooth_wirelength_grad(design, gg, 1.0)[0], g, np.ones(2, bool), 1e-6)
        assert np.max(np.abs(grad - fd)) <= 1e-5
        if not nets:
            assert value == 0.0
            np.testing.assert_array_equal(grad, np.zeros((2, 2)))

    def test_gamma_must_be_positive(self, tri_design):
        g = np.zeros((3, 2))
        with pytest.raises(ValueError):
            smooth_wirelength_grad(tri_design, g, 0.0)
        with pytest.raises(ValueError):
            smooth_wirelength_grad(tri_design, g, -1.0)


def reference_wirelength(design, g, gamma):
    """(LSE value, its gradient, HPWL) computed net by net with reduceat over net_start."""
    g = np.asarray(g, dtype=float)
    value, exact, grad = 0.0, 0.0, np.zeros_like(g)
    starts = design.net_start[:-1][np.diff(design.net_start) > 0]
    if starts.size == 0:
        return value, grad, exact
    sizes = np.diff(np.append(starts, design.pin_cell.size))
    for axis, offs in ((0, design.pin_dx), (1, design.pin_dy)):
        p = g[design.pin_cell, axis] + offs
        hi, lo = np.maximum.reduceat(p, starts), np.minimum.reduceat(p, starts)
        ea = np.exp((p - np.repeat(hi, sizes)) / gamma)
        eb = np.exp((np.repeat(lo, sizes) - p) / gamma)
        sa, sb = np.add.reduceat(ea, starts), np.add.reduceat(eb, starts)
        value += float(np.sum(hi - lo + gamma * (np.log(sa) + np.log(sb))))
        exact += float(np.sum(hi - lo))
        np.add.at(grad[:, axis], design.pin_cell, ea / np.repeat(sa, sizes) - eb / np.repeat(sb, sizes))
    grad[design.fixed] = 0.0
    return value, grad, exact


@st.composite
def wirelength_cases(draw):
    """A design whose nets mix the given degrees, on cells that may repeat within a net, and a placement."""
    n = draw(st.integers(1, 8))
    # degrees on both sides of the power-of-two block widths; a single large degree leaves its block unpadded
    degrees = draw(st.sampled_from([(0, 1, 2, 3, 5), (2,), (3,), (0, 1, 3, 4), (1, 2, 6), (3, 4, 5, 8, 9, 17), (2, 8), (16,)]))
    offset = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    pin = st.tuples(st.integers(0, n - 1), offset, offset)
    net = st.sampled_from(degrees).flatmap(lambda k: st.lists(pin, min_size=k, max_size=k))
    nets = draw(st.lists(net, max_size=12))
    coord = st.floats(-50.0, 50.0)
    g = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    fixed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    design = make_design(n, nets, Region(-60.0, -60.0, 60.0, 60.0), pads={i: tuple(g[i]) for i in range(n) if fixed[i]})
    return design, g, draw(st.floats(0.05, 5.0))


@pytest.mark.parametrize(
    "degrees,padded",
    [((4, 4, 16, 16, 16, 8), [False, False, False]), ((2, 3, 17, 5, 9, 2, 64), [False, True, True, True, True, False]),
     ((2, 2, 2), [False]), ((), [])],
    ids=["unpadded-blocks", "padded-blocks", "two-pin-only", "no-nets"],
)
def test_degree_blocks_match_the_per_net_reference(degrees, padded):
    rng = np.random.default_rng(len(degrees))
    n = 12
    nets = [[(int(c), float(dx), float(dy)) for c, dx, dy in zip(rng.integers(0, n, k), rng.normal(size=k), rng.normal(size=k))]
            for k in degrees]
    design = make_design(n, nets, Region(-60.0, -60.0, 60.0, 60.0), pads={0: (3.0, -4.0)})
    g = rng.uniform(-50.0, 50.0, (n, 2))
    g[0] = (3.0, -4.0)
    assert [mask is not None for _, _, mask in design.pin_layout.blocks] == padded
    value, grad = smooth_wirelength_grad(design, g, 0.8)
    ref_value, ref_grad, ref_hpwl = reference_wirelength(design, g, 0.8)
    assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)
    assert hpwl(design, g) == pytest.approx(ref_hpwl, rel=1e-12, abs=1e-12)
    if not degrees:
        assert value == 0.0 and hpwl(design, g) == 0.0
        np.testing.assert_array_equal(grad, 0.0)


@pytest.mark.parametrize(
    "degrees",
    [(0, 1, 2, 3, 5, 2, 17, 4, 1, 64, 9, 3), (2, 2, 2), (0, 1, 1, 0)],
    ids=["mixed", "two-pin-only", "no-net-of-two-pins"],
)
def test_pin_layout_holds_each_pin_once_and_pads_with_the_first(degrees):
    rng = np.random.default_rng(sum(degrees))
    n = 9
    nets = [[(int(c), float(dx), float(dy)) for c, dx, dy in zip(rng.integers(0, n, k), rng.normal(size=k), rng.normal(size=k))]
            for k in degrees]
    design = make_design(n, nets, Region(-60.0, -60.0, 60.0, 60.0))
    layout = design.pin_layout
    first, degree = design.net_start[:-1], np.diff(design.net_start)
    pins = np.column_stack([design.pin_cell, design.pin_dx, design.pin_dy])
    slots = np.column_stack([layout.cell, *layout.offset])
    widths = [w for w, _, _ in layout.blocks]
    assert widths == sorted(set(widths))
    start, placed = 0, []
    for w, m, mask in layout.blocks:
        # a block holds, in net order, the nets whose degree rounds up to its width
        block = [j for j, k in enumerate(degree.tolist()) if k >= 2 and w // 2 < k <= w]
        assert len(block) == m
        slab = slots[start:start + w * m].reshape(w, m, 3)
        real = np.arange(w)[:, None] < degree[block]
        assert (mask is None) == bool(real.all())
        np.testing.assert_array_equal(real if mask is None else mask, real)
        for col, j in enumerate(block):
            k = degree[j]
            np.testing.assert_array_equal(slab[:k, col], pins[first[j]:first[j] + k])
            np.testing.assert_array_equal(slab[k:, col], np.tile(pins[first[j]], (w - k, 1)))
        placed += block
        start += w * m
    assert start == layout.cell.size == layout.offset.shape[1]
    # every net of 2 or more pins gets its slots once; 0- and 1-pin nets get none
    assert sorted(placed) == np.flatnonzero(degree >= 2).tolist()


@settings(max_examples=200, deadline=None)
@given(wirelength_cases())
def test_wirelength_and_hpwl_match_the_per_net_reference(case):
    design, g, gamma = case
    value, grad = smooth_wirelength_grad(design, g, gamma)
    ref_value, ref_grad, ref_hpwl = reference_wirelength(design, g, gamma)
    assert value == pytest.approx(ref_value, rel=1e-12, abs=1e-12)
    np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-12)
    assert hpwl(design, g) == pytest.approx(ref_hpwl, rel=1e-12, abs=1e-12)


@np.errstate(all="ignore")
def per_axis_kernels(design, g, gamma):
    """(LSE value, its gradient, HPWL) over the pin layout's degree blocks, one axis at a time: the x pass over every
    block, then the y pass, each numpy call on one axis."""
    layout = design.pin_layout
    value, total, grad = 0.0, 0.0, []
    for axis in (0, 1):
        p = np.take(np.asarray(g, dtype=float)[:, axis], layout.cell) + layout.offset[axis]
        start = 0
        for width, nets, mask in layout.blocks:
            blk = p[start:start + width * nets].reshape(width, nets)
            start += width * nets
            total += float((np.abs(blk[0] - blk[1]) if width == 2 else blk.max(0) - blk.min(0)).sum())
            if width == 2:
                d = blk[0] - blk[1]
                span = np.abs(d)
                value += float(span.sum() + 2.0 * gamma * np.log1p(np.exp(-span / gamma)).sum())
                np.tanh(d / (2.0 * gamma), out=blk[0])
                np.negative(blk[0], out=blk[1])
                continue
            hi, lo = blk.max(0), blk.min(0)
            ea, eb = np.exp((blk - hi) / gamma), np.exp((lo - blk) / gamma)
            if mask is not None:
                ea *= mask
                eb *= mask
            sa, sb = ea.sum(0), eb.sum(0)
            value += float(np.sum(hi - lo + gamma * (np.log(sa) + np.log(sb))))
            np.subtract(ea / sa, eb / sb, out=blk)
        grad.append(np.bincount(layout.cell, p, minlength=design.num_cells))
    grad = np.column_stack(grad)
    grad[design.fixed] = 0.0
    return value, grad, total


def assert_matches_per_axis_kernels(design, g, gamma):
    value, grad = smooth_wirelength_grad(design, g, gamma)
    want_value, want_grad, want_hpwl = per_axis_kernels(design, g, gamma)
    assert value == want_value
    assert grad.dtype == want_grad.dtype and grad.shape == want_grad.shape and grad.tobytes() == want_grad.tobytes()
    assert hpwl(design, g) == want_hpwl


@st.composite
def offset_pin_cases(draw):
    """A design with random pin offsets whose nets have 0-40 pins (or only 2, or never 2), a placement and a gamma."""
    n = draw(st.integers(1, 12))
    degree = draw(st.sampled_from([st.integers(0, 40), st.just(2), st.integers(0, 40).filter(lambda k: k != 2)]))
    offset = st.floats(-3.0, 3.0)
    pin = st.tuples(st.integers(0, n - 1), offset, offset)
    nets = draw(st.lists(degree.flatmap(lambda k: st.lists(pin, min_size=k, max_size=k)), max_size=16))
    coord = st.floats(-50.0, 50.0)
    g = np.array(draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)))
    fixed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    design = make_design(n, nets, Region(-60.0, -60.0, 60.0, 60.0), pads={i: tuple(g[i]) for i in range(n) if fixed[i]})
    return design, g, 10.0 ** draw(st.floats(-3.0, 3.0))


@settings(max_examples=300, deadline=None)
@given(offset_pin_cases())
def test_both_axes_kernels_match_the_per_axis_kernels_bit_for_bit(case):
    assert_matches_per_axis_kernels(*case)


@pytest.mark.parametrize("gamma", [1e-3, 0.3, 5.0, 1e3])
def test_both_axes_kernels_match_the_per_axis_kernels_on_long_blocks(gamma):
    # more than 8192 nets in the 2-pin block and in the padded 4-pin one: numpy's reductions run in buffer-sized pieces
    rng = np.random.default_rng(3)
    n, degrees = 3000, [2] * 9000 + [3, 4] * 4600 + [7] * 50
    nets = [[(int(c), float(dx), float(dy)) for c, dx, dy in zip(rng.integers(0, n, k), *rng.uniform(-0.5, 0.5, (2, k)))]
            for k in degrees]
    design = make_design(n, nets, Region(-60.0, -60.0, 60.0, 60.0), pads={0: (3.0, -4.0)})
    assert [(w, m) for w, m, _ in design.pin_layout.blocks] == [(2, 9000), (4, 9200), (8, 50)]
    assert_matches_per_axis_kernels(design, random_positions(design, rng), gamma)


class TestElectrostaticGradient:
    def test_uniform_occupancy_feels_no_force(self):
        # one 2x2 cell centered in each 4x4 bin: zero charge everywhere
        design = make_design(4, [[0, 1, 2, 3]], Region(0.0, 0.0, 8.0, 8.0), sizes=(2.0, 2.0))
        g = np.array([[2.0, 2.0], [6.0, 2.0], [2.0, 6.0], [6.0, 6.0]])
        value, grad, _ = electrostatic_grad(design, g, GridConfig(nx=2, ny=2))
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_energy_nonnegative_and_positive_when_clumped(self):
        design = generate(cells=30, seed=6)
        grid = GridConfig(nx=6, ny=6)
        g = random_positions(design, np.random.default_rng(6))
        value, _, _ = electrostatic_grad(design, g, grid)
        assert value >= 0.0
        stacked = np.array(design.fixed_xy)
        movable = ~design.fixed
        stacked[movable] = [design.region.center[0], design.region.center[1]]
        value_stacked, _, _ = electrostatic_grad(design, stacked, grid)
        assert value_stacked > value

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_finite_differences(self, seed):
        design = generate(cells=20, seed=seed)
        rng = np.random.default_rng(300 + seed)
        g = random_positions(design, rng)
        grid = GridConfig(nx=5, ny=5)
        movable = ~design.fixed
        _, grad, _ = electrostatic_grad(design, g, grid)
        fd = fd_gradient(
            lambda gg: electrostatic_grad(design, gg, grid)[0], g, movable, 1e-6
        )
        assert np.max(np.abs(grad[movable] - fd[movable])) <= 1e-4

    def test_full_row_pulled_toward_empty_half(self):
        # cells tile the left half of the region at exactly the target
        # density, so no bin overflows; the potential field still pulls
        # every cell -- interior ones included -- toward the empty right half
        design = make_design(6, [[0, 5]], Region(0.0, 0.0, 24.0, 4.0), sizes=(2.0, 4.0))
        g = np.column_stack([0.2 + 1.0 + 2.0 * np.arange(6), np.full(6, 2.0)])
        grid = GridConfig(nx=12, ny=1)
        es_value, es_grad, dens = electrostatic_grad(design, g, grid)
        assert overflow(dens) == 0.0
        assert es_value > 0.0
        assert np.all(es_grad[:, 0] < 0.0)  # descent moves every cell rightward

    def test_fixed_cells_contribute_charge_but_not_gradient(self):
        design = make_design(
            ["blockage", "m"], [[0, 1]], Region(0.0, 0.0, 8.0, 8.0), sizes=[(4.0, 4.0), (2.0, 2.0)], pads={0: (4.0, 4.0)}
        )
        g = np.array([[4.0, 4.0], [4.3, 3.8]])
        value, grad, _ = electrostatic_grad(design, g, GridConfig(nx=4, ny=4))
        assert value > 0.0
        np.testing.assert_array_equal(grad[0], 0.0)
        assert np.any(grad[1] != 0.0)


POISSON_GRIDS = [(1, 1), (1, 6), (6, 1), (2, 3), (5, 7), (64, 90), (171, 170)]


def scipy_poisson(q, bin_w, bin_h):
    """The cosine-transform solve as scipy computes it: dctn, a division by the Neumann eigenvalues, idctn."""
    from scipy.fft import dctn, idctn

    lx, ly = ((2.0 - 2.0 * np.cos(np.pi * np.arange(n) / n)) / w**2 for n, w in zip(q.shape, (bin_w, bin_h)))
    lam = lx[:, None] + ly
    q_hat = dctn(q, type=2, norm="ortho")
    return idctn(np.divide(q_hat, lam, out=np.zeros_like(q_hat), where=lam > 0), type=2, norm="ortho")


def neumann_laplacian(phi, bin_w, bin_h):
    """The 5-point Laplacian with mirror boundaries: an edge bin's neighbour outside the grid is the bin itself."""
    p = np.pad(phi, 1, mode="edge")
    return (p[2:, 1:-1] - 2.0 * phi + p[:-2, 1:-1]) / bin_w**2 + (p[1:-1, 2:] - 2.0 * phi + p[1:-1, :-2]) / bin_h**2


class TestPoissonSolve:
    """The FFT solve against scipy's cosine transforms, and against the Laplacian it inverts."""

    @pytest.mark.parametrize("shape", POISSON_GRIDS)
    def test_matches_scipys_cosine_transforms(self, shape):
        q = np.random.default_rng(sum(shape)).standard_normal(shape)  # not mean-free: both drop the zero mode
        ref = scipy_poisson(q, 0.75, 1.9)
        assert np.abs(placer._poisson_potential(q, 0.75, 1.9) - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("shape", POISSON_GRIDS)
    def test_inverts_the_neumann_laplacian(self, shape):
        q = np.random.default_rng(sum(shape)).standard_normal(shape)
        q -= q.mean()
        phi = placer._poisson_potential(q, 0.75, 1.9)
        rounding = np.abs(phi).max() * (4.0 / 0.75**2 + 4.0 / 1.9**2)  # what an ulp of phi moves the stencil by
        assert np.abs(neumann_laplacian(phi, 0.75, 1.9) + q).max() <= 1e-13 * rounding
        assert abs(phi.sum()) <= 1e-12 * np.abs(phi).sum()  # mean-free, like q

    @pytest.mark.parametrize("shape", [(12, 12), (170, 170), (7, 12), (171, 90), (1, 6)])
    @pytest.mark.parametrize("axes", [(0,), (1,), (0, 1)])
    def test_a_mirror_symmetric_charge_gets_an_exactly_symmetric_potential(self, shape, axes):
        # a pile at the center has no force on it only if phi keeps q's symmetry to the last bit
        q = np.random.default_rng(len(axes)).standard_normal(shape)
        for axis in axes:
            q = q + np.flip(q, axis)
        phi = placer._poisson_potential(q - q.mean(), 1.0, 1.3)
        for axis in axes:
            np.testing.assert_array_equal(phi, np.flip(phi, axis))

    def test_balanced_lambda0_and_the_loop_share_one_plan(self):
        design = generate(cells=60, seed=3)
        placer._poisson_plan.cache_clear()
        _, trace = run_placer(design, random_positions(design, np.random.default_rng(3)), PlacerConfig(max_iters=3))
        info = placer._poisson_plan.cache_info()
        assert (info.misses, info.hits) == (1, trace.iterations + 1)


class TestPlacerConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            PlacerConfig(gamma=0.0)
        with pytest.raises(ValueError):
            PlacerConfig(lambda_growth=0.99)
        with pytest.raises(ValueError):
            PlacerConfig(stop_overflow=0.0)
        with pytest.raises(ValueError):
            PlacerConfig(stop_overflow=1.5)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("gamma", np.nan), ("gamma", np.inf), ("lambda0", np.nan), ("lambda0", -np.inf),
            ("lambda0", -1.0), ("lambda_growth", np.nan), ("lambda_growth", np.inf), ("max_iters", -1),
        ],
    )
    def test_rejects_unusable_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            PlacerConfig(**{field: value})

    def test_accepts_boundary_values(self):
        PlacerConfig(lambda0=0.0, max_iters=0, lambda_growth=1.0)

    @pytest.mark.parametrize(
        "grid,nx",
        [(None, None), (GridConfig(rho_t=0.999), None), (GridConfig(nx=7, rho_t=0.5), 7)],
        ids=["unset", "rho_t-only", "nx-only"],
    )
    def test_unset_bins_come_from_default_bins(self, monkeypatch, grid, nx):
        # the placer and the lambda calibration must both see default_bins'
        # counts for whatever the grid leaves unset, and the rest of the grid
        design = generate(cells=200, seed=1)
        default_nx, default_ny = default_bins(design)
        seen = []
        real = placer.electrostatic_grad

        def spy(design, g, grid=None):
            value, grad, dens = real(design, g, grid)
            seen.append((dens.nx, dens.ny, dens.rho_t))
            return value, grad, dens

        monkeypatch.setattr(placer, "electrostatic_grad", spy)
        g0 = random_positions(design, np.random.default_rng(1))
        run_placer(design, g0, PlacerConfig(max_iters=0, grid=grid))
        rho_t = grid.rho_t if grid else 1.0
        assert len(seen) == 2  # balanced_lambda0, then iteration 0
        assert set(seen) == {(nx or default_nx, default_ny, rho_t)}

    def test_default_bins_no_coarser_than_cells(self):
        design = generate(cells=200, seed=1)
        nx, ny = default_bins(design)
        w, h = design.widths, design.heights
        movable = ~design.fixed
        assert design.region.width / nx <= float(w[movable].mean()) + 1e-9
        assert design.region.height / ny <= float(h[movable].mean()) + 1e-9


class TestBalancedLambda:
    def test_equalizes_force_norms_at_the_seeded_cloud(self):
        from giftplace import GiftConfig, balanced_lambda0, initial_signal

        design = generate(cells=80, seed=11)
        config = PlacerConfig(seed=11)
        lam0 = balanced_lambda0(design, config)
        assert np.isfinite(lam0) and lam0 > 0.0
        cloud = initial_signal(design, GiftConfig(seed=11))
        grid = GridConfig(*default_bins(design))
        gamma = 0.01 * design.region.width
        _, wl_grad = smooth_wirelength_grad(design, cloud, gamma)
        _, d_grad, _ = electrostatic_grad(design, cloud, grid)
        assert lam0 * np.abs(d_grad).sum() == pytest.approx(np.abs(wl_grad).sum(), rel=1e-9)

    def test_depends_on_seed_not_on_start_placement(self):
        from giftplace import balanced_lambda0

        design = generate(cells=80, seed=12)
        a = balanced_lambda0(design, PlacerConfig(seed=12))
        b = balanced_lambda0(design, PlacerConfig(seed=12, max_iters=7))
        c = balanced_lambda0(design, PlacerConfig(seed=13))
        assert a == b
        assert a != c


class TestRunPlacer:
    def spread_start(self, design, seed=0):
        return random_positions(design, np.random.default_rng(seed))

    def test_immediate_convergence_when_already_legal(self):
        design = generate(cells=16, seed=2)
        g0 = self.spread_start(design)
        config = PlacerConfig(stop_overflow=0.999, max_iters=10)
        g, trace = run_placer(design, g0, config)
        assert trace.converged
        assert trace.iterations == 0
        np.testing.assert_allclose(g, np.clip(g0, None, None))

    def test_deterministic_trace(self):
        design = generate(cells=60, seed=3)
        g0 = self.spread_start(design, seed=3)
        config = PlacerConfig(max_iters=40)
        g_a, trace_a = run_placer(design, g0, config)
        g_b, trace_b = run_placer(design, g0, config)
        np.testing.assert_array_equal(g_a, g_b)
        rows_a = [(r.iteration, r.wl, r.hpwl, r.overflow, r.lam) for r in trace_a.records]
        rows_b = [(r.iteration, r.wl, r.hpwl, r.overflow, r.lam) for r in trace_b.records]
        assert rows_a == rows_b

    def test_fixed_cells_never_move(self):
        design = generate(cells=60, seed=4)
        g0 = self.spread_start(design, seed=4)
        fixed = design.fixed
        g, _ = run_placer(design, g0, PlacerConfig(max_iters=30))
        np.testing.assert_array_equal(g[fixed], design.fixed_xy[fixed])

    def test_pure_wirelength_descent_is_monotone(self, monkeypatch):
        # with the density weight pinned at zero and each move capped at a
        # twentieth of a bin, the loop is plain projected descent on the smooth
        # wirelength
        monkeypatch.setattr(placer, "MAX_MOVE_BINS", 0.05)
        design = generate(cells=40, seed=5)
        g0 = self.spread_start(design, seed=5)
        config = PlacerConfig(lambda0=0.0, max_iters=60, stop_overflow=1e-9)
        _, trace = run_placer(design, g0, config)
        wl = [r.wl for r in trace.records]
        assert len(wl) == 61
        assert all(b <= a + 1e-9 for a, b in zip(wl, wl[1:]))

    def test_converged_trace_meets_target(self):
        design = generate(cells=60, seed=6)
        g0 = self.spread_start(design, seed=6)
        config = PlacerConfig(max_iters=800)
        _, trace = run_placer(design, g0, config)
        assert trace.converged
        assert trace.records[-1].overflow <= config.stop_overflow

    def test_budget_exhaustion_flagged(self):
        design = generate(cells=100, seed=7)
        g0 = np.array(design.fixed_xy)
        movable = ~design.fixed
        g0[movable] = [
            0.5 * (design.region.xmin + design.region.xmax),
            0.5 * (design.region.ymin + design.region.ymax),
        ]
        config = PlacerConfig(max_iters=3)
        _, trace = run_placer(design, g0, config)
        assert not trace.converged
        assert trace.iterations == 3

    @pytest.mark.parametrize(
        "grid,coarse",
        [(None, False), (GridConfig(nx=20, ny=20), False), (GridConfig(nx=5, ny=20), True), (GridConfig(nx=20, ny=9), True)],
        ids=["default", "finer", "coarse-x", "coarse-y"],
    )
    def test_unconverged_warning_names_bins_larger_than_the_cells(self, caplog, grid, coarse):
        # the movable unit cells of this design lie on a 10 x 10 region, whose default bins are 1 x 1
        design = generate(cells=60, seed=6)
        with caplog.at_level(logging.WARNING, logger="giftplace.placer"):
            _, trace = run_placer(design, np.tile(design.region.center, (design.num_cells, 1)), PlacerConfig(max_iters=2, grid=grid))
        assert not trace.converged
        [record] = caplog.records
        assert record.getMessage().startswith("placer stopped after 2 iterations at overflow ")
        assert ("bins of" in record.getMessage()) == coarse
        if coarse:
            nx, ny = grid.nx, grid.ny
            assert record.getMessage().endswith(f"; the {nx}x{ny} bins of {10 / nx:.4g} x {10 / ny:.4g} are larger than the "
                                                "average movable cell of 1 x 1, so cells inside one bin feel no density force")

    def test_refuses_a_pile_no_force_can_move(self):
        # without IO pads nothing pulls the pile at the center apart: the first gradient is zero
        design = generate(cells=100, io_count=0, seed=1)
        with pytest.raises(GiftPlaceError, match=r"^zero gradient at iteration 1: .* such as --init gift$"):
            run_placer(design, np.tile(design.region.center, (design.num_cells, 1)), PlacerConfig(seed=1))

    def test_unconverged_warning_names_a_vanished_gradient_without_movable_cells(self, caplog):
        # four fixed cells stacked in one bin: no cell can move, so the run stops with a warning
        design = make_design(4, [[0, 1], [2, 3, 0]], Region(0.0, 0.0, 10.0, 10.0), pads={i: (5.5, 5.5) for i in range(4)})
        with caplog.at_level(logging.INFO, logger="giftplace.placer"):
            g, trace = run_placer(design, np.zeros((4, 2)), PlacerConfig(seed=1))
        assert not trace.converged and trace.iterations == 0
        np.testing.assert_array_equal(g, np.full((4, 2), 5.5))
        [record] = caplog.records
        assert record.levelno == logging.WARNING
        assert record.getMessage() == ("placer stopped after 0 iterations at overflow 0.75, above the target 0.15; "
                                       "zero gradient at iteration 1, so no cell could move")

    def test_converges_on_a_default_grid_over_512_bins_wide(self):
        # a 520 x 20 region of unit cells: with at most 512 bins an axis, bins wider than the cells
        # stall this chain from a jittered center at overflow 0.47 after 1000 iterations
        n = 5200
        design = make_design(n, [[i, i + 1] for i in range(n - 1)], Region(0.0, 0.0, 520.0, 20.0))
        g0 = np.tile(design.region.center, (n, 1)) + np.random.default_rng(1).normal(0.0, 1e-3, (n, 2))
        assert default_bins(design) == (520, 20)
        _, trace = run_placer(design, g0, PlacerConfig(seed=1))
        assert trace.converged

    def test_leaves_g0_unchanged(self):
        # the loop steps its own copy in place; start outside the region so the first clamp moves cells too
        design = generate(cells=60, seed=3)
        g0 = self.spread_start(design, seed=3)
        g0[~design.fixed] += design.region.width / 2
        before = g0.copy()
        g, trace = run_placer(design, g0, PlacerConfig(max_iters=10, stop_overflow=1e-9))
        np.testing.assert_array_equal(g0, before)
        assert trace.iterations == 10
        assert not np.array_equal(g, g0)

    def test_places_fixed_rows_of_g0_at_their_fixed_positions(self):
        design = generate(cells=60, seed=4)
        fixed = design.fixed
        g0 = self.spread_start(design, seed=4)
        g0[fixed] += (3.0, -2.0)
        for max_iters in (0, 5):
            g, _ = run_placer(design, g0, PlacerConfig(max_iters=max_iters, stop_overflow=1e-9))
            np.testing.assert_array_equal(g[fixed], design.fixed_xy[fixed])

    def test_pad_outside_the_region_stays_at_its_fixed_position(self):
        design = make_design(
            5, [[0, 1, 2], [2, 3, 4], [0, 4]], Region(0.0, 0.0, 10.0, 10.0), sizes=(2.0, 2.0), pads={4: (-4.0, 13.5)}
        )
        g0 = np.tile(design.region.center, (5, 1))
        g, trace = run_placer(design, g0, PlacerConfig(max_iters=10, stop_overflow=1e-9))
        assert trace.iterations == 10
        assert g[4].tolist() == [-4.0, 13.5]
        assert np.all((g[:4] >= 0.0) & (g[:4] <= 10.0))

    def test_matches_the_masked_step_bit_for_bit(self):
        design = generate(cells=60, seed=3)
        g0 = self.spread_start(design, seed=3)
        g0[~design.fixed] += design.region.width / 3
        config = PlacerConfig(max_iters=10, stop_overflow=1e-9)
        g, trace = run_placer(design, g0, config)
        ref_g, ref_records = masked_step_reference(design, g0, config)
        assert g.tobytes() == ref_g.tobytes()
        assert [(r.iteration, r.wl, r.hpwl, r.overflow, r.lam) for r in trace.records] == ref_records

    def test_matches_the_masked_step_bit_for_bit_under_frequent_thread_switches(self):
        # the step writes a fresh array while the worker reads the last one for the queued hpwl; a switch interval of a
        # microsecond interleaves the two threads' Python code as often as the interpreter allows
        design = generate(cells=120, fanout={2: 0.4, 3: 0.2, 5: 0.2, 9: 0.1, 17: 0.1}, seed=5)
        g0 = self.spread_start(design, seed=5)
        config = PlacerConfig(max_iters=25, stop_overflow=1e-9)
        ref_g, ref_records = masked_step_reference(design, g0, config)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            g, trace = run_placer(design, g0, config)
        finally:
            sys.setswitchinterval(previous)
        assert g.tobytes() == ref_g.tobytes()
        assert [(r.iteration, r.wl, r.hpwl, r.overflow, r.lam) for r in trace.records] == ref_records

    def test_rejects_wrong_shape(self, tri_design):
        with pytest.raises(ValueError):
            run_placer(tri_design, np.zeros((5, 2)), PlacerConfig())

    def test_non_finite_objective_raises(self):
        design = generate(cells=16, seed=8)
        g0 = self.spread_start(design, seed=8)
        g0[0] = np.nan  # cell 0 is movable in this corpus
        with pytest.raises(DivergenceError):
            run_placer(design, g0, PlacerConfig(max_iters=5))

    @pytest.mark.parametrize(
        "stop_overflow,max_iters,bad_call",
        [(0.999, 5, 1), (1e-9, 2, 3)],
        ids=["satisfied-target", "last-iteration"],
    )
    def test_non_finite_evaluation_raises(self, monkeypatch, stop_overflow, max_iters, bad_call):
        # neither a satisfied stopping target nor the end of the budget may
        # hand back a non-finite objective as a result
        design = generate(cells=16, seed=8)
        g0 = self.spread_start(design, seed=8)
        calls = []
        real = placer.smooth_wirelength_grad

        def poisoned(design, g, gamma):
            calls.append(gamma)
            value, grad = real(design, g, gamma)
            return (np.nan if len(calls) == bad_call else value), grad

        monkeypatch.setattr(placer, "smooth_wirelength_grad", poisoned)
        config = PlacerConfig(lambda0=1.0, stop_overflow=stop_overflow, max_iters=max_iters)
        before = threading.active_count()
        with pytest.raises(DivergenceError, match=f"iteration {bad_call - 1}"):
            run_placer(design, g0, config)
        assert threading.active_count() == before  # the wirelength worker is joined on the way out

    def test_leaves_no_thread_running(self):
        design = generate(cells=60, seed=6)
        before = threading.active_count()
        _, trace = run_placer(design, self.spread_start(design, seed=6), PlacerConfig(max_iters=800))
        assert trace.converged
        assert threading.active_count() == before

    def test_runs_the_two_kernels_at_once(self, monkeypatch):
        # the wirelength kernel returns only once the density kernel has started on the same g
        design = generate(cells=16, seed=8)
        started, seen = threading.Event(), []
        wirelength, density = placer.smooth_wirelength_grad, placer.electrostatic_grad

        def waiting(design, g, gamma):
            seen.append(started.wait(timeout=10))
            started.clear()
            return wirelength(design, g, gamma)

        def starting(design, g, grid):
            started.set()
            return density(design, g, grid)

        monkeypatch.setattr(placer, "smooth_wirelength_grad", waiting)
        monkeypatch.setattr(placer, "electrostatic_grad", starting)
        _, trace = run_placer(design, self.spread_start(design, seed=8), PlacerConfig(lambda0=1.0, max_iters=2))
        assert seen == [True] * len(trace.records)

    @pytest.mark.parametrize("both", [True, False], ids=["both-raise", "density-raises"])
    def test_error_surfaces_as_in_sequence(self, monkeypatch, both):
        # with both kernels raising, the wirelength kernel's error surfaces, as when it ran first
        def fails(error):
            def kernel(*args):
                raise error

            return kernel

        monkeypatch.setattr(placer, "electrostatic_grad", fails(ArithmeticError))
        if both:
            monkeypatch.setattr(placer, "smooth_wirelength_grad", fails(LookupError))
        design = generate(cells=16, seed=8)
        before = threading.active_count()
        with pytest.raises(LookupError if both else ArithmeticError):
            run_placer(design, self.spread_start(design, seed=8), PlacerConfig(lambda0=1.0))
        assert threading.active_count() == before

    def test_one_hpwl_call_per_trace_record(self, monkeypatch):
        # the benchmark counts these calls and reads the last record as the result's HPWL
        design = generate(cells=60, seed=6)
        calls = []
        real = placer.hpwl

        def counted(design, g):
            calls.append(1)
            return real(design, g)

        monkeypatch.setattr(placer, "hpwl", counted)
        g, trace = run_placer(design, self.spread_start(design, seed=6), PlacerConfig(max_iters=800))
        assert trace.converged
        assert len(calls) == len(trace.records) == trace.iterations + 1
        assert trace.records[-1].hpwl == metrics.hpwl(design, g)

    def test_matches_the_sequential_loop_bit_for_bit_with_hpwl_beside_the_step(self, monkeypatch):
        # nets of 5, 9 and 17 pins fill padded degree blocks, and the IO pads are fixed cells
        design = generate(cells=120, fanout={2: 0.4, 3: 0.2, 5: 0.2, 9: 0.1, 17: 0.1}, seed=4)
        assert design.num_movable < design.num_cells
        assert any(mask is not None for _, _, mask in design.pin_layout.blocks)
        g0 = self.spread_start(design, seed=4)
        config = PlacerConfig(lambda0=0.5, max_iters=12, stop_overflow=1e-9)
        ref_g, ref_records = masked_step_reference(design, g0, config)

        # each record's hpwl is queued before the next step, and queueing it returns only once the worker has started
        # it: the step runs while the worker reads the last placement. A wait that times out fails the test
        exact, started, on_main = placer.hpwl, threading.Semaphore(0), []

        def counted(design, g):
            on_main.append(threading.current_thread() is threading.main_thread())
            started.release()
            return exact(design, g)

        class Steered(ThreadPoolExecutor):
            def submit(self, fn, *args):
                task = super().submit(fn, *args)
                if fn is counted:
                    assert started.acquire(timeout=10)
                return task

        monkeypatch.setattr(placer, "hpwl", counted)
        monkeypatch.setattr(placer, "ThreadPoolExecutor", Steered)
        g, trace = run_placer(design, g0, config)
        assert g.tobytes() == ref_g.tobytes()
        assert [(r.iteration, r.wl, r.hpwl, r.overflow, r.lam) for r in trace.records] == ref_records
        assert on_main == [False] * 13

    def test_at_most_one_hpwl_and_one_wirelength_kernel_are_queued(self, monkeypatch):
        # the worker runs its queue in order and each wirelength kernel is joined, so the hpwl queued before it is done
        # by then: at any submit, at most the last hpwl and the new task are not done
        tasks, outstanding = [], []

        class Counted(ThreadPoolExecutor):
            def submit(self, fn, *args):
                tasks.append(super().submit(fn, *args))
                outstanding.append(sum(not task.done() for task in tasks))
                return tasks[-1]

        monkeypatch.setattr(placer, "ThreadPoolExecutor", Counted)
        design = generate(cells=60, seed=6)
        _, trace = run_placer(design, self.spread_start(design, seed=6), PlacerConfig(max_iters=45, stop_overflow=1e-9))
        assert trace.iterations == 45 and len(outstanding) == 2 * 46
        assert max(outstanding) <= 2

    @pytest.mark.parametrize("error", [DivergenceError, GiftPlaceError], ids=["divergence", "zero-gradient"])
    def test_an_error_at_the_next_iteration_joins_the_pending_hpwl(self, monkeypatch, error):
        # iteration 1 fails after iteration 0's hpwl is queued. The error is the sequential loop's, the worker is joined
        # on the way out, and that hpwl has completed
        raised, waits, completed = threading.Event(), [], []
        exact = placer.hpwl

        class Signalled(error):
            def __init__(self, *args):
                raised.set()
                super().__init__(*args)

        def held(design, g):
            if error is GiftPlaceError:  # found before iteration 1 queues anything: this hpwl waits for the error
                waits.append(raised.wait(timeout=10))
            else:  # iteration 1's wirelength kernel is queued behind this hpwl: it runs before the error is made
                waits.append(not raised.is_set())
            completed.append(exact(design, g))
            return completed[-1]

        monkeypatch.setattr(placer, error.__name__, Signalled)
        monkeypatch.setattr(placer, "hpwl", held)
        if error is DivergenceError:
            design = generate(cells=16, seed=8)
            g0, config = self.spread_start(design, seed=8), PlacerConfig(lambda0=1.0, max_iters=5)
            real, calls = placer.smooth_wirelength_grad, []

            def poisoned(design, g, gamma):
                calls.append(gamma)
                value, grad = real(design, g, gamma)
                return (np.nan if len(calls) == 2 else value), grad

            monkeypatch.setattr(placer, "smooth_wirelength_grad", poisoned)
            match = "objective not finite at iteration 1"
        else:
            # without IO pads nothing pulls the pile at the center apart: the first gradient is zero
            design = generate(cells=100, io_count=0, seed=1)
            g0, config = np.tile(design.region.center, (design.num_cells, 1)), PlacerConfig(seed=1)
            match = "zero gradient at iteration 1"
        before = threading.active_count()
        with pytest.raises(error, match=match):
            run_placer(design, g0, config)
        assert threading.active_count() == before
        assert waits == [True]
        assert completed == [exact(design, np.clip(g0, *design.bounds))]

    def test_trace_csv_reproducible_without_seconds(self, tmp_path, monkeypatch):
        # place writes the trace it gets from run_placer; the file must hold the bytes of the per-row form below
        design = generate(cells=30, seed=9)
        aux = write_design(design, str(tmp_path), "d")
        start = tmp_path / "start.pl"
        write_placement(design, self.spread_start(design, seed=9), str(start))
        traces = []

        def kept(*args):
            result = run_placer(*args)
            traces.append(result[1])
            return result

        monkeypatch.setattr(cli, "run_placer", kept)
        for name in ("a", "b"):
            assert cli.main(["place", aux, "--init", f"file:{start}", "--max-iters", "15", "--out", str(tmp_path / name)]) == 0
        assert traces[0].records == traces[1].records and len(traces[0].records) > 10
        expected = "iter,wl,hpwl,overflow,lambda\n" + "".join(
            f"{r.iteration},{r.wl:.10g},{r.hpwl:.10g},{r.overflow:.10g},{r.lam:.10g}\n" for r in traces[0].records)
        assert (tmp_path / "a.trace.csv").read_bytes() == expected.encode()
        assert (tmp_path / "b.trace.csv").read_bytes() == expected.encode()


def masked_step_reference(design, g0, config):
    """run_placer's loop as written with movable-row masks and a region clamp; fixed rows of g0 are kept."""
    gamma = placer._gamma(design, config)
    grid = config.grid or GridConfig()
    nx, ny = default_bins(design)
    r = design.region
    movable = ~design.fixed
    box = (r.xmin, r.ymin), (r.xmax, r.ymax)
    g = np.array(g0, dtype=float)
    g[movable] = np.clip(g[movable], *box)
    lam = config.lambda0 if config.lambda0 is not None else placer.balanced_lambda0(design, config)
    max_move = placer.MAX_MOVE_BINS * min(r.width / (grid.nx or nx), r.height / (grid.ny or ny))
    records = []
    for it in range(config.max_iters + 1):
        if it > 0:
            mag = np.hypot(grad[movable, 0], grad[movable, 1])
            ref = float(np.sqrt(np.mean(mag**2)))
            step = np.minimum(max_move / ref, max_move / np.maximum(mag, 1e-300))[:, None]
            g[movable] -= step * grad[movable]
            g[movable] = np.clip(g[movable], *box)
            lam *= config.lambda_growth
        wl_val, wl_grad = smooth_wirelength_grad(design, g, gamma)
        _, d_grad, dens = electrostatic_grad(design, g, config.grid)
        grad = wl_grad + lam * d_grad
        records.append((it, wl_val, hpwl(design, g), overflow(dens), lam))
    return g, records


def with_macro(design, width, height):
    """``design`` plus one movable cell of the given size, last."""
    return Design(
        names=list(design.names) + ["macro"],
        widths=np.append(design.widths, width),
        heights=np.append(design.heights, height),
        fixed_xy=np.vstack([design.fixed_xy, (np.nan, np.nan)]),
        net_names=design.net_names,
        net_start=design.net_start,
        pin_cell=design.pin_cell,
        pin_dx=design.pin_dx,
        pin_dy=design.pin_dy,
        region=design.region,
    )


def design_bin(design, grid):
    """Bin width and height of ``grid`` on ``design``'s region."""
    return design.region.width / grid.nx, design.region.height / grid.ny


def overlap_oracle(design, g, nx, ny, bin_field):
    """Occupancy and field gradient from every (cell, bin) pair, one cell at a time.

    Per axis, the overlap with bin [s, e] is min(hi, e) - max(lo, s) of the
    region-clipped interval [lo, hi]; its derivative is +1 for a right edge
    strictly inside the bin and -1 for a left edge strictly inside it, unless
    the raw edge lies on or beyond the region boundary (the clip holds it).
    """
    region = design.region
    rho = np.zeros((nx, ny))
    grad = np.zeros((design.num_cells, 2))
    axes = (
        (region.xmin, region.xmax, region.width / nx, nx, design.widths),
        (region.ymin, region.ymax, region.height / ny, ny, design.heights),
    )
    for i in range(design.num_cells):
        lengths = []
        for axis, (start, end, width, count, size) in enumerate(axes):
            raw_lo, raw_hi = g[i, axis] - size[i] / 2.0, g[i, axis] + size[i] / 2.0
            lo, hi = min(max(raw_lo, start), end), min(max(raw_hi, start), end)
            s = start + np.arange(count) * width
            e = start + np.arange(1, count + 1) * width
            ell = np.maximum(np.minimum(hi, e) - np.maximum(lo, s), 0.0)
            d_ell = ((s < hi) & (hi < e) & (raw_hi < end)).astype(float)
            d_ell -= ((s < lo) & (lo < e) & (raw_lo > start)).astype(float)
            lengths.append((ell, np.where(ell > 0.0, d_ell, 0.0)))
        (lx, dlx), (ly, dly) = lengths
        rho += np.outer(lx, ly)
        if not design.fixed[i]:
            grad[i] = (dlx @ bin_field @ ly, lx @ bin_field @ dly)
    return rho, grad


def overlap_reference(axes, off, cells=slice(None), keep=True):
    """Bin, overlap length and its derivative at bin offset ``off`` from each cell's first bin, per axis.

    Each bin's edges are ``start + b * width`` and ``start + (b + 1) * width``.
    Offsets past a cell's span give zero length and derivative: the bin beyond
    the last one can still clip a floating-point sliver. So do the cells that
    ``keep`` leaves out.
    """
    lo, hi, span = axes.lo[:, cells], axes.hi[:, cells], axes.span[:, cells]
    b = axes.first[:, cells] + np.minimum(off, span)
    bs = axes.start + b * axes.width
    be = axes.start + (b + 1) * axes.width
    ell = np.where((off <= span) & keep, np.maximum(np.minimum(hi, be) - np.maximum(lo, bs), 0.0), 0.0)
    d_ell = ((hi < be) & (hi < axes.end)).astype(float) - ((lo > bs) & (lo > axes.start)).astype(float)
    return b, ell, np.where(ell > 0.0, d_ell, 0.0)


def assert_same_bytes(got, want):
    for a, b in zip(got, want, strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape) and a.tobytes() == b.tobytes()


class TestOverlapKernel:
    """density_map and the spreading force share one cell-to-bin overlap kernel."""

    @staticmethod
    def mixed_design(rng):
        """Narrow and wide, fixed and movable cells, some clipped or outside, on an odd grid."""
        region = Region(0.1, -0.3, 0.1 + rng.uniform(5.0, 12.0), -0.3 + rng.uniform(5.0, 12.0))
        nx, ny = int(rng.integers(3, 17)), int(rng.integers(3, 17))
        bw, bh = region.width / nx, region.height / ny
        n = 60
        sizes = np.column_stack([rng.uniform(0.2, 1.5, n) * bw, rng.uniform(0.2, 1.5, n) * bh])
        wide = rng.choice(n, 12, replace=False)
        sizes[wide] = np.column_stack([rng.uniform(1.0, 6.0, 12) * bw, rng.uniform(1.0, 6.0, 12) * bh])
        g = np.column_stack([
            rng.uniform(region.xmin - 2.0 * bw, region.xmax + 2.0 * bw, n),
            rng.uniform(region.ymin - 2.0 * bh, region.ymax + 2.0 * bh, n),
        ])
        g[:4, 0] = region.xmin + sizes[:4, 0] / 2.0  # left edge on the region boundary
        g[4:8, 1] = region.ymax - sizes[4:8, 1] / 2.0  # top edge on the region boundary
        g[8:12] = np.column_stack([region.xmin - sizes[8:12, 0], region.ymax + sizes[8:12, 1]])  # outside
        fixed = rng.choice(n, 15, replace=False)
        design = make_design(n, [[0, 1]], region, sizes=sizes, pads={int(i): tuple(g[i]) for i in fixed})
        return design, g, nx, ny

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_bin_oracle(self, seed):
        rng = np.random.default_rng(500 + seed)
        design, g, nx, ny = self.mixed_design(rng)
        dens = density_map(design, g, GridConfig(nx=nx, ny=ny))
        bin_field = rng.normal(size=(nx, ny))
        grad = metrics._field_weighted_grad(design, dens, bin_field)
        rho_want, grad_want = overlap_oracle(design, g, nx, ny, bin_field)
        assert np.any(grad_want[:, 0] != 0.0) and np.any(grad_want[:, 1] != 0.0)
        np.testing.assert_allclose(dens.rho, rho_want, rtol=1e-12, atol=1e-12 * rho_want.max())
        np.testing.assert_allclose(grad, grad_want, rtol=1e-12, atol=1e-12 * np.abs(grad_want).max())

    def test_narrow_cells_on_bin_edges_match_per_bin_oracle(self):
        # unit bins on an 8 x 8 region: edges exactly on bin boundaries, where a span turns from 0 to 1, and
        # cells outside the region or fixed, which the whole-array narrow groups hold as zero-length entries
        region = Region(0.0, 0.0, 8.0, 8.0)
        centers = [(2.5, 3.5), (2.75, 3.25), (3.25, 3.75), (2.5, 4.0), (3.0, 3.0), (0.25, 7.75), (7.5, 0.5), (4.0, 4.5),
                   (-1.0, 3.0), (9.0, 9.0), (4.0, -0.5), (5.5, 5.5), (0.5, 8.25), (6.0, 2.0)]
        sizes = [(1.0, 1.0), (0.5, 0.5), (0.5, 0.5), (1.0, 1.0), (1.0, 0.5), (0.5, 0.5), (1.0, 1.0), (2.0, 1.0),
                 (1.0, 1.0), (0.5, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 0.5), (1.5, 1.25)]
        g = np.array(centers)
        design = make_design(len(g), [[0, 1]], region, sizes=sizes, pads={4: centers[4], 11: centers[11]})
        dens = density_map(design, g, GridConfig(nx=8, ny=8))
        assert len(dens.overlaps) == 4 and all(cells is None for cells, *_ in dens.overlaps)  # no wide cell, no fifth group
        bin_field = np.random.default_rng(4).normal(size=(8, 8))
        rho_want, grad_want = overlap_oracle(design, g, 8, 8, bin_field)
        assert np.count_nonzero(grad_want) >= 4
        np.testing.assert_allclose(dens.rho, rho_want, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(metrics._field_weighted_grad(design, dens, bin_field), grad_want, rtol=1e-12, atol=1e-12)
        assert dens.rho.sum() == 9.125  # every area but those of cells 8, 9, 10 and 12, which lie outside

    @pytest.mark.parametrize("case", ["bin-edges", "float-slivers", *(f"mixed{seed}" for seed in range(4))])
    def test_narrow_pass_matches_the_per_offset_overlaps_byte_for_byte(self, case):
        # bins, lengths and derivatives of offsets 0 and 1 are the reference's, for cells on bin edges,
        # cells clipped at the region edge or to nothing, fixed pads and wide cells (whose entries keep leaves zero)
        if case == "bin-edges":
            region = Region(0.0, 0.0, 8.0, 8.0)
            g = np.array([(2.5, 3.5), (2.75, 3.25), (3.0, 3.0), (0.25, 7.75), (7.5, 0.5), (4.0, 4.5), (-1.0, 3.0),
                          (9.0, 9.0), (0.5, 8.25), (6.0, 2.0), (4.0, 4.0)])
            sizes = [(1.0, 1.0), (0.5, 0.5), (1.0, 0.5), (0.5, 0.5), (1.0, 1.0), (2.0, 1.0), (1.0, 1.0), (0.5, 1.0),
                     (1.0, 0.5), (1.5, 1.25), (3.0, 2.5)]
            design, nx, ny = make_design(len(g), [[0, 1]], region, sizes=sizes, pads={2: (3.0, 3.0), 4: (7.5, 0.5)}), 8, 8
        elif case == "float-slivers":
            # 16 x 7 bins whose rounded edges leave slivers: cell 0's x interval ends just past the edge after its one
            # bin, and the last y edge lies just past the region's end, where cell 1 is clipped
            region = Region(-0.2, 0.1, -0.2 + 5.6, 0.1 + 7.3)
            g = np.array([(0.4, 2.0), (2.0, 7.3), (3.0, 3.0), (2.5, 4.0), (-1.0, 9.0), (1.05, 1.2)])
            sizes = [(0.2, 0.5), (0.2, 0.5), (0.3, 0.3), (1.5, 2.5), (0.2, 0.2), (0.3, 0.5)]
            design, nx, ny = make_design(len(g), [[0, 1]], region, sizes=sizes, pads={2: (3.0, 3.0)}), 16, 7
        else:
            design, g, nx, ny = self.mixed_design(np.random.default_rng(900 + int(case[5:])))
        axes = metrics._Axes(design, g, nx, ny, *design_bin(design, GridConfig(nx, ny)))
        narrow = np.all(axes.span <= 1, axis=0)
        assert narrow.any() and not narrow.all() and design.fixed.any()
        assert {0, 1} <= set(axes.span[:, narrow].ravel().tolist())
        if case == "float-slivers":
            assert axes.span[0, 0] == 0 and axes.hi[0, 0] > axes.start[0] + (axes.first[0, 0] + 1) * axes.width[0]
            assert axes.hi[1, 1] == axes.end[1] and axes.start[1] + ny * axes.width[1] > axes.end[1]
        for off, got in zip((0, 1), axes.narrow(narrow), strict=True):
            assert_same_bytes(got, overlap_reference(axes, off, keep=narrow))

    @pytest.mark.parametrize("case", ["all-wide", *(f"mixed{seed}" for seed in range(4))])
    def test_wide_group_matches_the_per_offset_overlaps_byte_for_byte(self, case):
        # the wide group lists every (cell, x offset, y offset) of each wide cell, cell by cell, y offset fastest
        if case == "all-wide":
            design = generate(cells=300, seed=1)
            g, nx, ny = random_positions(design, np.random.default_rng(11)), 256, 256
        else:
            design, g, nx, ny = self.mixed_design(np.random.default_rng(900 + int(case[5:])))
        bins = design_bin(design, GridConfig(nx, ny))
        axes = metrics._Axes(design, g, nx, ny, *bins)
        valid = np.all(axes.hi > axes.lo, axis=0)
        narrow = np.all(axes.span <= 1, axis=0)
        assert not narrow[valid].any() if case == "all-wide" else narrow.any() and (valid & ~narrow).any()
        entries = [(i, ox, oy) for i in np.flatnonzero(valid & ~narrow)
                   for ox in range(axes.span[0, i] + 1) for oy in range(axes.span[1, i] + 1)]
        cells, ox, oy = (np.array(column, dtype=np.int64) for column in zip(*entries))
        b, ell, d_ell = overlap_reference(axes, np.stack([ox, oy]), cells)
        got = metrics._bin_overlaps(design, g, nx, ny, *bins)[-1]
        assert_same_bytes(got, (cells, b[0] * ny + b[1], ell[0], ell[1], d_ell[0], d_ell[1]))

    def test_field_gradient_from_kept_overlaps_matches_a_fresh_pass(self):
        base = generate(cells=150, seed=3)
        grid = GridConfig(*default_bins(base))
        bw, bh = design_bin(base, grid)
        design = with_macro(base, 6.3 * bw, 4.7 * bh)  # takes the wide path
        g = random_positions(design, np.random.default_rng(9))
        dens = density_map(design, g, grid)
        fresh = dataclasses.replace(
            dens, overlaps=metrics._bin_overlaps(design, g, dens.nx, dens.ny, dens.bin_w, dens.bin_h)
        )
        bin_field = np.random.default_rng(10).normal(size=(dens.nx, dens.ny))
        kept = metrics._field_weighted_grad(design, dens, bin_field)
        np.testing.assert_array_equal(kept, metrics._field_weighted_grad(design, fresh, bin_field))
        assert np.any(kept[-1] != 0.0)
        # the kept overlaps are left out of comparison and repr
        assert fresh == dens and "overlaps" not in repr(dens)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_macro_matches_finite_differences(self, seed):
        base = generate(cells=150, seed=seed)
        grid = GridConfig(*default_bins(base))
        bw, bh = design_bin(base, grid)
        design = with_macro(base, 6.3 * bw, 4.7 * bh)
        g = random_positions(design, np.random.default_rng(700 + seed))
        movable = ~design.fixed
        _, grad, _ = electrostatic_grad(design, g, grid)
        fd = fd_gradient(lambda gg: electrostatic_grad(design, gg, grid)[0], g, movable, 1e-6)
        assert np.any(grad[-1] != 0.0)
        assert np.max(np.abs(grad[movable] - fd[movable])) <= 1e-4

    def test_wide_cell_cost_follows_overlapped_bins(self):
        # a force computed by one pass per (widest span) offset pair takes
        # about 100x longer once a single 64x64-bin cell is movable
        base = generate(cells=5000, seed=1)
        grid = GridConfig(*default_bins(base))
        bw, bh = design_bin(base, grid)
        design = with_macro(base, 64 * bw, 64 * bh)
        g_base = random_positions(base, np.random.default_rng(1))
        g = np.vstack([g_base, base.region.center])

        def best_of_5(d, pos):
            times = []
            for _ in range(5):
                t0 = time.perf_counter()
                electrostatic_grad(d, pos, grid)
                times.append(time.perf_counter() - t0)
            return min(times)

        assert best_of_5(design, g) <= 3.0 * best_of_5(base, g_base)

