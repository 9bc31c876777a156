"""Clique graph construction and sparse operator algebra.

Derived values are cross-checked against dense numpy oracles built
independently of the factored (incidence matrix) code paths.
"""

from __future__ import annotations

import dataclasses
import logging
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from giftplace import (
    Design,
    DimensionMismatchError,
    FilterTerm,
    GiftConfig,
    IsolatedNodeError,
    Region,
    SparseSymMatrix,
    TooLargeForDenseError,
    build_clique_graph,
    generate,
    gift_filter,
    identity_minus,
    laplacian,
    normalized_augmented_adjacency,
)
from tests.conftest import from_coo, make_design, random_connected_graph, random_triplets


def design_with_nets(n_cells: int, nets_pins: list[list[int]]) -> Design:
    return make_design(n_cells, nets_pins, Region(0.0, 0.0, 10.0, 10.0))


def dense_aug_oracle(a: np.ndarray, sigma: float) -> np.ndarray:
    """Straight dense evaluation of (D+sI)^-1/2 (A+sI) (D+sI)^-1/2."""
    d = a.sum(axis=1)
    s = np.diag(1.0 / np.sqrt(d + sigma))
    return s @ (a + sigma * np.eye(a.shape[0])) @ s


WIDE_FANOUT = {2: 0.35, 3: 0.2, 4: 0.15, 6: 0.1, 8: 0.08, 16: 0.07, 32: 0.05}


def reference_clique_graph(design: Design, max_clique_pins: int | None = None) -> np.ndarray:
    """Per-net loop over pin-table slices, as a dense matrix: the bit-exact oracle for the incidence-product build."""
    rows, cols, vals = [], [], []
    starts = design.net_start.tolist()
    for lo, hi in zip(starts, starts[1:]):
        m = hi - lo
        if m < 2 or (max_clique_pins is not None and m > max_clique_pins):
            continue
        cells = design.pin_cell[lo:hi]
        iu, ju = np.triu_indices(m, k=1)
        a, b = cells[iu], cells[ju]
        keep = a != b
        rows.append(np.minimum(a, b)[keep])
        cols.append(np.maximum(a, b)[keep])
        vals.append(np.full(int(keep.sum()), 2.0 / m))
    n = design.num_cells
    if not rows:
        return np.zeros((n, n))
    upper = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=(n, n)
    ).tocsr()
    return (upper + upper.T).toarray()


def reference_augmented(a: np.ndarray, sigma: float) -> np.ndarray:
    """A_sigma of an explicit adjacency through a COO round trip, scaled entry by entry."""
    aug = sp.coo_matrix(a + sigma * np.eye(a.shape[0]))
    s = 1.0 / np.sqrt(a.sum(axis=1) + sigma)
    data = aug.data * s[aug.row] * s[aug.col]
    return sp.coo_matrix((data, (aug.row, aug.col)), shape=aug.shape).toarray()


def dense_of(design: Design, max_clique_pins: int | None = None) -> np.ndarray:
    """The clique graph's to_dense, past DENSE_LIMIT for the 2000-cell designs and their pads."""
    return build_clique_graph(design, max_clique_pins).to_dense(limit=design.num_cells)


def with_extra_net(design: Design, cells: np.ndarray) -> Design:
    """``design`` plus one more net on ``cells``."""
    return dataclasses.replace(
        design,
        net_names=[*design.net_names, "extra"],
        net_start=np.append(design.net_start, design.net_start[-1] + cells.size),
        pin_cell=np.concatenate([design.pin_cell, cells]),
        pin_dx=np.zeros(design.pin_cell.size + cells.size),
        pin_dy=np.zeros(design.pin_cell.size + cells.size),
    )


def net_order_sum(nets: list[list[int]]) -> dict[tuple[int, int], float]:
    """2/M per pin pair, added pair by pair in net order: the order the build promises."""
    acc: dict[tuple[int, int], float] = {}
    for pins in nets:
        w = 2.0 / len(pins)
        for i, a in enumerate(pins):
            for b in pins[i + 1:]:
                if a != b:
                    key = (min(a, b), max(a, b))
                    acc[key] = acc.get(key, 0.0) + w
    return acc


ORACLE_DESIGNS = {
    "generated-default": lambda: generate(cells=2000, seed=11),
    "generated-wide": lambda: generate(cells=2000, fanout=WIDE_FANOUT, long_range_fraction=0.5, seed=12),
    "repeated-cells": lambda: design_with_nets(4, [[0, 0, 1], [2, 2, 2], [1, 3, 1, 3], [0, 1]]),
    "degree-0-and-1": lambda: design_with_nets(3, [[], [0], [1, 2], [2]]),
    # pair (0, 1) sums 2/3 + 2/5 + 2/7 + 2/6; summed in degree order instead
    # of net order the last bit differs
    "shared-pair-mixed-degrees": lambda: design_with_nets(
        15, [[0, 1, 2], [0, 1, 3, 4, 5], [0, 1, 6, 7, 8, 9, 10], [0, 1, 11, 12, 13, 14]]
    ),
    "no-nets": lambda: design_with_nets(3, []),
    "no-cells": lambda: design_with_nets(0, []),
    "generated-plus-500-pin-net": lambda: with_extra_net(
        generate(cells=2000, seed=13), np.random.default_rng(13).choice(2000, size=500, replace=False)
    ),
}


class TestBucketedBuildOracle:
    """The incidence-product build, made dense, equals the per-net loop bit for bit."""

    @pytest.mark.parametrize("name", ORACLE_DESIGNS)
    def test_matches_per_net_loop(self, name):
        design = ORACLE_DESIGNS[name]()
        assert np.array_equal(dense_of(design), reference_clique_graph(design))

    @pytest.mark.parametrize("name", ["generated-wide", "repeated-cells"])
    @pytest.mark.parametrize("offset", [-3, -1, 0, 1])
    def test_max_clique_pins_around_max_degree(self, name, offset):
        design = ORACLE_DESIGNS[name]()
        cap = int(np.diff(design.net_start).max()) + offset
        assert np.array_equal(dense_of(design, cap), reference_clique_graph(design, max_clique_pins=cap))

    @pytest.mark.parametrize("name", ["generated-default", "generated-wide"])
    @pytest.mark.parametrize("sigma", [0.0, 2.0, 4.0])
    def test_augmented_matches_coo_round_trip(self, name, sigma):
        # sigma is folded into the diagonal and the degrees come in closed form, so the last bits may move
        design = ORACLE_DESIGNS[name]()
        got = normalized_augmented_adjacency(build_clique_graph(design), sigma).to_dense(limit=design.num_cells)
        np.testing.assert_allclose(got, reference_augmented(reference_clique_graph(design), sigma), rtol=0, atol=1e-15)

    def test_augmented_leaves_adjacency_untouched(self):
        adj = build_clique_graph(ORACLE_DESIGNS["generated-default"]())
        fields = ("values", "indices", "indptr", "weights", "diag", "scale", "degrees")
        before = [getattr(adj, name).copy() for name in fields]
        normalized_augmented_adjacency(adj, 0.0)
        for name, want in zip(fields, before):
            assert np.array_equal(getattr(adj, name), want), name

    @pytest.mark.parametrize("cap,message", [(3, "skipped 4 nets"), (0, "skipped 5 nets"), (6, None)])
    def test_skip_log_counts_nets_not_buckets(self, caplog, cap, message):
        # degrees 5, 5, 4, 6 and 2 in 4 degree buckets; the 1-pin net is never
        # counted, since nets under 2 pins are ignored before the cap applies
        design = design_with_nets(7, [[0, 1, 2, 3, 4], [1, 2, 3, 4, 5], [0, 1, 2, 3], [0] * 6, [6], [0, 1]])
        with caplog.at_level(logging.INFO, logger="giftplace.graph"):
            build_clique_graph(design, max_clique_pins=cap)
        if message is None:
            assert "skipped" not in caplog.text
        else:
            assert f"clique expansion {message} with more than {cap} pins" in caplog.text


class TestIncidenceProductBuild:
    """The B W B^T build sums in net order, stays symmetric and peaks near its output size."""

    def test_equals_net_order_sum(self):
        rng = np.random.default_rng(0)
        mismatched = []
        for trial in range(200):
            n = int(rng.integers(3, 40))
            nets = [
                [int(c) for c in rng.choice(n, size=int(rng.integers(2, min(n, 11) + 1)), replace=False)]
                for _ in range(int(rng.integers(0, 60)))
            ]
            dense = build_clique_graph(design_with_nets(n, nets)).to_dense()
            rows, cols = np.nonzero(np.triu(dense, k=1))
            got = dict(zip(zip(rows.tolist(), cols.tolist()), dense[rows, cols].tolist()))
            if got != net_order_sum(nets):
                mismatched.append(trial)
        assert mismatched == []

    def test_cell_named_five_times_is_symmetric(self):
        rng = np.random.default_rng(5)
        nets = [[int(c) for c in rng.choice(8, size=4)] + [int(rng.integers(20))] * 5 for _ in range(30)]
        design = design_with_nets(20, nets)
        got = build_clique_graph(design).to_dense()
        assert np.array_equal(got, got.T)
        want = reference_clique_graph(design)
        assert np.array_equal(got != 0, want != 0)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_wide_net_peak_memory_near_output_size(self):
        # the output is B, one entry per pin; the clique of this net would hold 1000 * 999 entries
        design = design_with_nets(1000, [list(range(1000))])
        tracemalloc.start()
        try:
            got = build_clique_graph(design)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got.nnz == 1000
        assert peak <= 5.5 * (got.values.nbytes + got.indices.nbytes + got.indptr.nbytes)

    def test_net_over_the_old_entry_bound_builds_and_filters(self):
        # the clique of one 8193-pin net would hold 8193 * 8192 > 2**26 entries; B holds 8193
        design = design_with_nets(8193, [list(range(8193))])
        tracemalloc.start()
        try:
            adj = build_clique_graph(design)
            out = adj.matmul(np.ones((8193, 2)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert adj.nnz == 8193
        np.testing.assert_allclose(adj.degrees, 2.0 * 8192 / 8193, rtol=1e-14)
        np.testing.assert_allclose(out, 2.0 * 8192 / 8193, rtol=1e-14)
        assert peak < 2_000_000


@st.composite
def hypergraphs(draw):
    """Up to 12 cells and 10 nets of 0 to 8 pins, cells repeated within a net, an optional cap, a signal."""
    n = draw(st.integers(1, 12))
    nets = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=8), max_size=10))
    cap = draw(st.none() | st.integers(2, 8))
    g = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=2 * n, max_size=2 * n))).reshape(n, 2)
    return n, nets, cap, g


@settings(max_examples=200, deadline=None)
@given(hypergraphs(), st.sampled_from([0.0, 2.0, 4.0]))
def test_factored_operators_match_dense_reference(case, sigma):
    """matmul, degrees, to_dense, laplacian and identity_minus against S (B W B^T - diag + sigma I) S."""
    n, nets, cap, g = case
    b = np.zeros((n, len(nets)))
    for e, pins in enumerate(nets):
        for cell in pins:
            b[cell, e] += 1.0
    m = np.array([len(pins) for pins in nets])
    kept = (m >= 2) & (m <= (cap if cap is not None else m.max(initial=0)))
    bwb = (b[:, kept] * (2.0 / m[kept])) @ b[:, kept].T
    a = bwb - np.diag(np.diag(bwb))
    d = a.sum(axis=1)

    adj = build_clique_graph(design_with_nets(n, nets), cap)
    close = dict(rtol=0, atol=1e-12)
    np.testing.assert_allclose(adj.to_dense(), a, **close)
    np.testing.assert_allclose(adj.degrees, d, **close)
    np.testing.assert_allclose(adj.matmul(g), a @ g, **close)
    lap = laplacian(adj)
    np.testing.assert_allclose(lap.to_dense(), np.diag(d) - a, **close)
    np.testing.assert_allclose(lap.matmul(g), (np.diag(d) - a) @ g, **close)
    if sigma == 0 and (d <= 0).any():
        with pytest.raises(IsolatedNodeError):
            normalized_augmented_adjacency(adj, sigma)
        return
    s = 1.0 / np.sqrt(d + sigma)
    want = s[:, None] * (a + sigma * np.eye(n)) * s
    op = normalized_augmented_adjacency(adj, sigma)
    np.testing.assert_allclose(op.to_dense(), want, **close)
    np.testing.assert_allclose(op.matmul(g), want @ g, **close)
    np.testing.assert_allclose(identity_minus(op).to_dense(), np.eye(n) - want, **close)
    np.testing.assert_allclose(identity_minus(op).matmul(g), g - want @ g, **close)


def scipy_incidence(design: Design, cap: int | None) -> tuple[sp.csr_matrix, np.ndarray]:
    """B as scipy builds it from the kept nets' (cell, net) pins, repeats summed, and the weights 2/M."""
    m = np.diff(design.net_start)
    kept = (m >= 2) & (m <= (cap if cap is not None else m.max(initial=0)))
    nets = np.repeat(np.arange(kept.sum()), m[kept])
    cells = design.pin_cell[np.repeat(kept, m)]
    return sp.csr_matrix((np.ones(nets.size), (cells, nets)), shape=(design.num_cells, kept.sum())), 2.0 / m[kept]


@settings(max_examples=200, deadline=None)
@given(hypergraphs(), st.sampled_from([2.0, 4.0]))
@example((3, [[0], [], [1]], None, np.ones((3, 2))), 2.0)  # no kept net
@example((3, [[0, 1, 2], [2, 0]], 2, np.ones((3, 2))), 2.0)  # the cap skips a net
@example((3, [[0, 0, 1], [2, 2, 2], [1, 2, 1]], None, np.arange(6.0).reshape(3, 2)), 4.0)  # repeated cells
def test_incidence_and_products_are_scipys_bit_for_bit(case, sigma):
    """B's arrays and dtypes, B (w * (B^T x)), degrees and each operator's matmul, against scipy's sparse products."""
    n, nets, cap, g = case
    design = design_with_nets(n, nets)
    adj = build_clique_graph(design, cap)
    b, w = scipy_incidence(design, cap)
    for got, want in ((adj.values, b.data), (adj.indices, b.indices), (adj.indptr, b.indptr), (adj.weights, w)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert adj.nnz == b.nnz
    want_degrees = b @ (w * (b.T @ np.ones(n))) + adj.diag
    assert adj.degrees.dtype == np.float64
    assert np.array_equal(adj.degrees, want_degrees)
    for op in (adj, laplacian(adj), normalized_augmented_adjacency(adj, sigma)):
        bare = SparseSymMatrix(op.incidence, op.weights, np.zeros(n))
        for col in g.T:
            assert np.array_equal(bare.matmul(col), b @ (op.weights * (b.T @ col)))
        sg = g * op.scale[:, None]
        want = (b @ (op.weights[:, None] * (b.T @ sg)) + op.diag[:, None] * sg) * op.scale[:, None]
        got = op.matmul(g)
        assert got.dtype == np.float64
        assert np.array_equal(got, want)


class TestCliqueGraph:
    def test_two_pin_net_weight_one(self):
        adj = build_clique_graph(design_with_nets(2, [[0, 1]]))
        assert adj.to_dense().tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_three_pin_net_triangle(self):
        adj = build_clique_graph(design_with_nets(3, [[0, 1, 2]]))
        dense = adj.to_dense()
        expected = (2.0 / 3.0) * (np.ones((3, 3)) - np.eye(3))
        assert np.abs(dense - expected).max() < 1e-15

    def test_parallel_nets_accumulate(self):
        adj = build_clique_graph(design_with_nets(2, [[0, 1], [0, 1]]))
        assert adj.to_dense()[0, 1] == 2.0

    def test_degenerate_nets_ignored(self):
        adj = build_clique_graph(design_with_nets(3, [[0], [], [1, 2]]))
        dense = adj.to_dense()
        assert dense[0].tolist() == [0.0, 0.0, 0.0]
        assert dense[1, 2] == 1.0

    def test_self_pairs_dropped(self):
        # net pinning the same cell twice plus one real partner: the (0,0)
        # pin pair vanishes, the two (0,1) pin pairs each contribute 2/3
        adj = build_clique_graph(design_with_nets(2, [[0, 0, 1]]))
        dense = adj.to_dense()
        assert dense[0, 0] == 0.0
        assert dense[0, 1] == pytest.approx(4.0 / 3.0)

    def test_max_clique_pins_skips(self):
        design = design_with_nets(5, [[0, 1, 2, 3, 4], [0, 1]])
        adj = build_clique_graph(design, max_clique_pins=3)
        assert adj.nnz == 2  # only the 2-pin net survives

    def test_brute_force_oracle(self, graph_rng):
        """Accumulated weights equal a per-net dict-of-pairs recount."""
        rng = graph_rng
        n = 30
        nets = [list(rng.choice(n, size=rng.integers(2, 6), replace=True)) for _ in range(40)]
        nets = [[int(c) for c in net] for net in nets]
        design = design_with_nets(n, nets)
        adj = build_clique_graph(design)

        expected = np.zeros((n, n))
        for pins in nets:
            m = len(pins)
            for i in range(m):
                for j in range(i + 1, m):
                    a, b = pins[i], pins[j]
                    if a != b:
                        expected[a, b] += 2.0 / m
                        expected[b, a] += 2.0 / m
        assert np.abs(adj.to_dense() - expected).max() < 1e-12


class TestSparseSymMatrix:
    @pytest.mark.parametrize(
        "n, rows, cols, vals",
        [
            pytest.param(2, [0, 1, 0, 1], [1, 0, 1, 0], [1.0, 1.0, 2.0, 2.0], id="duplicates"),
            pytest.param(3, [0, 1, 1, 2, 0, 1], [1, 0, 2, 1, 1, 0], [1.0, 1.0, 0.0, 0.0, -1.0, -1.0], id="zeros"),
            pytest.param(3, [0, 1, 1, 1, 2], [1, 0, 1, 1, 2], [2.0, 2.0, 3.0, 0.5, -1.0], id="diagonal"),
            pytest.param(3, [], [], [], id="empty"),
            pytest.param(40, *random_triplets(40, np.random.default_rng(7)), id="random"),
        ],
    )
    def test_from_coo_is_the_coo_matrix(self, n, rows, cols, vals):
        # the helper behind every random graph, against scipy; each edge is one 2-pin net and a zero sum none
        expected = sp.coo_matrix((np.asarray(vals, dtype=float), (rows, cols)), shape=(n, n)).toarray()
        adj = from_coo(n, rows, cols, vals)
        np.testing.assert_array_equal(adj.to_dense(), expected)
        assert adj.nnz == 2 * np.count_nonzero(np.triu(expected, 1))
        assert adj.weights.dtype == float

    def test_matmul_dimension_check(self):
        adj = from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
        with pytest.raises(DimensionMismatchError):
            adj.matmul(np.zeros((3, 2)))

    def test_dense_guard(self):
        adj = from_coo(5, [0, 1], [1, 0], [1.0, 1.0])
        with pytest.raises(TooLargeForDenseError):
            adj.to_dense(limit=4)

    def test_degrees(self):
        adj = from_coo(3, [0, 1, 1, 2], [1, 0, 2, 1], [2.0, 2.0, 0.5, 0.5])
        assert adj.degrees.tolist() == [2.0, 2.5, 0.5]


class TestLaplacian:
    def test_two_node_edge(self):
        adj = from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
        lap = laplacian(adj)
        assert lap.to_dense().tolist() == [[1.0, -1.0], [-1.0, 1.0]]

    def test_isolated_node_row_zero(self):
        adj = from_coo(3, [0, 1], [1, 0], [1.0, 1.0])
        assert laplacian(adj).to_dense()[2].tolist() == [0.0, 0.0, 0.0]

    def test_triangle_dense_oracle(self):
        adj = build_clique_graph(design_with_nets(3, [[0, 1], [1, 2], [0, 2]]))
        lap = laplacian(adj).to_dense()
        a = adj.to_dense()
        expected = np.diag(a.sum(axis=1)) - a
        assert np.abs(lap - expected).max() < 1e-15
        assert np.abs(lap.sum(axis=1)).max() < 1e-12

    def test_row_sums_zero_random(self, graph_rng):
        adj = random_connected_graph(60, graph_rng)
        lap = laplacian(adj)
        ones = np.ones(60)
        assert np.abs(lap.matmul(ones)).max() < 1e-10


class TestAugmentedAdjacency:
    def test_two_node_sigma_zero(self):
        adj = from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
        out = normalized_augmented_adjacency(adj, 0.0).to_dense()
        assert np.abs(out - np.array([[0.0, 1.0], [1.0, 0.0]])).max() < 1e-15

    def test_two_node_sigma_two(self):
        adj = from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
        out = normalized_augmented_adjacency(adj, 2.0).to_dense()
        expected = np.array([[2.0, 1.0], [1.0, 2.0]]) / 3.0
        assert np.abs(out - expected).max() < 1e-12

    def test_isolated_node_with_zero_sigma(self):
        adj = from_coo(3, [0, 1], [1, 0], [1.0, 1.0])
        with pytest.raises(IsolatedNodeError) as exc:
            normalized_augmented_adjacency(adj, 0.0)
        assert "2" in str(exc.value)

    def test_isolated_node_ok_with_positive_sigma(self):
        adj = from_coo(3, [0, 1], [1, 0], [1.0, 1.0])
        out = normalized_augmented_adjacency(adj, 1.0).to_dense()
        assert out[2, 2] == 1.0  # self-loop survives normalization

    def test_negative_sigma_rejected(self):
        adj = from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
        with pytest.raises(ValueError):
            normalized_augmented_adjacency(adj, -0.5)

    @pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
    def test_non_finite_sigma_rejected(self, sigma):
        adj = from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
        with pytest.raises(ValueError, match="must be finite"):
            normalized_augmented_adjacency(adj, sigma)

    def test_matches_dense_oracle(self, graph_rng):
        for sigma in (0.0, 1.0, 2.0, 4.0):
            adj = random_connected_graph(40, graph_rng)
            out = normalized_augmented_adjacency(adj, sigma).to_dense()
            expected = dense_aug_oracle(adj.to_dense(), sigma)
            assert np.abs(out - expected).max() < 1e-12

    def test_spectral_radius_at_most_one(self, graph_rng):
        for sigma in (0.0, 0.5, 3.0):
            adj = random_connected_graph(50, graph_rng)
            out = normalized_augmented_adjacency(adj, sigma).to_dense()
            eig = np.linalg.eigvalsh(out)
            assert eig.max() <= 1.0 + 1e-12
            assert eig.min() >= -1.0 - 1e-12

    def test_ones_vector_fixed_on_regular_graph(self):
        # a 4-cycle is 2-regular; its rows all sum to 1 after augmentation
        adj = from_coo(4, [0, 1, 1, 2, 2, 3, 3, 0], [1, 0, 2, 1, 3, 2, 0, 3], np.ones(8))
        for sigma in (0.0, 1.0, 3.0):
            out = normalized_augmented_adjacency(adj, sigma)
            assert np.abs(out.matmul(np.ones(4)) - 1.0).max() < 1e-12


class TestOperatorPower:
    """One filter term with alpha = 1 is the operator power A_sigma^k g."""

    @staticmethod
    def power(adj: SparseSymMatrix, sigma: float, g: np.ndarray, k: int) -> np.ndarray:
        return gift_filter(adj, g, GiftConfig(terms=(FilterTerm(sigma=sigma, k=k, alpha=1.0),)))

    def test_hand_computed_square(self):
        adj = from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
        out = self.power(adj, 2.0, np.array([0.0, 3.0]), 2)
        assert np.abs(out - np.array([4.0 / 3.0, 5.0 / 3.0])).max() < 1e-12

    def test_composition_identity(self, graph_rng):
        adj = random_connected_graph(25, graph_rng)
        op = normalized_augmented_adjacency(adj, 4.0)
        g = graph_rng.standard_normal((25, 2))
        once_twice = op.matmul(self.power(adj, 4.0, g, 1))
        assert np.abs(self.power(adj, 4.0, g, 2) - once_twice).max() < 1e-14

    def test_matches_dense_matrix_power(self, graph_rng):
        adj = random_connected_graph(30, graph_rng)
        op = normalized_augmented_adjacency(adj, 4.0)
        g = graph_rng.standard_normal((30, 2))
        for k in (1, 2, 4):
            expected = np.linalg.matrix_power(op.to_dense(), k) @ g
            assert np.abs(self.power(adj, 4.0, g, k) - expected).max() < 1e-10

    def test_k_zero_rejected(self):
        adj = from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
        with pytest.raises(ValueError):
            self.power(adj, 1.0, np.zeros(2), 0)

    def test_constant_signal_on_regular_graph(self):
        adj = from_coo(4, [0, 1, 1, 2, 2, 3, 3, 0], [1, 0, 2, 1, 3, 2, 0, 3], np.ones(8))
        g = np.full(4, 2.5)
        assert np.abs(self.power(adj, 1.0, g, 3) - g).max() < 1e-12


class TestFilterTerm:
    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            FilterTerm(sigma=2.0, k=0, alpha=0.1)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            FilterTerm(sigma=-1.0, k=2, alpha=0.1)

    @pytest.mark.parametrize(
        "sigma,alpha", [(float("nan"), 0.1), (float("inf"), 0.1), (2.0, float("nan")), (2.0, float("-inf"))]
    )
    def test_rejects_non_finite(self, sigma, alpha):
        with pytest.raises(ValueError, match="must be finite"):
            FilterTerm(sigma=sigma, k=2, alpha=alpha)


class TestIdentityMinus:
    def test_normalized_laplacian_spectrum(self, graph_rng):
        adj = random_connected_graph(40, graph_rng)
        lap = identity_minus(normalized_augmented_adjacency(adj, 0.0))
        eig = np.linalg.eigvalsh(lap.to_dense())
        assert eig.min() >= -1e-9
        assert eig.max() <= 2.0 + 1e-9
