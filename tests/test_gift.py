"""Filter initialization: seeding, filtering, pinning, clamping.

The filter itself is verified against a dense spectral oracle built from an
independent eigendecomposition of each augmented operator.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from giftplace import (
    DEFAULT_TERMS,
    DimensionMismatchError,
    FilterTerm,
    GiftConfig,
    GiftPlaceError,
    Region,
    build_clique_graph,
    generate,
    gift_filter,
    gift_place,
    initial_signal,
    normalized_augmented_adjacency,
    quadratic_wirelength,
)
from giftplace.gift import MAX_PRODUCTS
from tests.conftest import from_coo, make_design, random_connected_graph


def spectral_filter_oracle(adj, terms, g):
    """Evaluate sum(alpha * U diag((1-lam)^k) U^T) g densely per sigma."""
    out = np.zeros_like(np.asarray(g, dtype=float))
    for term in terms:
        a_sigma = normalized_augmented_adjacency(adj, term.sigma).to_dense()
        lam, u = np.linalg.eigh(np.eye(adj.n) - a_sigma)
        h = (1.0 - lam) ** term.k
        out += term.alpha * (u @ (h[:, None] * (u.T @ g)))
    return out


class TestInitialSignal:
    def test_fixed_cells_pinned_exactly(self, anchored_design):
        g = initial_signal(anchored_design, GiftConfig(seed=3))
        assert g[0].tolist() == [1.0, 2.0]
        assert g[3].tolist() == [11.0, 2.0]

    def test_zero_jitter_is_exact_center(self, tri_design):
        g = initial_signal(tri_design, GiftConfig(seed=3, jitter_scale=0.0))
        assert np.all(g == np.array(tri_design.region.center))

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0])
    def test_unusable_jitter_rejected(self, scale):
        with pytest.raises(ValueError, match="jitter_scale must be finite and >= 0"):
            GiftConfig(jitter_scale=scale)

    def test_no_terms_rejected(self):
        with pytest.raises(ValueError, match="filter needs at least one term"):
            GiftConfig(terms=())

    def test_products_bounded(self):
        # per sigma its largest k, summed: 2 + (MAX_PRODUCTS - 2) is the most a config may take
        GiftConfig(terms=[FilterTerm(2.0, 2, 0.1), FilterTerm(4.0, 2, 0.7), FilterTerm(4.0, MAX_PRODUCTS - 2, 0.2)])
        with pytest.raises(ValueError, match=f"take {MAX_PRODUCTS + 1} sparse products per signal column"):
            GiftConfig(terms=[FilterTerm(2.0, 2, 0.1), FilterTerm(4.0, 1, 0.7), FilterTerm(4.0, MAX_PRODUCTS - 1, 0.2)])
        assert sum(max(t.k for t in DEFAULT_TERMS if t.sigma == s) for s in {t.sigma for t in DEFAULT_TERMS}) == 6

    def test_seed_determinism(self, tri_design):
        a = initial_signal(tri_design, GiftConfig(seed=11))
        b = initial_signal(tri_design, GiftConfig(seed=11))
        assert np.array_equal(a, b)

    def test_seeds_differ(self, tri_design):
        a = initial_signal(tri_design, GiftConfig(seed=1))
        b = initial_signal(tri_design, GiftConfig(seed=2))
        assert not np.array_equal(a, b)

    def test_jitter_independent_of_fixed_layout(self, anchored_design):
        """The movable cells' noise must not shift when other cells are fixed."""
        free = dataclasses.replace(anchored_design, fixed_xy=np.full((4, 2), np.nan))
        g_fixed = initial_signal(anchored_design, GiftConfig(seed=5))
        g_free = initial_signal(free, GiftConfig(seed=5))
        assert np.array_equal(g_fixed[1:3], g_free[1:3])

    def test_default_scale_tracks_region(self):
        """Doubling the region doubles the default jitter spread."""
        small = make_design(400, [], Region(0.0, 0.0, 100.0, 100.0))
        big = make_design(400, [], Region(0.0, 0.0, 200.0, 200.0))
        gs = initial_signal(small, GiftConfig(seed=9))
        gb = initial_signal(big, GiftConfig(seed=9))
        assert gb[:, 0].std() == pytest.approx(2.0 * gs[:, 0].std(), rel=1e-9)


class TestGiftFilter:
    def test_constant_preserved_on_regular_graph(self):
        ring = from_coo(4, [0, 1, 1, 2, 2, 3, 3, 0], [1, 0, 2, 1, 3, 2, 0, 3], np.ones(8))
        g = np.full((4, 2), 7.5)
        out = gift_filter(ring, g)
        # default coefficients sum to 1, so constants pass through
        assert np.abs(out - g).max() < 1e-12

    def test_single_term_hand_example(self):
        adj = from_coo(2, [0, 1], [1, 0], [1.0, 1.0])
        cfg = GiftConfig(terms=(FilterTerm(sigma=2.0, k=2, alpha=1.0),))
        out = gift_filter(adj, np.array([0.0, 3.0]), cfg)
        assert np.abs(out - np.array([4.0 / 3.0, 5.0 / 3.0])).max() < 1e-12

    def test_zero_in_zero_out(self, graph_rng):
        adj = random_connected_graph(20, graph_rng)
        out = gift_filter(adj, np.zeros((20, 2)))
        assert np.all(out == 0.0)

    def test_linearity(self, graph_rng):
        adj = random_connected_graph(40, graph_rng)
        g1 = graph_rng.standard_normal((40, 2))
        g2 = graph_rng.standard_normal((40, 2))
        lhs = gift_filter(adj, 2.0 * g1 - 3.0 * g2)
        rhs = 2.0 * gift_filter(adj, g1) - 3.0 * gift_filter(adj, g2)
        scale = np.abs(rhs).max()
        assert np.abs(lhs - rhs).max() <= 1e-10 * (1.0 + scale)

    def test_matches_spectral_oracle(self, graph_rng):
        for n in (15, 60, 150):
            adj = random_connected_graph(n, graph_rng)
            g = graph_rng.standard_normal((n, 2)) * 10.0
            out = gift_filter(adj, g)
            expected = spectral_filter_oracle(adj, GiftConfig().terms, g)
            assert np.abs(out - expected).max() <= 1e-8

    def test_dimension_mismatch(self, graph_rng):
        adj = random_connected_graph(10, graph_rng)
        with pytest.raises(DimensionMismatchError):
            gift_filter(adj, np.zeros((11, 2)))

    def test_custom_terms_respected(self, graph_rng):
        adj = random_connected_graph(30, graph_rng)
        g = graph_rng.standard_normal((30, 2))
        terms = (FilterTerm(sigma=1.0, k=1, alpha=0.5), FilterTerm(sigma=1.0, k=3, alpha=0.5))
        out = gift_filter(adj, g, GiftConfig(terms=terms))
        expected = spectral_filter_oracle(adj, terms, g)
        assert np.abs(out - expected).max() <= 1e-8


class TestGiftPlace:
    def test_all_fixed_design(self):
        design = make_design(
            ["p0", "p1"], [[0, 1]], Region(0.0, 0.0, 10.0, 10.0), pads={0: (2.0, 2.0), 1: (8.0, 8.0)}
        )
        adj = build_clique_graph(design)
        g = gift_place(design, adj)
        assert g.tolist() == [[2.0, 2.0], [8.0, 8.0]]

    def test_output_in_region(self):
        design = generate(cells=200, seed=4)
        adj = build_clique_graph(design)
        g = gift_place(design, adj)
        movable = ~design.fixed
        r = design.region
        assert g[movable, 0].min() >= r.xmin and g[movable, 0].max() <= r.xmax
        assert g[movable, 1].min() >= r.ymin and g[movable, 1].max() <= r.ymax

    def test_fixed_cells_survive_filtering(self):
        design = generate(cells=100, seed=2)
        adj = build_clique_graph(design)
        g = gift_place(design, adj)
        mask = design.fixed
        assert np.array_equal(g[mask], design.fixed_xy[mask])

    def test_pad_outside_the_region_stays_at_its_fixed_position(self):
        design = make_design(5, [[0, 1, 2], [2, 3, 4], [0, 4]], Region(0.0, 0.0, 10.0, 10.0), pads={4: (-4.0, 13.5)})
        g = gift_place(design, build_clique_graph(design), GiftConfig(seed=3, jitter_scale=30.0))
        assert g[4].tolist() == [-4.0, 13.5]
        assert np.all((g[:4] >= 0.0) & (g[:4] <= 10.0))

    @pytest.mark.parametrize("config", [
        GiftConfig(seed=1, jitter_scale=1e308),
        GiftConfig(seed=1, terms=(FilterTerm(sigma=2.0, k=2, alpha=1e308),)),
        GiftConfig(seed=1, terms=(FilterTerm(sigma=2.0, k=1, alpha=-1e308), FilterTerm(sigma=4.0, k=3, alpha=1e308))),
    ], ids=["jitter", "alpha", "alphas-of-either-sign"])
    def test_non_finite_result_raises_instead_of_clipping(self, config):
        # an overflowed coordinate would be clipped onto the region's edge, and a NaN would pass the clip;
        # under the suite's warnings-as-errors an overflow warning would surface instead
        design = generate(cells=120, seed=1)
        with pytest.raises(GiftPlaceError, match="filtered placement is not finite"):
            gift_place(design, build_clique_graph(design), config)

    def test_large_finite_jitter_is_clipped_into_the_region(self):
        design = generate(cells=120, seed=1)
        g = gift_place(design, build_clique_graph(design), GiftConfig(seed=1, jitter_scale=1e300))
        r, movable = design.region, ~design.fixed
        assert np.all((g[movable] >= (r.xmin, r.ymin)) & (g[movable] <= (r.xmax, r.ymax)))
        assert np.array_equal(g[design.fixed], design.fixed_xy[design.fixed])

    def test_end_to_end_determinism(self):
        design = generate(cells=150, seed=6)
        adj = build_clique_graph(design)
        g1 = gift_place(design, adj, GiftConfig(seed=42))
        g2 = gift_place(design, adj, GiftConfig(seed=42))
        assert np.array_equal(g1, g2)

    def test_smooths_every_seed(self):
        """Filtering must strictly reduce quadratic wirelength on real corpora."""
        wins = 0
        trials = 0
        for dseed in (1, 2):
            design = generate(cells=120, seed=dseed)
            adj = build_clique_graph(design)
            for seed in range(10):
                cfg = GiftConfig(seed=seed)
                g0 = initial_signal(design, cfg)
                g1 = gift_place(design, adj, cfg)
                trials += 1
                wins += quadratic_wirelength(adj, g1) < quadratic_wirelength(adj, g0)
        assert wins == trials
