"""Dense spectral toolkit: eigensystem, eigenvector placement, responses, Taylor gap."""

from __future__ import annotations

import numpy as np
import pytest

from giftplace import (
    DegenerateSpectrumWarning,
    Region,
    TooLargeForDenseError,
    eigendecompose,
    eigenvector_placement,
    filter_response,
    identity_minus,
    normalized_augmented_adjacency,
    quadratic_wirelength,
    rayleigh_smoothness,
    taylor_gap,
)
from tests.conftest import from_coo, random_connected_graph


def norm_laplacian(adj):
    return identity_minus(normalized_augmented_adjacency(adj, 0.0))


def path_graph(n):
    rows, cols = [], []
    for i in range(n - 1):
        rows += [i, i + 1]
        cols += [i + 1, i]
    return from_coo(n, rows, cols, np.ones(2 * (n - 1)))


class TestEigendecompose:
    def test_two_node_path(self):
        result = eigendecompose(norm_laplacian(path_graph(2)))
        assert type(result) is tuple  # not numpy 2's EighResult: callers unpack it, as numpy 1.24's tuple allows
        lambdas, _ = result
        assert np.abs(lambdas - np.array([0.0, 2.0])).max() < 1e-12

    def test_complete_graph_k3(self):
        adj = from_coo(3, [0, 1, 1, 2, 0, 2], [1, 0, 2, 1, 2, 0], np.ones(6))
        lambdas, _ = eigendecompose(norm_laplacian(adj))
        assert np.abs(lambdas - np.array([0.0, 1.5, 1.5])).max() < 1e-12

    def test_kernel_is_sqrt_degree(self, graph_rng):
        adj = random_connected_graph(30, graph_rng)
        lambdas, u = eigendecompose(norm_laplacian(adj))
        assert abs(lambdas[0]) < 1e-9
        u0 = u[:, 0]
        expected = np.sqrt(adj.degrees)
        expected /= np.linalg.norm(expected)
        # sign-invariant comparison
        assert min(np.abs(u0 - expected).max(), np.abs(u0 + expected).max()) < 1e-8

    def test_orthonormal_and_ascending(self, graph_rng):
        adj = random_connected_graph(50, graph_rng)
        lambdas, u = eigendecompose(norm_laplacian(adj))
        assert np.all(np.diff(lambdas) >= -1e-12)
        assert np.abs(u.T @ u - np.eye(50)).max() < 1e-8

    def test_reconstruction(self, graph_rng):
        adj = random_connected_graph(40, graph_rng)
        lap = norm_laplacian(adj)
        lambdas, u = eigendecompose(lap)
        rebuilt = u @ np.diag(lambdas) @ u.T
        assert np.abs(rebuilt - lap.to_dense()).max() < 1e-8

    def test_dense_guard(self, graph_rng):
        adj = random_connected_graph(20, graph_rng)
        with pytest.raises(TooLargeForDenseError):
            eigendecompose(adj, limit=10)


class TestEigenvectorPlacement:
    def test_path_order_recovered(self):
        g = eigenvector_placement(*eigendecompose(norm_laplacian(path_graph(3))))
        x = g[:, 0]
        # u2 of P3 is the odd mode: monotone along the path (up to global sign)
        assert np.all(np.diff(x) > 0) or np.all(np.diff(x) < 0)

    def test_path_two_nodal_domains(self):
        # for longer paths the degree-normalized u2 need not be monotone,
        # but as the second mode it crosses zero exactly once
        x = eigenvector_placement(*eigendecompose(norm_laplacian(path_graph(7))))[:, 0]
        signs = np.sign(x[np.abs(x) > 1e-12])
        assert int(np.count_nonzero(np.diff(signs) != 0)) == 1

    def test_columns_orthogonal(self, graph_rng):
        adj = random_connected_graph(30, graph_rng)
        lambdas, u = eigendecompose(norm_laplacian(adj))
        g = eigenvector_placement(lambdas, u)
        assert abs(g[:, 0] @ g[:, 1]) < 1e-10
        assert not np.shares_memory(g, u)

    def test_rescaled_into_region(self, graph_rng):
        adj = random_connected_graph(30, graph_rng)
        region = Region(2.0, 3.0, 12.0, 9.0)
        g = eigenvector_placement(*eigendecompose(norm_laplacian(adj)), region)
        assert g[:, 0].min() == pytest.approx(2.0) and g[:, 0].max() == pytest.approx(12.0)
        assert g[:, 1].min() == pytest.approx(3.0) and g[:, 1].max() == pytest.approx(9.0)

    def test_constant_axis_goes_to_region_middle(self):
        u = np.eye(4)
        u[:, 1] = 0.5  # the x column holds one value; the run's warning filter makes any division warning fail
        g = eigenvector_placement(np.array([0.0, 0.5, 1.0, 1.5]), u, Region(0.0, 0.0, 10.0, 4.0))
        np.testing.assert_array_equal(g, [[5.0, 0.0], [5.0, 0.0], [5.0, 4.0], [5.0, 0.0]])

    def test_disconnected_graph_warns(self):
        # three disjoint edges = three components
        adj = from_coo(6, [0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], np.ones(6))
        lambdas, u = eigendecompose(norm_laplacian(adj))
        with pytest.warns(DegenerateSpectrumWarning):
            eigenvector_placement(lambdas, u)

    def test_too_small(self):
        lambdas, u = eigendecompose(norm_laplacian(path_graph(2)))
        with pytest.raises(ValueError):
            eigenvector_placement(lambdas, u)


class TestFilterResponse:
    def test_endpoints(self):
        h = filter_response(3, np.array([0.0, 1.0]))
        assert h.dtype == np.float64
        np.testing.assert_array_equal(h, [1.0, 0.0])

    def test_halfway(self):
        assert filter_response(2, np.array([0.5]))[0] == pytest.approx(0.25)

    @pytest.mark.parametrize("k", [0, -1])
    def test_power_below_one_rejected(self, k):
        with pytest.raises(ValueError, match="power k"):
            filter_response(k, np.array([0.5]))

    def test_power_ordering_on_unit_interval(self, graph_rng):
        adj = random_connected_graph(40, graph_rng)
        lambdas, _ = eigendecompose(identity_minus(normalized_augmented_adjacency(adj, 4.0)))
        lams = lambdas[(lambdas >= 0.0) & (lambdas <= 1.0)]
        h1, h2, h4 = (filter_response(k, lams) for k in (1, 2, 4))
        assert np.all(h4 <= h2 + 1e-12)
        assert np.all(h2 <= h1 + 1e-12)


class TestTaylorGap:
    def test_zero_at_origin(self):
        assert taylor_gap(0.0) == 0.0

    def test_value_at_one(self):
        assert taylor_gap(1.0) == pytest.approx(0.5)

    def test_closed_form(self):
        for lam in np.linspace(0.0, 2.0, 21):
            assert taylor_gap(float(lam)) == pytest.approx(lam * lam / (1.0 + lam), abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            taylor_gap(-0.1)


class TestRayleighSpectralIdentities:
    def test_eigenvector_gives_eigenvalue(self, graph_rng):
        adj = random_connected_graph(35, graph_rng)
        lt = norm_laplacian(adj)
        lambdas, u = eigendecompose(lt)
        for i in (0, 1, 17, 34):
            r = rayleigh_smoothness(lt, u[:, i], center=False)
            assert abs(r - lambdas[i]) <= 1e-8

    def test_lower_mode_is_smoother(self, graph_rng):
        adj = random_connected_graph(35, graph_rng)
        lt = norm_laplacian(adj)
        _, u = eigendecompose(lt)
        values = [rayleigh_smoothness(lt, u[:, i], center=False) for i in range(35)]
        assert np.all(np.diff(values) >= -1e-8)
