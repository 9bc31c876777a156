"""End-to-end acceptance checks for the filter, spectral identities, and placer.

Each test measures one property at a stated tolerance and prints a PASS/FAIL
verdict line with the measured values on the real stdout, so the verdicts are
visible in the terminal regardless of pytest's capture settings. Heavyweight
artifacts (the random-graph corpus, the paired 5k-cell placer runs) are
module-scoped fixtures shared across the tests that need them.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from giftplace import (
    GiftConfig,
    GridConfig,
    PlacerConfig,
    build_clique_graph,
    eigendecompose,
    eigenvector_placement,
    electrostatic_grad,
    filter_response,
    generate,
    gift_filter,
    gift_place,
    hpwl,
    identity_minus,
    initial_signal,
    laplacian,
    normalized_augmented_adjacency,
    quadratic_wirelength,
    rayleigh_smoothness,
    run_placer,
    smooth_wirelength_grad,
    taylor_gap,
)
from giftplace.cli import main as cli_main

import conftest
from conftest import random_connected_graph


def verdict(name: str, ok: bool, detail: str) -> None:
    """Record one human-readable verdict line per criterion, then assert."""
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    conftest.VERDICTS.append(line)
    print(line, flush=True)
    assert ok, line


# ---------------------------------------------------------------------------
# shared corpora


@pytest.fixture(scope="module")
def corpus():
    """50 random connected weighted graphs with 10..200 nodes."""
    rng = np.random.default_rng(812)
    sizes = rng.integers(10, 201, size=50)
    return [random_connected_graph(int(n), rng) for n in sizes]


@pytest.fixture(scope="module")
def corpus_spectra(corpus):
    """Eigensystem of I - A_0 for every corpus graph."""
    out = []
    for adj in corpus:
        op = identity_minus(normalized_augmented_adjacency(adj, 0.0))
        out.append((adj, op, *eigendecompose(op)))
    return out


@pytest.fixture(scope="module")
def paired_runs():
    """Ten 5k-cell designs, each placed twice with one shared config:

    once from the filtered initialization and once from the all-cells-at-center
    initialization every comparison placer defaults to.
    """
    results = []
    for seed in range(10):
        design = generate(cells=5000, seed=seed)
        adj = build_clique_graph(design)
        g_gift = gift_place(design, adj, GiftConfig(seed=seed))
        movable = ~design.fixed
        g_center = np.array(design.fixed_xy)
        g_center[movable] = [design.region.center[0], design.region.center[1]]
        config = PlacerConfig(stop_overflow=0.15, seed=seed)
        g_gift_final, gift_trace = run_placer(design, g_gift, config)
        g_center_final, center_trace = run_placer(design, g_center, config)
        results.append((design, g_gift_final, gift_trace, g_center_final, center_trace))
    return results


# ---------------------------------------------------------------------------
# 1-6: spectral properties of the filter operators


def test_filter_operator_matches_spectral_reconstruction(corpus):
    t0 = time.perf_counter()
    worst = 0.0
    for adj in corpus:
        op = normalized_augmented_adjacency(adj, 0.0)
        lambdas, u = eigendecompose(identity_minus(op))
        recon = (u * (1.0 - lambdas)) @ u.T
        worst = max(worst, float(np.max(np.abs(op.to_dense() - recon))))
    seconds = time.perf_counter() - t0
    verdict(
        "spectral reconstruction",
        worst <= 1e-8 and seconds < 10.0,
        f"max |A_0 - U diag(1-lambda) U^T| = {worst:.3g} (tol 1e-8), "
        f"{seconds:.2f}s over {len(corpus)} graphs (limit 10s)",
    )


def test_operator_spectrum_within_expected_range(corpus_spectra):
    lo = min(float(lambdas[0]) for _, _, lambdas, _ in corpus_spectra)
    hi = max(float(lambdas[-1]) for _, _, lambdas, _ in corpus_spectra)
    verdict(
        "spectrum range",
        lo >= -1e-9 and hi <= 2.0 + 1e-9,
        f"eigenvalues of I - A_0 span [{lo:.3g}, {hi:.6g}] (required within [-1e-9, 2+1e-9])",
    )


def test_rayleigh_quotient_recovers_eigenvalues(corpus_spectra):
    worst = 0.0
    for _, op, lambdas, u in corpus_spectra:
        for i in range(lambdas.size):
            r = rayleigh_smoothness(op, u[:, i], center=False)
            worst = max(worst, abs(r - float(lambdas[i])))
    verdict(
        "rayleigh identity",
        worst <= 1e-8,
        f"max |R(u_i) - lambda_i| = {worst:.3g} over all eigenvectors (tol 1e-8)",
    )


def test_self_loops_shrink_spectral_radius(corpus):
    sigmas = (0.0, 1.0, 2.0, 3.0)
    nonincreasing = 0
    strict = 0
    for adj in corpus:
        lam_max = [
            float(eigendecompose(identity_minus(normalized_augmented_adjacency(adj, s)))[0][-1])
            for s in sigmas
        ]
        if all(b <= a + 1e-10 for a, b in zip(lam_max, lam_max[1:])):
            nonincreasing += 1
        if all(b < a - 1e-12 for a, b in zip(lam_max, lam_max[1:])):
            strict += 1
    verdict(
        "self-loop shrinkage",
        nonincreasing == len(corpus) and strict >= 0.9 * len(corpus),
        f"lambda_max nonincreasing over sigma=0..3 on {nonincreasing}/{len(corpus)} graphs "
        f"(need all), strictly decreasing on {strict} (need >= {int(np.ceil(0.9 * len(corpus)))})",
    )


def test_higher_filter_powers_attenuate_more(corpus_spectra):
    checked = 0
    ok = True
    for adj, *_ in corpus_spectra:
        for sigma in (2.0, 4.0):
            lams, _ = eigendecompose(identity_minus(normalized_augmented_adjacency(adj, sigma)))
            lams = lams[(lams >= 0.0) & (lams <= 1.0)]
            h1, h2, h4 = (filter_response(k, lams) for k in (1, 2, 4))
            ok = ok and bool(np.all(h4 <= h2) and np.all(h2 <= h1))
            checked += lams.size
    verdict(
        "power attenuation",
        ok,
        f"(1-l)^4 <= (1-l)^2 <= (1-l) held at {checked} eigenvalues in [0,1]",
    )


def test_inverse_linearization_gap_bounded():
    lams = np.linspace(0.0, 2.0, 1000)
    gaps = np.array([taylor_gap(l) for l in lams])
    margin = float(np.max(gaps - lams**2))
    verdict(
        "linearization gap",
        margin <= 0.0,
        f"|1/(1+l) - (1-l)| - l^2 <= {margin:.3g} on 1000 samples in [0,2] (required <= 0)",
    )


# ---------------------------------------------------------------------------
# 7-8: placer gradients and filter smoothing


def test_placer_gradients_match_finite_differences():
    # the density check is on the electrostatic force the placer descends
    grid = GridConfig(nx=5, ny=5)
    worst_wl = 0.0
    worst_es = 0.0
    for seed in range(10):
        design = generate(cells=20, seed=100 + seed)
        rng = np.random.default_rng(900 + seed)
        region = design.region
        g = np.column_stack([
            rng.uniform(region.xmin + 1.0, region.xmax - 1.0, design.num_cells),
            rng.uniform(region.ymin + 1.0, region.ymax - 1.0, design.num_cells),
        ])
        fixed = design.fixed
        g[fixed] = design.fixed_xy[fixed]
        movable = np.flatnonzero(~fixed)

        _, wl_grad = smooth_wirelength_grad(design, g, 1.0)
        _, es_grad, _ = electrostatic_grad(design, g, grid)
        for i in movable:
            for axis in (0, 1):
                for fun, h, grad, track in (
                    (lambda gg: smooth_wirelength_grad(design, gg, 1.0)[0], 1e-6, wl_grad, "wl"),
                    (lambda gg: electrostatic_grad(design, gg, grid)[0], 1e-6, es_grad, "es"),
                ):
                    gp_ = g.copy()
                    gp_[i, axis] += h
                    gm = g.copy()
                    gm[i, axis] -= h
                    fd = (fun(gp_) - fun(gm)) / (2.0 * h)
                    err = abs(grad[i, axis] - fd)
                    if track == "wl":
                        worst_wl = max(worst_wl, err)
                    else:
                        worst_es = max(worst_es, err)
    verdict(
        "gradient checks",
        worst_wl <= 1e-5 and worst_es <= 1e-4,
        f"max FD error: wirelength {worst_wl:.3g} (tol 1e-5), "
        f"electrostatic {worst_es:.3g} (tol 1e-4), 10 random 20-cell designs",
    )


def test_filtering_reduces_smoothness_and_rayleigh():
    sizes = [100] * 7 + [1000] * 7 + [5000] * 6
    s_wins = 0
    r_wins = 0
    trials = 0
    for design_idx, cells in enumerate(sizes):
        design = generate(cells=cells, seed=design_idx)
        adj = build_clique_graph(design)
        lap = laplacian(adj)
        for seed in range(20):
            config = GiftConfig(seed=seed)
            cloud = initial_signal(design, config)
            filtered = gift_place(design, adj, config)
            if quadratic_wirelength(adj, filtered) < quadratic_wirelength(adj, cloud):
                s_wins += 1
            r_before = np.mean([
                rayleigh_smoothness(lap, cloud[:, axis]) for axis in (0, 1)
            ])
            r_after = np.mean([
                rayleigh_smoothness(lap, filtered[:, axis]) for axis in (0, 1)
            ])
            if r_after < r_before:
                r_wins += 1
            trials += 1
    need = int(np.ceil(0.95 * trials))
    verdict(
        "smoothness reduction",
        s_wins >= need and r_wins >= need,
        f"S dropped in {s_wins}/{trials} trials, centered R dropped in {r_wins}/{trials} "
        f"(need >= {need}); 20 designs x 20 seeds",
    )


# ---------------------------------------------------------------------------
# 9-10: paired placer runs at 5k cells


def test_filtered_start_reaches_density_target_in_fewer_iterations(paired_runs):
    ratios = []
    wins = 0
    for design, _, gift_trace, _, center_trace in paired_runs:
        assert gift_trace.converged and center_trace.converged
        r = gift_trace.iterations / center_trace.iterations
        ratios.append(r)
        if r <= 0.85:
            wins += 1
    verdict(
        "iteration reduction",
        wins >= 8,
        f"filtered start took <= 0.85x center's iterations on {wins}/10 designs "
        f"(need >= 8); ratios {', '.join(f'{r:.2f}' for r in ratios)}",
    )


def test_filtered_start_matches_final_wirelength(paired_runs):
    ratios = []
    for design, g_gift_final, _, g_center_final, _ in paired_runs:
        ratios.append(hpwl(design, g_gift_final) / hpwl(design, g_center_final))
    mean = float(np.mean(ratios))
    verdict(
        "wirelength parity",
        0.95 <= mean <= 1.05,
        f"corpus mean final-HPWL ratio {mean:.4f} (required within [0.95, 1.05]); "
        f"per-design {', '.join(f'{r:.3f}' for r in ratios)}",
    )


# ---------------------------------------------------------------------------
# 11-12: cost comparisons


def test_filter_pipeline_cheaper_than_dense_eigenbasis():
    design = generate(cells=2000, io_count=0, seed=0)

    t0 = time.perf_counter()
    adj = build_clique_graph(design)
    gift_place(design, adj, GiftConfig(seed=0))
    pipeline_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    lambdas, u = eigendecompose(identity_minus(normalized_augmented_adjacency(adj, 0.0)))
    eigenvector_placement(lambdas, u, design.region)
    eigen_seconds = time.perf_counter() - t0

    verdict(
        "pipeline vs eigenbasis",
        pipeline_seconds < eigen_seconds,
        f"graph+filter {pipeline_seconds:.3f}s vs dense eigenbasis placement "
        f"{eigen_seconds:.3f}s at n=2000",
    )


def distinct_cell_pairs(design) -> int:
    """Cell pairs sharing a net of 2 or more pins: the clique graph's edges, which its operator never stores."""
    degree = np.diff(design.net_start)
    keys = []
    for m in np.unique(degree[degree >= 2]):
        starts = design.net_start[:-1][degree == m]
        cells = design.pin_cell[starts[:, None] + np.arange(m)]
        iu, ju = np.triu_indices(m, k=1)
        a, b = cells[:, iu].ravel(), cells[:, ju].ravel()
        keep = a != b
        keys.append(np.minimum(a, b)[keep].astype(np.int64) * design.num_cells + np.maximum(a, b)[keep])
    return int(np.unique(np.concatenate(keys)).size) if keys else 0


def test_filter_cost_scales_linearly_with_edges():
    base = generate(cells=5000, seed=0)
    dense = generate(
        cells=5000, seed=0, fanout={5: 0.5, 8: 0.5}, long_range_fraction=0.2
    )
    adj_base = build_clique_graph(base)
    adj_dense = build_clique_graph(dense)
    e1 = distinct_cell_pairs(base)
    e2 = distinct_cell_pairs(dense)

    def median_filter_seconds(design, adj):
        g = initial_signal(design, GiftConfig(seed=0))
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            gift_filter(adj, g)
            times.append(time.perf_counter() - t0)
        return float(np.median(times))

    t_base = median_filter_seconds(base, adj_base)
    t_dense = median_filter_seconds(dense, adj_dense)
    ratio = t_dense / t_base
    verdict(
        "edge scaling",
        e2 >= 2 * e1 and ratio <= 3.0,
        f"edges {e1} -> {e2} ({e2 / e1:.2f}x), median filter time "
        f"{t_base * 1e3:.1f}ms -> {t_dense * 1e3:.1f}ms ({ratio:.2f}x, limit 3x)",
    )


# ---------------------------------------------------------------------------
# 13: manifest replay determinism


def test_manifest_replay_reproduces_outputs(tmp_path, capsys):
    comparisons = []

    def replay_and_compare(manifest_path, replay_dir, filenames):
        code = cli_main(
            ["report", str(manifest_path), "--replay", "--out-dir", str(replay_dir)]
        )
        assert code == 0
        for name in filenames:
            original = next(p for p in tmp_path.rglob(name) if replay_dir not in p.parents)
            identical = original.read_bytes() == (replay_dir / name).read_bytes()
            comparisons.append((name, identical))

    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    assert cli_main([
        "benchgen", "--cells", "150", "--seed", "4", "--out-dir", str(bench_dir),
    ]) == 0
    aux = str(bench_dir / "synth.aux")
    replay_and_compare(bench_dir / "synth.manifest.json", tmp_path / "r_bench", ["synth.pl"])

    gift_pl = tmp_path / "g.pl"
    assert cli_main(["gift", aux, "--seed", "4", "--out", str(gift_pl)]) == 0
    replay_and_compare(tmp_path / "g.pl.manifest.json", tmp_path / "r_gift", ["g.pl"])

    place_pl = tmp_path / "p.pl"
    assert cli_main([
        "place", aux, "--init", "gift", "--seed", "4", "--out", str(place_pl),
        "--max-iters", "40",
    ]) == 0
    replay_and_compare(
        tmp_path / "p.pl.manifest.json", tmp_path / "r_place", ["p.pl", "p.pl.trace.csv"]
    )

    spec_dir = tmp_path / "spec_out"
    assert cli_main(["spectrum", aux, "--out-dir", str(spec_dir)]) == 0
    spectrum_csvs = sorted(p.name for p in spec_dir.glob("*.csv"))
    assert spectrum_csvs
    replay_and_compare(spec_dir / "spectrum.manifest.json", tmp_path / "r_spec", spectrum_csvs)

    capsys.readouterr()  # swallow the JSON summaries the commands print
    bad = [name for name, identical in comparisons if not identical]
    verdict(
        "replay determinism",
        not bad,
        f"{len(comparisons)} replayed .pl/.csv outputs byte-identical"
        + (f"; mismatches: {', '.join(bad)}" if bad else ""),
    )
