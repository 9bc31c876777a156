"""Tests of the benchmark itself: exact counts, self time, absent layers.

Run from the repository root::

    python3 -m pytest -q benchmark/test_benchmark.py
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import tracer  # noqa: E402

# the counts that must repeat exactly between two runs of the same inputs
EXACT = (
    "netlist.cells", "netlist.nets", "netlist.pins", "netlist.input_bytes",
    "graph.clique_pairs", "graph.nnz", "graph.normalized_augmented_adjacency.calls",
    "gift.spmv", "gift.spmv_bytes", "placer.iterations",
    "placer.smooth_wirelength_grad.calls", "metrics.hpwl.calls",
)
SMALL_CELLS = 2000


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_counts_repeat_exactly_across_traced_runs(workload, tmp_path):
    design, aux, _ = run.prepare(workload, 3, str(tmp_path / "design"), cells=SMALL_CELLS)
    check = run.OutputCheck(workload, 3, design, aux)
    cli_args = [*run.WORKLOADS[workload]["cli"], aux, "--seed", "3"]
    seen = []
    for i in range(2):
        spans = str(tmp_path / f"spans{i}.json")
        sample = run.run_child([sys.executable, os.path.join(HERE, "tracer.py"), spans, *cli_args],
                               str(tmp_path / f"traced{i}"))
        assert check(sample) == []
        with open(spans) as f:
            doc = json.load(f)
        assert doc["absent"] == []
        values = run.per_layer_values(doc, sample["wall_s"], [dict(sample, calib_s=0.0)])
        seen.append({name: values.get(name) for name in EXACT})
    assert seen[0] == seen[1]
    assert seen[0]["netlist.pins"] > 0
    if "gift" in run.WORKLOADS[workload]["cli"]:
        assert seen[0]["gift.spmv"] == 6
        assert seen[0]["graph.nnz"] > 0
    if run.WORKLOADS[workload]["cli"][0] == "place":
        assert seen[0]["placer.iterations"] > 0
        assert seen[0]["metrics.hpwl.calls"] == seen[0]["placer.iterations"] + 1
    assert check.hpwl > 0  # out_hpwl of both runs: their .pl files hash the same


def test_clique_pairs_matches_per_net_expansion():
    from giftplace import generate

    design = generate(cells=300, fanout=run.WIDE_FANOUT, seed=5)
    expected = 0
    for net in design.nets:
        cells = [p.cell for p in net.pins]
        expected += sum(1 for i in range(len(cells)) for j in range(i + 1, len(cells)) if cells[i] != cells[j])
    net_start, pin_cell, _, _ = design.pin_table()
    assert tracer.clique_pairs(net_start, pin_cell, design.num_cells) == expected
    # a net naming one cell twice loses that pair
    assert tracer.clique_pairs(np.array([0, 3]), np.array([4, 4, 7]), 8) == 2


def test_self_time_subtracts_the_time_children_cover():
    spans = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 3.0, 0],
        ["a", 2.0, 5.0, 0],   # overlaps the first child: counted once
        ["b", 7.0, 8.0, 0],
        ["c", 7.5, 7.8, 3],
    ]
    stats = run.layer_stats(spans)
    assert stats["root"]["self_s"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert stats["a"] == {"s": pytest.approx(5.0), "self_s": pytest.approx(5.0), "calls": 2}
    assert stats["b"]["self_s"] == pytest.approx(0.7)


def test_missing_names_are_reported_absent():
    import giftplace.cli  # noqa: F401  (the tracer wraps names in loaded modules)

    t = tracer.Tracer()
    t.wrap_span("giftplace.cli", "no_such_function", "cli.gone")
    t.wrap_span("giftplace.no_such_module", "parse_design", "netlist.moved")
    t.wrap_span("giftplace.netlist", "Design.no_such_method", "netlist.Design.gone")
    assert t.absent == ["cli.gone", "netlist.moved", "netlist.Design.gone"]
    values = run.per_layer_values({"spans": [], "counts": {}}, 1.0, [{"wall_s": 1.0, "cpu_s": 1.0, "calib_s": 0.1}])
    assert values["graph.build_clique_graph.s"] == 0.0
    assert values["placer.s_per_iter"] == 0.0
