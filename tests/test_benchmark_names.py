"""The package names that the benchmark's tracer wraps and its output check reads.

``benchmark/tracer.py`` reports a wrapped name that no longer exists as absent
rather than failing, so a rename would only show in the traced benchmark runs.
This test catches it among the unit tests. The benchmark change that moves
``benchmark/`` off the legacy views and the deletion of those views
(``Design.nets``, ``pin_table``, ``fixed_mask``, B's CSR triple; ROADMAP items
1 and 2) update the names checked here.
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmark"))

import tracer  # noqa: E402

import giftplace.cli  # noqa: E402,F401  (loads every module the tracer looks names up in)
from giftplace import Design, PlacerTrace, SparseSymMatrix, build_clique_graph, generate  # noqa: E402


def test_every_traced_name_resolves():
    t = tracer.Tracer()
    for module_name, path, name in (*tracer.SPANS, tracer.SPMV):
        t._resolve(module_name, path, name)
    assert t.absent == []


def test_attributes_the_benchmark_reads_exist():
    for attr in ("fixed_mask", "pin_table", "nets"):
        assert hasattr(Design, attr), attr
    assert hasattr(PlacerTrace, "iterations")
    design = generate(cells=20, seed=1)
    net = design.nets[0]
    assert isinstance(net.pins[0].cell, int)
    assert design.fixed_mask() is design.fixed
    assert len(design.pin_table()) == 4
    adj = build_clique_graph(design)
    assert isinstance(adj, SparseSymMatrix)
    for attr in ("values", "indices", "indptr"):
        assert isinstance(getattr(adj, attr), np.ndarray), attr
    assert adj.nnz > 0
