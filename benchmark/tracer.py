"""Run the giftplace CLI with spans recorded at its layer boundaries.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``)::

    python3 benchmark/tracer.py SPANS.json gift design.aux --seed 1

The tracer wraps the public functions under the names through which
``giftplace.cli``, ``giftplace.gift`` and ``giftplace.placer`` call them,
then calls ``giftplace.cli.main`` with the remaining arguments. Spans
(name, start, end, parent index) stay in memory and are written to
SPANS.json at exit, together with the counts taken at the same boundaries
and the list of wrapped names that no longer exist in the package.

A missing name is reported as absent, never as an error, so the tracer keeps
working while the package's internal boundaries move.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

import numpy as np

# (module, attribute path, span name): every boundary the tracer wraps. The
# module is the one whose namespace the caller looks the name up in.
SPANS = (
    ("giftplace.cli", "parse_design", "netlist.parse_design"),
    ("giftplace.netlist", "Design.pin_table", "netlist.Design.pin_table"),
    ("giftplace.cli", "build_clique_graph", "graph.build_clique_graph"),
    ("giftplace.cli", "gift_place", "gift.gift_place"),
    ("giftplace.gift", "initial_signal", "gift.initial_signal"),
    ("giftplace.gift", "gift_filter", "gift.gift_filter"),
    ("giftplace.gift", "normalized_augmented_adjacency", "graph.normalized_augmented_adjacency"),
    ("giftplace.cli", "run_placer", "placer.run_placer"),
    ("giftplace.placer", "balanced_lambda0", "placer.balanced_lambda0"),
    ("giftplace.placer", "initial_signal", "gift.initial_signal"),
    ("giftplace.placer", "smooth_wirelength_grad", "placer.smooth_wirelength_grad"),
    ("giftplace.placer", "electrostatic_grad", "placer.electrostatic_grad"),
    ("giftplace.placer", "density_map", "metrics.density_map"),
    ("giftplace.placer", "hpwl", "metrics.hpwl"),
    ("giftplace.placer", "overflow", "metrics.overflow"),
    ("giftplace.cli", "write_placement", "netlist.write_placement"),
)
# counted, not timed: a span per product would split gift_filter's own time
SPMV = ("giftplace.graph", "SparseSymMatrix.matmul", "gift.spmv")


class Tracer:
    """In-memory spans, counters and captured call results of one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []     # [name, start, end, parent index or None]
        self.stack: list[int] = []
        self.enabled = True
        self.absent: list[str] = []
        self.counts: dict[str, float] = {}
        self.captured: dict[str, tuple] = {}  # span name -> (args, result) of its last call

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = perf_counter()

    def _resolve(self, module_name: str, path: str, name: str):
        owner = sys.modules.get(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part, None)
        if owner is None or not callable(getattr(owner, attr, None)):
            if name not in self.absent:
                self.absent.append(name)
            return None, attr
        return owner, attr

    def wrap_span(self, module_name: str, path: str, name: str) -> None:
        owner, attr = self._resolve(module_name, path, name)
        if owner is None:
            return
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.captured[name] = (args, result)
            return result

        setattr(owner, attr, traced)

    def wrap_spmv(self, module_name: str, path: str, name: str) -> None:
        owner, attr = self._resolve(module_name, path, name)
        if owner is None:
            return
        fn = getattr(owner, attr)
        self.counts.setdefault(name, 0)
        self.counts.setdefault(name + "_bytes", 0)

        @functools.wraps(fn)
        def counted(op, g, *args, **kwargs):
            out = fn(op, g, *args, **kwargs)
            if self.enabled:
                # computed traffic: the CSR arrays plus the signal read and written
                moved = op.values.nbytes + op.indices.nbytes + op.indptr.nbytes
                self.counts[name] += 1
                self.counts[name + "_bytes"] += moved + np.asarray(g).nbytes + out.nbytes
            return out

        setattr(owner, attr, counted)

    def install(self) -> None:
        for module_name, path, name in SPANS:
            self.wrap_span(module_name, path, name)
        self.wrap_spmv(*SPMV)

    def record_counts(self) -> None:
        """Counts derived from the objects captured at the boundaries.

        Runs with tracing off, after the CLI returned, so the work it does
        lands in no span.
        """
        self.enabled = False
        parsed = self.captured.get("netlist.parse_design")
        if parsed is not None:
            (aux, *_), design = parsed
            from giftplace.netlist import aux_files

            files = [aux, *aux_files(aux).values()]
            self.counts["netlist.input_bytes"] = sum(os.path.getsize(f) for f in files)
            net_start, pin_cell, _, _ = design.pin_table()
            self.counts["netlist.cells"] = design.num_cells
            self.counts["netlist.nets"] = len(net_start) - 1
            self.counts["netlist.pins"] = int(pin_cell.size)
        built = self.captured.get("graph.build_clique_graph")
        if built is not None:
            (design, *_), adj = built
            net_start, pin_cell, _, _ = design.pin_table()
            self.counts["graph.clique_pairs"] = clique_pairs(net_start, pin_cell, design.num_cells)
            self.counts["graph.nnz"] = int(adj.nnz)
        placed = self.captured.get("placer.run_placer")
        if placed is not None:
            self.counts["placer.iterations"] = int(placed[1][1].iterations)

    def dump(self, path: str, exit_code: int) -> None:
        doc = {
            "spans": self.spans,
            "counts": self.counts,
            "absent": self.absent,
            "exit_code": exit_code,
        }
        with open(path, "w") as f:
            json.dump(doc, f)


def clique_pairs(net_start: np.ndarray, pin_cell: np.ndarray, num_cells: int) -> int:
    """Pin pairs on distinct cells over all nets: the clique model's edge triplets.

    Per net, m*(m-1)/2 pairs minus k*(k-1)/2 for each cell appearing k times.
    Assumes no ``--max-clique-pins`` cap, which the benchmark never sets.
    """
    degrees = np.diff(net_start).astype(np.int64)
    net_of_pin = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    _, k = np.unique(net_of_pin * num_cells + pin_cell, return_counts=True)
    return int((degrees * (degrees - 1) // 2).sum() - (k * (k - 1) // 2).sum())


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json <giftplace arguments>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    index = tracer.open("cli.import")
    import giftplace.cli

    tracer.close(index)
    tracer.install()
    index = tracer.open("cli.main")
    try:
        code = giftplace.cli.main(cli_args)
    finally:
        tracer.close(index)
    tracer.record_counts()
    tracer.dump(spans_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
