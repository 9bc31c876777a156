"""Command-line front end.

Subcommands: gift, place, spectrum, metrics, benchgen, report. Every command
writes a JSON run manifest holding the fully resolved options, so
``giftplace report <manifest> --replay --out-dir D`` reproduces the run's
outputs byte-for-byte (volatile wall-clock data lives only in the manifest).

Exit codes: 0 ok, 1 input/parse error, 2 computation/guard error (and any
other GiftPlaceError, such as a design that fails validation), 3 output IO
error, 4 placer divergence.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .benchgen import generate
from .errors import (
    CutoffOutOfRangeError,
    DanglingPinError,
    DimensionMismatchError,
    DivergenceError,
    DuplicateCellError,
    GiftPlaceError,
    IsolatedNodeError,
    MalformedLineError,
    MissingFileError,
    NonSymmetricError,
    TooLargeForDenseError,
    ZeroSignalError,
)
from .gift import GiftConfig, gift_place
from .graph import (
    FilterTerm,
    build_clique_graph,
    identity_minus,
    laplacian,
    normalized_augmented_adjacency,
)
from .metrics import GridConfig, report as metrics_report
from .netlist import aux_files, parse_design, read_placement, write_design, write_placement
from .placer import PlacerConfig, run_placer
from .spectral import eigendecompose, eigenvector_placement, filter_response

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4

PARSE_ERRORS = (MissingFileError, MalformedLineError, DuplicateCellError, DanglingPinError)
COMPUTE_ERRORS = (
    IsolatedNodeError,
    TooLargeForDenseError,
    NonSymmetricError,
    DimensionMismatchError,
    CutoffOutOfRangeError,
    ZeroSignalError,
)

DEFAULTS: dict[str, dict] = {
    "gift": {
        "seed": 0, "out": None, "manifest": None, "terms": None,
        "jitter": None, "max_clique_pins": None,
    },
    "place": {
        "seed": 0, "out": None, "trace": None, "manifest": None, "init": "center",
        "gamma": None, "lambda0": None, "lambda_growth": 1.03, "step": None,
        "max_iters": 1000, "stop_overflow": 0.15, "bins": None, "rho_t": 1.0,
        "terms": None, "jitter": None, "max_clique_pins": None,
    },
    "spectrum": {
        "seed": 0, "sigma": "0,1,2,3", "k": "1,2,4", "out_dir": ".",
        "manifest": None, "max_clique_pins": None,
    },
    "metrics": {
        "seed": 0, "pl": None, "out": None, "manifest": None,
        "bins": None, "rho_t": 1.0, "max_clique_pins": None,
    },
    "benchgen": {
        "seed": 0, "cells": 100, "rows": None, "cols": None, "fanout": None,
        "io": None, "long_range_fraction": 0.15, "utilization": 0.70,
        "out_dir": ".", "name": "synth", "manifest": None,
    },
}

_INT_KEYS = {"seed", "max_iters", "cells", "rows", "cols", "io", "max_clique_pins"}
_FLOAT_KEYS = {
    "jitter", "gamma", "lambda0", "lambda_growth", "step", "stop_overflow",
    "rho_t", "long_range_fraction", "utilization",
}

# option keys holding output paths, re-rooted on replay
OUTPUT_KEYS: dict[str, tuple[str, ...]] = {
    "gift": ("out", "manifest"),
    "place": ("out", "trace", "manifest"),
    "spectrum": ("out_dir", "manifest"),
    "metrics": ("out", "manifest"),
    "benchgen": ("out_dir", "manifest"),
}


def _diag(message: str) -> None:
    use_color = sys.stderr.isatty() and not os.environ.get("NO_COLOR")
    prefix = "\x1b[31merror:\x1b[0m" if use_color else "error:"
    print(f"giftplace: {prefix} {message}", file=sys.stderr)


def _parse_terms(spec: str | None) -> tuple[FilterTerm, ...] | None:
    """'sigma:k:alpha,...' -> FilterTerm tuple; None passes through."""
    if spec is None:
        return None
    terms = []
    for part in spec.split(","):
        fields = part.split(":")
        if len(fields) != 3:
            raise ValueError(f"bad filter term {part!r}, expected sigma:k:alpha")
        terms.append(FilterTerm(sigma=float(fields[0]), k=int(fields[1]), alpha=float(fields[2])))
    return tuple(terms)


def _parse_bins(spec: str | None) -> tuple[int, int] | None:
    if spec is None:
        return None
    parts = spec.lower().split("x")
    if len(parts) == 1:
        return int(parts[0]), int(parts[0])
    if len(parts) == 2:
        return int(parts[0]), int(parts[1])
    raise ValueError(f"bad bins {spec!r}, expected N or NXxNY")


def _parse_fanout(spec: str | None) -> dict[int, float] | None:
    if spec is None:
        return None
    profile: dict[int, float] = {}
    for part in spec.split(","):
        d, w = part.split(":")
        profile[int(d)] = float(w)
    return profile


def _grid_config(opts: dict) -> GridConfig | None:
    bins = _parse_bins(opts.get("bins"))
    rho_t = opts.get("rho_t", 1.0)
    if bins is None and rho_t == 1.0:
        return None
    if bins is None:
        return GridConfig(rho_t=rho_t)
    return GridConfig(nx=bins[0], ny=bins[1], rho_t=rho_t)


def _json_safe(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _write_manifest(path: str, command: str, opts: dict, outputs: dict, timings: list) -> None:
    doc = {
        "tool": "giftplace",
        "version": __version__,
        "command": command,
        "options": _json_safe(opts),
        "outputs": _json_safe(outputs),
        "timings": [{"phase": p, "seconds": s} for p, s in timings],
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _center_init(design) -> np.ndarray:
    g = np.tile(design.region.center, (design.num_cells, 1))
    g[design.fixed] = design.fixed_xy[design.fixed]
    return g


# ---------------------------------------------------------------------------
# command handlers (each takes the fully resolved options dict)


def run_gift(opts: dict) -> int:
    design, t_parse = _timed(parse_design, opts["aux"])
    adj, t_graph = _timed(build_clique_graph, design, opts.get("max_clique_pins"))
    config = GiftConfig(
        terms=_parse_terms(opts.get("terms")) or GiftConfig().terms,
        seed=opts["seed"],
        jitter_scale=opts["jitter"],
    )
    placement, tm = gift_place(design, adj, config)

    out = opts["out"] or os.path.splitext(opts["aux"])[0] + ".gift.pl"
    manifest = opts["manifest"] or out + ".manifest.json"
    opts.update(out=out, manifest=manifest)
    write_placement(design, placement, out)
    timings = [("parse", t_parse), ("graph", t_graph), ("filter", tm["filter"])]
    _write_manifest(manifest, "gift", opts, {"pl": out}, timings)
    print(json.dumps({"out": out, "timings": [{"phase": p, "seconds": s} for p, s in timings]}))
    return EXIT_OK


def run_place(opts: dict) -> int:
    design, t_parse = _timed(parse_design, opts["aux"])
    timings = [("parse", t_parse)]

    init = opts["init"]
    if init == "center":
        g0 = _center_init(design)
    elif init == "gift":
        adj, t_graph = _timed(build_clique_graph, design, opts.get("max_clique_pins"))
        timings.append(("graph", t_graph))
        config = GiftConfig(
            terms=_parse_terms(opts.get("terms")) or GiftConfig().terms,
            seed=opts["seed"],
            jitter_scale=opts["jitter"],
        )
        g0, tm = gift_place(design, adj, config)
        timings.append(("filter", tm["filter"]))
    elif init == "eigen":
        adj, t_graph = _timed(build_clique_graph, design, opts.get("max_clique_pins"))
        timings.append(("graph", t_graph))
        basis = eigendecompose(identity_minus(normalized_augmented_adjacency(adj, 0.0)))
        timings.append(("eigen", basis.seconds))
        g0 = eigenvector_placement(basis, design.region)
        g0[design.fixed] = design.fixed_xy[design.fixed]
    elif init.startswith("file:"):
        g0 = read_placement(design, init[len("file:"):])
    else:
        raise ValueError(f"unknown --init {init!r} (expected center|gift|eigen|file:PATH)")

    pconfig = PlacerConfig(
        gamma=opts.get("gamma"),
        lambda0=opts["lambda0"],
        lambda_growth=opts["lambda_growth"],
        step=opts.get("step"),
        max_iters=opts["max_iters"],
        stop_overflow=opts["stop_overflow"],
        grid=_grid_config(opts),
        seed=opts["seed"],
    )
    (g_final, trace), t_place = _timed(run_placer, design, g0, pconfig)
    timings.append(("place", t_place))

    out = opts["out"] or os.path.splitext(opts["aux"])[0] + ".place.pl"
    trace_path = opts["trace"] or out + ".trace.csv"
    manifest = opts["manifest"] or out + ".manifest.json"
    opts.update(out=out, trace=trace_path, manifest=manifest)
    write_placement(design, g_final, out)
    trace.write_csv(trace_path, include_seconds=False)
    _write_manifest(manifest, "place", opts, {"pl": out, "trace": trace_path}, timings)
    last = trace.records[-1]
    print(json.dumps({
        "out": out,
        "iterations": trace.iterations,
        "converged": trace.converged,
        "hpwl": last.hpwl,
        "overflow": last.overflow,
    }))
    return EXIT_OK


def run_spectrum(opts: dict) -> int:
    design, t_parse = _timed(parse_design, opts["aux"])
    if design.num_cells == 0:
        _diag("design has no cells; nothing to analyze")
        return EXIT_INPUT
    adj, t_graph = _timed(build_clique_graph, design, opts.get("max_clique_pins"))
    sigmas = [float(s) for s in str(opts["sigma"]).split(",")]
    ks = [int(k) for k in str(opts["k"]).split(",")]

    out_dir = opts["out_dir"]
    os.makedirs(out_dir, exist_ok=True)
    manifest = opts["manifest"] or os.path.join(out_dir, "spectrum.manifest.json")
    opts.update(manifest=manifest)
    outputs: dict[str, str] = {}
    summary = {}
    t0 = time.perf_counter()
    for sigma in sigmas:
        lt = identity_minus(normalized_augmented_adjacency(adj, sigma))
        basis = eigendecompose(lt)
        counts, edges = np.histogram(basis.lambdas, bins=50, range=(0.0, 2.0))
        centers = 0.5 * (edges[:-1] + edges[1:])
        hist_path = os.path.join(out_dir, f"eig_hist_sigma{sigma:g}.csv")
        with open(hist_path, "w") as f:
            f.write("lambda,count\n")
            for c, cnt in zip(centers, counts):
                f.write(f"{c:.10g},{int(cnt)}\n")
        outputs[f"hist_sigma{sigma:g}"] = hist_path
        summary[f"lambda_max_sigma{sigma:g}"] = float(basis.lambdas[-1])
        for k in ks:
            resp = filter_response(sigma, k, basis.lambdas)
            resp_path = os.path.join(out_dir, f"response_sigma{sigma:g}_k{k}.csv")
            resp.write_csv(resp_path)
            outputs[f"response_sigma{sigma:g}_k{k}"] = resp_path
    timings = [("parse", t_parse), ("graph", t_graph), ("spectrum", time.perf_counter() - t0)]
    _write_manifest(manifest, "spectrum", opts, outputs, timings)
    print(json.dumps(summary))
    return EXIT_OK


def run_metrics(opts: dict) -> int:
    design, t_parse = _timed(parse_design, opts["aux"])
    pl_path = opts.get("pl") or aux_files(opts["aux"])[".pl"]
    g = read_placement(design, pl_path)
    adj, t_graph = _timed(build_clique_graph, design, opts.get("max_clique_pins"))
    lap = laplacian(adj)
    rep = metrics_report(design, adj, lap, g, _grid_config(opts))

    manifest = opts["manifest"] or (
        opts["out"] + ".manifest.json" if opts.get("out")
        else os.path.splitext(opts["aux"])[0] + ".metrics.manifest.json"
    )
    opts.update(manifest=manifest)
    outputs = {}
    text = json.dumps(_json_safe(rep), indent=2, sort_keys=True) + "\n"
    if opts.get("out"):
        with open(opts["out"], "w") as f:
            f.write(text)
        outputs["metrics"] = opts["out"]
    _write_manifest(manifest, "metrics", opts, outputs, [("parse", t_parse), ("graph", t_graph)])
    print(text, end="")
    return EXIT_OK


def run_benchgen(opts: dict) -> int:
    design, t_gen = _timed(
        generate,
        cells=opts["cells"],
        rows=opts.get("rows"),
        cols=opts.get("cols"),
        fanout=_parse_fanout(opts.get("fanout")),
        io_count=opts.get("io"),
        long_range_fraction=opts["long_range_fraction"],
        utilization=opts["utilization"],
        seed=opts["seed"],
    )
    aux = write_design(design, opts["out_dir"], opts["name"])
    manifest = opts["manifest"] or os.path.join(opts["out_dir"], f"{opts['name']}.manifest.json")
    opts.update(manifest=manifest)
    _write_manifest(manifest, "benchgen", opts, {"aux": aux}, [("generate", t_gen)])
    print(json.dumps({"aux": aux, "cells": design.num_cells, "nets": design.num_nets}))
    return EXIT_OK


def run_report(opts: dict) -> int:
    with open(opts["manifest_path"]) as f:
        doc = json.load(f)
    if not opts.get("replay"):
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    command = doc.get("command")
    if command not in HANDLERS or command == "report":
        raise ValueError(f"manifest has unknown command {command!r}")
    out_dir = opts.get("out_dir")
    if not out_dir:
        raise ValueError("--replay requires --out-dir")
    os.makedirs(out_dir, exist_ok=True)
    new_opts = dict(doc["options"])
    for key in OUTPUT_KEYS[command]:
        if key == "out_dir":
            new_opts[key] = out_dir
        elif new_opts.get(key):
            new_opts[key] = os.path.join(out_dir, os.path.basename(new_opts[key]))
    return HANDLERS[command](new_opts)


HANDLERS = {
    "gift": run_gift,
    "place": run_place,
    "spectrum": run_spectrum,
    "metrics": run_metrics,
    "benchgen": run_benchgen,
    "report": run_report,
}


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS, help="random seed (default 0)")
    p.add_argument("--config", default=argparse.SUPPRESS, help="key=value config file; flags override")
    p.add_argument("--manifest", default=argparse.SUPPRESS, help="run manifest path")
    p.add_argument("-v", "--verbose", action="store_true", help="verbose logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="giftplace",
        description="Graph-filter placement initialization, spectral analysis, and a toy analytical placer.",
    )
    parser.add_argument("--version", action="version", version=f"giftplace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gift", help="filter a seeded placement signal and write the result")
    p.add_argument("aux", help="input .aux design")
    p.add_argument("--out", default=argparse.SUPPRESS, help="output .pl path")
    p.add_argument("--terms", default=argparse.SUPPRESS, help="filter terms sigma:k:alpha,... ")
    p.add_argument("--jitter", type=float, default=argparse.SUPPRESS, help="initial jitter scale")
    p.add_argument("--max-clique-pins", type=int, default=argparse.SUPPRESS,
                   help="skip nets with more pins than this during clique expansion")
    _add_common(p)

    p = sub.add_parser("place", help="run the toy analytical placer")
    p.add_argument("aux", help="input .aux design")
    p.add_argument("--init", default=argparse.SUPPRESS, help="center|gift|eigen|file:PATH")
    p.add_argument("--out", default=argparse.SUPPRESS, help="final .pl path")
    p.add_argument("--trace", default=argparse.SUPPRESS, help="per-iteration trace CSV path")
    p.add_argument("--gamma", type=float, default=argparse.SUPPRESS, help="wirelength smoothing")
    p.add_argument("--lambda0", type=float, default=argparse.SUPPRESS, help="initial density weight")
    p.add_argument("--lambda-growth", type=float, default=argparse.SUPPRESS)
    p.add_argument("--step", type=float, default=argparse.SUPPRESS, help="fixed step size")
    p.add_argument("--max-iters", type=int, default=argparse.SUPPRESS)
    p.add_argument("--stop-overflow", type=float, default=argparse.SUPPRESS)
    p.add_argument("--bins", default=argparse.SUPPRESS, help="density bins, N or NXxNY")
    p.add_argument("--rho-t", type=float, default=argparse.SUPPRESS, help="target density in (0,1]")
    p.add_argument("--terms", default=argparse.SUPPRESS, help="gift filter terms (init=gift)")
    p.add_argument("--jitter", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-clique-pins", type=int, default=argparse.SUPPRESS)
    _add_common(p)

    p = sub.add_parser("spectrum", help="eigenvalue histograms and filter response curves")
    p.add_argument("aux", help="input .aux design")
    p.add_argument("--sigma", default=argparse.SUPPRESS, help="comma list of self-loop weights")
    p.add_argument("--k", default=argparse.SUPPRESS, help="comma list of filter powers")
    p.add_argument("--out-dir", default=argparse.SUPPRESS, help="directory for CSV outputs")
    p.add_argument("--max-clique-pins", type=int, default=argparse.SUPPRESS)
    _add_common(p)

    p = sub.add_parser("metrics", help="report placement quality metrics as JSON")
    p.add_argument("aux", help="input .aux design")
    p.add_argument("--pl", default=argparse.SUPPRESS, help="placement to evaluate (default: the design's .pl)")
    p.add_argument("--out", default=argparse.SUPPRESS, help="also write the JSON here")
    p.add_argument("--bins", default=argparse.SUPPRESS)
    p.add_argument("--rho-t", type=float, default=argparse.SUPPRESS)
    p.add_argument("--max-clique-pins", type=int, default=argparse.SUPPRESS)
    _add_common(p)

    p = sub.add_parser("benchgen", help="generate a synthetic Bookshelf design")
    p.add_argument("--cells", type=int, default=argparse.SUPPRESS, help="movable cell count (>= 4)")
    p.add_argument("--rows", type=int, default=argparse.SUPPRESS, help="logical grid rows")
    p.add_argument("--cols", type=int, default=argparse.SUPPRESS, help="logical grid cols")
    p.add_argument("--fanout", default=argparse.SUPPRESS, help="net degree profile, e.g. 2:0.5,3:0.3,4:0.2")
    p.add_argument("--io", type=int, default=argparse.SUPPRESS, help="IO terminal count")
    p.add_argument("--long-range-fraction", type=float, default=argparse.SUPPRESS)
    p.add_argument("--utilization", type=float, default=argparse.SUPPRESS)
    p.add_argument("--out-dir", default=argparse.SUPPRESS)
    p.add_argument("--name", default=argparse.SUPPRESS, help="benchmark file stem")
    _add_common(p)

    p = sub.add_parser("report", help="summarize a run manifest, or replay it")
    p.add_argument("manifest_path", help="manifest JSON from a previous run")
    p.add_argument("--replay", action="store_true", help="re-execute the recorded run")
    p.add_argument("--out-dir", default=argparse.SUPPRESS, help="output directory for the replay")
    _add_common(p)

    return parser


def _load_config(path: str, command: str) -> dict:
    """key=value config file; '#' comments; unknown keys warn and are ignored."""
    if not os.path.isfile(path):
        raise MissingFileError(path)
    values: dict = {}
    known = DEFAULTS.get(command, {})
    with open(path) as f:
        for raw in f:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise MalformedLineError(path, 0, line, "expected key=value")
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            val = val.strip()
            if key not in known:
                log.warning("%s: unknown config key %r ignored", path, key)
                continue
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            else:
                values[key] = val
    return values


def _resolve(command: str, ns: argparse.Namespace) -> dict:
    provided = {k: v for k, v in vars(ns).items() if k not in ("command", "verbose")}
    opts = dict(DEFAULTS.get(command, {}))
    config_path = provided.pop("config", None)
    if config_path:
        opts.update(_load_config(config_path, command))
    opts.update(provided)
    return opts


def main(argv: list[str] | None = None) -> int:
    ns = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if getattr(ns, "verbose", False) else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        opts = _resolve(ns.command, ns)
        return HANDLERS[ns.command](opts)
    except PARSE_ERRORS as exc:
        _diag(str(exc))
        return EXIT_INPUT
    except COMPUTE_ERRORS as exc:
        _diag(f"{type(exc).__name__}: {exc}")
        return EXIT_COMPUTE
    except DivergenceError as exc:
        _diag(f"{type(exc).__name__}: {exc}")
        return EXIT_DIVERGED
    except GiftPlaceError as exc:
        _diag(f"{type(exc).__name__}: {exc}")
        return EXIT_COMPUTE
    except ValueError as exc:
        _diag(str(exc))
        return EXIT_COMPUTE
    except OSError as exc:
        _diag(str(exc))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
