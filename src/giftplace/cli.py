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
import dataclasses
import functools
import inspect
import io
import json
import logging
import os
import sys
import time

import numpy as np

from . import __version__
from .benchgen import generate
from .errors import (
    DanglingPinError,
    DegenerateSpectrumWarning,
    DivergenceError,
    DuplicateCellError,
    GiftPlaceError,
    MalformedLineError,
    MissingFileError,
)
from .gift import GiftConfig, gift_place
from .graph import (
    FilterTerm,
    build_clique_graph,
    identity_minus,
    normalized_augmented_adjacency,
)
from .metrics import GridConfig, report as metrics_report
from .netlist import aux_entries, aux_files, decode, design_files, parse_design, read_placement, write_design, write_placement
from .placer import PlacerConfig, run_placer
from .spectral import eigendecompose, eigenvector_placement, filter_response

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_COMPUTE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4

PARSE_ERRORS = (MissingFileError, MalformedLineError, DuplicateCellError, DanglingPinError)

_GENERATE = inspect.signature(generate).parameters
_MANIFEST = {"manifest": (str, None, "run manifest path")}
_SEEDED = {"seed": (int, 0, "random seed"), **_MANIFEST}
_TERMS = (str, None, "filter terms sigma:k:alpha,... (default: the paper's three terms)")
_JITTER = (float, GiftConfig.jitter_scale, "initial jitter scale (default: a quarter of the smaller region side)")
_BINS = (str, None, "density bins, N or NXxNY (default: sized per design)")
_RHO_T = (float, GridConfig.rho_t, "target density in (0,1]")
_MAX_CLIQUE_PINS = (int, None, "skip nets with more pins than this during clique expansion")

# command -> option -> (type, default, help): the flags, the config-file keys
# and the resolved defaults of every command that writes a manifest
OPTIONS: dict[str, dict[str, tuple]] = {
    "gift": {
        "out": (str, None, "output .pl path (default: AUX stem + .gift.pl)"),
        "terms": _TERMS,
        "jitter": _JITTER,
        "max_clique_pins": _MAX_CLIQUE_PINS,
        **_SEEDED,
    },
    "place": {
        "init": (str, "center", "center|gift|eigen|file:PATH"),
        "out": (str, None, "final .pl path (default: AUX stem + .place.pl)"),
        "trace": (str, None, "per-iteration trace CSV path (default: OUT + .trace.csv)"),
        "gamma": (float, PlacerConfig.gamma, "wirelength smoothing (default: region width / 100)"),
        "lambda0": (float, PlacerConfig.lambda0, "initial density weight (default: balances the forces)"),
        "lambda_growth": (float, PlacerConfig.lambda_growth, "per-iteration density weight multiplier"),
        "max_iters": (int, PlacerConfig.max_iters, "iteration budget"),
        "stop_overflow": (float, PlacerConfig.stop_overflow, "stop once overflow is at most this"),
        "bins": _BINS,
        "rho_t": _RHO_T,
        "terms": _TERMS,
        "jitter": _JITTER,
        "max_clique_pins": _MAX_CLIQUE_PINS,
        **_SEEDED,
    },
    "spectrum": {
        "sigma": (str, "0,1,2,3", "comma list of self-loop weights"),
        "k": (str, "1,2,4", "comma list of filter powers"),
        "out_dir": (str, ".", "directory for CSV outputs"),
        "max_clique_pins": _MAX_CLIQUE_PINS,
        **_MANIFEST,
    },
    "metrics": {
        "pl": (str, None, "placement to evaluate (default: the design's .pl)"),
        "out": (str, None, "also write the JSON here"),
        "bins": _BINS,
        "rho_t": _RHO_T,
        "max_clique_pins": _MAX_CLIQUE_PINS,
        **_MANIFEST,
    },
    "benchgen": {
        "cells": (int, 100, "movable cell count (>= 4)"),
        "rows": (int, None, "logical grid rows"),
        "cols": (int, None, "logical grid cols"),
        "fanout": (str, None, "net degree profile, e.g. 2:0.5,3:0.3,4:0.2"),
        "io": (int, None, "IO terminal count"),
        "long_range_fraction": (float, _GENERATE["long_range_fraction"].default, "share of random long-range nets"),
        "utilization": (float, _GENERATE["utilization"].default, "movable area over region area"),
        "out_dir": (str, ".", "output directory"),
        "name": (str, "synth", "benchmark file stem"),
        **_SEEDED,
    },
}

# options that manifests of earlier versions record: command -> option -> (type, default, why a value other than the
# default cannot be replayed, or None when no value changed the outputs). A replay drops them
RETIRED = {"metrics": {"seed": (int, 0, None)}, "spectrum": {"seed": (int, 0, None)},
           "place": {"step": (float, None, "a fixed step size is gone; every place run takes the saturated per-cell step")}}

COMMAND_HELP = {
    "gift": "filter a seeded placement signal and write the result",
    "place": "run the toy analytical placer",
    "spectrum": "eigenvalue histograms and filter response curves",
    "metrics": "report placement quality metrics as JSON",
    "benchgen": "generate a synthetic Bookshelf design",
}

def _diag(message: str) -> None:
    use_color = sys.stderr.isatty() and not os.environ.get("NO_COLOR")
    prefix = "\x1b[31merror:\x1b[0m" if use_color else "error:"
    print(f"giftplace: {prefix} {message}", file=sys.stderr)


def _comma_list(opts: dict, key: str, rule: str, *kinds: type, ok=lambda *fields: True) -> list[tuple] | None:
    """A comma-list option such as --terms 'sigma:k:alpha,...': one tuple per entry, its ':'-separated fields
    converted by ``kinds`` and checked by ``ok``; None when the option is unset. ValueError names the first bad entry."""
    if opts[key] is None:
        return None
    entries = []
    for part in opts[key].split(","):
        try:
            fields = tuple(kind(field) for kind, field in zip(kinds, part.split(":"), strict=True))
        except ValueError:
            fields = None
        if fields is None or not ok(*fields):
            raise ValueError(f"bad --{key} entry {part!r}, expected {rule}")
        entries.append(fields)
    return entries


def _gift_config(opts: dict) -> GiftConfig:
    """--terms is 'sigma:k:alpha,...'; unset keeps the paper's terms."""
    terms = _comma_list(opts, "terms", "sigma:k:alpha", float, int, float)
    return GiftConfig(terms=GiftConfig.terms if terms is None else [FilterTerm(*fields) for fields in terms],
                      seed=opts["seed"], jitter_scale=opts["jitter"])


def _clique_cap(opts: dict) -> int | None:
    """--max-clique-pins; a cap below 2 would skip every net and leave no graph."""
    cap = opts.get("max_clique_pins")
    if cap is not None and cap < 2:
        raise ValueError(f"--max-clique-pins must be >= 2, got {cap}")
    return cap


def _grid_config(opts: dict) -> GridConfig:
    """--bins is N or NXxNY; unset leaves the bin counts to the consumer."""
    nx = ny = None
    if opts["bins"] is not None:
        parts = opts["bins"].lower().split("x")
        try:
            nx, ny = map(int, parts * 2 if len(parts) == 1 else parts)
        except ValueError:
            raise ValueError(f"bad --bins {opts['bins']!r}, expected N or NXxNY") from None
    return GridConfig(nx=nx, ny=ny, rho_t=opts["rho_t"])


def _write_csv(path: str, header: str, *columns: np.ndarray) -> None:
    """One row per entry of the equal-length ``columns``, each value to 10 significant digits."""
    np.savetxt(path, np.column_stack(columns), fmt="%.10g", delimiter=",", header=header, comments="")


def _spectrum_lists(opts: dict) -> tuple[list[float], list[int]]:
    """--sigma and --k, each a comma list checked value by value."""
    sigmas = _comma_list(opts, "sigma", "a finite number >= 0", float, ok=lambda s: 0.0 <= s < np.inf)
    ks = _comma_list(opts, "k", "an integer >= 1", int, ok=lambda k: k >= 1)
    return [s for s, in sigmas], [k for k, in ks]


def _outputs(command: str, opts: dict, made: str | None = None) -> dict[str, str]:
    """Every file the run writes, keyed by option or by its name in the manifest's ``outputs``; unset output options
    get their default names. Checked before any work: ValueError when two are one file or one is an input (the .aux
    and its files, --pl, --init file:), and OSError (exit 3) for one that is a directory or lies in a missing directory
    other than the one the run creates: --out-dir, or ``made`` on replay, which must not be a file."""
    if opts.get("out_dir") == "":
        raise ValueError("--out-dir is the empty path; name a directory, such as '.'")
    base = os.path.splitext(opts.get("aux", ""))[0]
    if command in ("gift", "place"):
        base = opts["out"] or f"{base}.{command}.pl"
        files = {"out": base, "trace": opts["trace"] or base + ".trace.csv"} if command == "place" else {"out": base}
    elif command == "metrics":
        files = {"out": opts["out"]} if opts["out"] else {}
        base = opts["out"] or base + ".metrics"
    elif command == "spectrum":
        sigmas, ks = _spectrum_lists(opts)
        files = {f"hist_sigma{s:g}": os.path.join(opts["out_dir"], f"eig_hist_sigma{s:g}.csv") for s in sigmas}
        files.update({f"response_sigma{s:g}_k{k}": os.path.join(opts["out_dir"], f"response_sigma{s:g}_k{k}.csv")
                      for s in sigmas for k in ks})
        if len(files) < len(sigmas) * (1 + len(ks)):  # two values that print alike under {:g} make one key
            raise ValueError(f"--sigma {opts['sigma']} and --k {opts['k']} give two outputs one file name: the names hold "
                             "each value to 6 significant digits")
        base = os.path.join(opts["out_dir"], "spectrum")
    else:
        files = design_files(opts["out_dir"], opts["name"])
        base = os.path.join(opts["out_dir"], opts["name"])
    files["manifest"] = opts["manifest"] or base + ".manifest.json"
    opts.update((key, path) for key, path in files.items() if key in opts)

    listed = [opts["aux"], *(path for _, _, path in aux_entries(opts["aux"]))] if "aux" in opts else []
    seen = {os.path.realpath(path): os.path.basename(path) for path in listed}
    for name, path in (("--pl", opts.get("pl")), ("--init", opts.get("init", "").partition("file:")[2])):
        if path:
            seen[os.path.realpath(path)] = name
    made = made or opts.get("out_dir")
    up = made and os.path.abspath(made)  # the nearest existing path of the directory the run makes
    while up and not os.path.exists(up):
        up = os.path.dirname(up)
    if up and not os.path.isdir(up):
        raise NotADirectoryError(f"output directory {made} cannot be made: {up} is a file")
    for key, path in files.items():
        name, real = f"--{key}" if key in opts else os.path.basename(path), os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{seen[real]} and {name} are the same file {path}")
        seen[real] = name
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder) and not (made and os.path.abspath(folder) == os.path.abspath(made)):
            raise FileNotFoundError(f"output directory {folder} does not exist")
        if os.path.isdir(path):
            raise IsADirectoryError(f"{name} {path} is a directory")
    return files


def _phase(timings: list, name: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, its seconds appended to ``timings`` as the manifest records them."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    timings.append({"phase": name, "seconds": time.perf_counter() - t0})
    return result


def _write_text(path: str, text: str) -> None:
    with open(path, "w") as f:
        f.write(text)


def _finish(command: str, opts: dict, made: str | None, files: dict[str, str], timings: list, summary: str,
            *writers) -> int:
    """The one ending of a run, once every result is computed: make the output directory (a replay's --out-dir, or
    --out-dir), call ``writers`` in order, write the manifest last and print ``summary``."""
    os.makedirs(made or opts.get("out_dir") or ".", exist_ok=True)
    for write in writers:
        write()
    doc = {
        "tool": "giftplace",
        "version": __version__,
        "command": command,
        "options": opts,
        "outputs": {key: path for key, path in files.items() if key != "manifest"},
        "timings": timings,
    }
    _write_text(files["manifest"], json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# command handlers (each takes the fully resolved options dict and, on replay, the --out-dir it creates); each
# computes every result, then returns through _finish


def run_gift(opts: dict, made: str | None = None) -> int:
    gconfig = _gift_config(opts)
    cap = _clique_cap(opts)
    files = _outputs("gift", opts, made)
    timings: list = []
    design = _phase(timings, "parse", parse_design, opts["aux"])
    adj = _phase(timings, "graph", build_clique_graph, design, cap)
    placement = _phase(timings, "filter", gift_place, design, adj, gconfig)
    return _finish("gift", opts, made, files, timings, json.dumps({"out": files["out"], "timings": timings}),
                   functools.partial(write_placement, design, placement, files["out"]))


def run_place(opts: dict, made: str | None = None) -> int:
    pconfig = PlacerConfig(grid=_grid_config(opts), **{
        f.name: opts[f.name] for f in dataclasses.fields(PlacerConfig) if f.name != "grid"})
    gconfig = _gift_config(opts)
    cap = _clique_cap(opts)
    init = opts["init"]
    if init not in ("center", "gift", "eigen") and not init.startswith("file:"):
        raise ValueError(f"unknown --init {init!r} (expected center|gift|eigen|file:PATH)")
    files = _outputs("place", opts, made)
    timings: list = []
    design = _phase(timings, "parse", parse_design, opts["aux"])

    if init == "center":
        g0 = np.tile(design.region.center, (design.num_cells, 1))
    elif init == "gift":
        adj = _phase(timings, "graph", build_clique_graph, design, cap)
        g0 = _phase(timings, "filter", gift_place, design, adj, gconfig)
        del adj  # the operator is freed before the placer, whose peak is then the run's
    elif init == "eigen":
        adj = _phase(timings, "graph", build_clique_graph, design, cap)
        lambdas, u = _phase(timings, "eigen", eigendecompose, identity_minus(normalized_augmented_adjacency(adj, 0.0)))
        g0 = eigenvector_placement(lambdas, u, design.region)
    else:
        g0 = read_placement(design, init[len("file:"):])

    g_final, trace = _phase(timings, "place", run_placer, design, g0, pconfig)
    last = trace.records[-1]
    summary = {"out": files["out"], "iterations": trace.iterations, "converged": trace.converged, "hpwl": last.hpwl,
               "overflow": last.overflow}
    return _finish("place", opts, made, files, timings, json.dumps(summary),
                   functools.partial(write_placement, design, g_final, files["out"]),
                   functools.partial(_write_csv, files["trace"], "iter,wl,hpwl,overflow,lambda", *np.transpose(trace.records)))


def run_spectrum(opts: dict, made: str | None = None) -> int:
    cap = _clique_cap(opts)
    files = _outputs("spectrum", opts, made)
    sigmas, ks = _spectrum_lists(opts)
    timings: list = []
    design = _phase(timings, "parse", parse_design, opts["aux"])
    if design.num_cells == 0:
        _diag("design has no cells; nothing to analyze")
        return EXIT_INPUT
    adj = _phase(timings, "graph", build_clique_graph, design, cap)
    spectra = _phase(timings, "spectrum", lambda: [
        eigendecompose(identity_minus(normalized_augmented_adjacency(adj, sigma)))[0] for sigma in sigmas])

    summary, writers = {}, []
    for sigma, lambdas in zip(sigmas, spectra):
        # the spectrum lies in [0, 2]: a value outside it is rounding, and is counted at the edge
        counts, edges = np.histogram(np.clip(lambdas, 0.0, 2.0), bins=50, range=(0.0, 2.0))
        writers.append(functools.partial(_write_csv, files[f"hist_sigma{sigma:g}"], "lambda,count",
                                         0.5 * (edges[:-1] + edges[1:]), counts))
        writers += [functools.partial(_write_csv, files[f"response_sigma{sigma:g}_k{k}"], "lambda,h", lambdas,
                                      filter_response(k, lambdas)) for k in ks]
        summary[f"lambda_max_sigma{sigma:g}"] = float(lambdas[-1])
    return _finish("spectrum", opts, made, files, timings, json.dumps(summary), *writers)


def run_metrics(opts: dict, made: str | None = None) -> int:
    grid = _grid_config(opts)
    cap = _clique_cap(opts)
    files = _outputs("metrics", opts, made)
    timings: list = []
    design = _phase(timings, "parse", parse_design, opts["aux"], listed := aux_files(opts["aux"]))  # one .aux read
    g = read_placement(design, opts["pl"] or listed[".pl"])
    adj = _phase(timings, "graph", build_clique_graph, design, cap)
    text = json.dumps(metrics_report(design, adj, g, grid), indent=2, sort_keys=True)
    writers = [functools.partial(_write_text, files["out"], text + "\n")] if "out" in files else []
    return _finish("metrics", opts, made, files, timings, text, *writers)


def run_benchgen(opts: dict, made: str | None = None) -> int:
    files = _outputs("benchgen", opts, made)
    profile = None
    if (fanout := _comma_list(opts, "fanout", "DEGREE:WEIGHT", int, float)) is not None:
        profile = {}
        for degree, weight in fanout:
            if degree in profile:
                raise ValueError(f"--fanout repeats degree {degree}")
            profile[degree] = weight
    timings: list = []
    design = _phase(timings, "generate", generate, cells=opts["cells"], rows=opts["rows"], cols=opts["cols"],
                    fanout=profile, io_count=opts["io"], seed=opts["seed"],
                    long_range_fraction=opts["long_range_fraction"], utilization=opts["utilization"])
    summary = {"aux": files["aux"], "cells": design.num_cells, "nets": design.num_nets}
    return _finish("benchgen", opts, made, files, timings, json.dumps(summary),
                   functools.partial(write_design, design, opts["out_dir"], opts["name"]))


def _manifest_problem(doc) -> str | None:
    """Why a JSON document is not a run manifest, or None if it is one."""
    if not isinstance(doc, dict):
        return "not a JSON object"
    command, options = doc.get("command"), doc.get("options")
    if not isinstance(command, str) or command not in OPTIONS:
        return f"unknown command {command!r}"
    if not isinstance(options, dict):
        return "options is not an object"
    required = [*OPTIONS[command], *([] if command == "benchgen" else ["aux"])]
    missing = next((key for key in required if key not in options), None)
    if missing is not None:
        return f"options lack {missing!r}"
    # a value has its option's type (an int also fits a float, a bool fits none), or is null where the default is
    table = {**OPTIONS[command], "aux": (str, "", ""), **RETIRED.get(command, {})}
    for key, value in options.items():
        if key not in table:
            return f"unknown option {key!r}"
        if value is None and table[key][1] is None:
            continue
        kind = table[key][0]
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            return f"option {key!r} is {json.dumps(value)}, not {kind.__name__}"
    return None


def run_report(opts: dict) -> int:
    path = opts["manifest_path"]
    if not os.path.isfile(path):
        raise MissingFileError(path)
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as exc:  # not JSON text
            raise ValueError(f"{path}: not a run manifest: {exc}") from None
    problem = _manifest_problem(doc)
    if problem:
        raise ValueError(f"{path}: not a run manifest: {problem}")
    if not opts.get("replay"):
        print(json.dumps(doc, indent=2, sort_keys=True))
        return EXIT_OK
    for key, (_, default, reason) in RETIRED.get(doc["command"], {}).items():
        if reason and doc["options"].get(key, default) != default:
            raise ValueError(f"{path}: cannot replay --{key} {json.dumps(doc['options'][key])}: {reason}")
    out_dir = opts.get("out_dir")
    if not out_dir:
        raise ValueError("--replay requires --out-dir")
    new_opts = {k: v for k, v in doc["options"].items() if k in OPTIONS[doc["command"]] or k == "aux"}
    for key in ("out", "trace", "manifest"):  # the options that name an output, re-rooted by basename
        if new_opts.get(key):
            new_opts[key] = os.path.join(out_dir, os.path.basename(new_opts[key]))
    if "out_dir" in new_opts:
        new_opts["out_dir"] = out_dir
    return HANDLERS[doc["command"]](new_opts, out_dir)


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


def _add_options(p: argparse.ArgumentParser, options: dict[str, tuple], config: bool = True) -> None:
    for key, (kind, default, text) in options.items():
        if default is not None:
            text = f"{text} (default {default})"
        p.add_argument("--" + key.replace("_", "-"), type=kind, default=argparse.SUPPRESS, help=text)
    if config:
        p.add_argument("--config", default=argparse.SUPPRESS, help="key=value config file; flags override")
    p.add_argument("-v", "--verbose", action="store_true", help="verbose logging")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="giftplace",
        description="Graph-filter placement initialization, spectral analysis, and a toy analytical placer.",
    )
    parser.add_argument("--version", action="version", version=f"giftplace {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        p = sub.add_parser(command, help=COMMAND_HELP[command])
        if command != "benchgen":
            p.add_argument("aux", help="input .aux design")
        _add_options(p, options)

    p = sub.add_parser("report", help="summarize a run manifest, or replay it")
    p.add_argument("manifest_path", help="manifest JSON from a previous run")
    p.add_argument("--replay", action="store_true", help="re-execute the recorded run")
    _add_options(p, {"out_dir": (str, None, "output directory for the replay")}, config=False)
    return parser


def _load_config(path: str, command: str) -> dict:
    """key=value config file; '#' comments; unknown keys warn and are ignored."""
    if not os.path.isfile(path):
        raise MissingFileError(path)
    values: dict = {}
    options = OPTIONS[command]
    with open(path, "rb") as f:
        text = decode(path, f.read())
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise MalformedLineError(path, lineno, line, "expected key=value")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in options:
            log.warning("%s: unknown config key %r ignored", path, key)
            continue
        kind = options[key][0]
        try:
            values[key] = kind(val.strip())
        except ValueError:
            raise MalformedLineError(path, lineno, line, f"{key} expects {kind.__name__}")
    return values


def _resolve(command: str, ns: argparse.Namespace) -> dict:
    provided = {k: v for k, v in vars(ns).items() if k not in ("command", "verbose")}
    if command == "report":  # its options are the manifest's
        return provided
    opts = {key: default for key, (_, default, _) in OPTIONS[command].items()}
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
    except DivergenceError as exc:
        _diag(f"{type(exc).__name__}: {exc}")
        return EXIT_DIVERGED
    # computation and guard errors, invalid designs, and the --init eigen warning where `python -W error` raises it
    # (any other escalated warning keeps its traceback)
    except (GiftPlaceError, DegenerateSpectrumWarning) as exc:
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
