"""giftplace benchmark: the CLI run the way users run it, one process per sample.

Usage, from the repository root::

    python3 benchmark/run.py --workload gift-50k --seed 1 --seconds 20 --trace 0

Set-up generates the workload's design from ``--seed`` with
``giftplace.generate`` and writes it with ``write_design``; that is timed
several times and reported as ``setup_s``. Then the benchmark runs a closed
loop: one fresh ``python -m giftplace.cli ...`` process at a time, given only
the Bookshelf files and ``--seed``, until ``--seconds`` have passed (at least
MIN_SAMPLES samples, or until one fails). Every sample's output is checked.
With ``--trace 1`` one more sample runs under ``benchmark/tracer.py`` and the
per-layer metrics come from its spans.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
and unit, and the full record (environment, samples, output hash, absent
layers) is written to ``.bench_work/<workload>-seed<n>-trace<t>.json``.
Metric names and units come from ``BENCHMARK.json``. Exit code 0 means every
sample passed its checks; 1 means a check failed; 2 means the benchmark could
not start.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from tracer import SPANS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# Nets of up to 32 pins with half of them long-range: fewer nets than the
# default profile but about 8.5 clique pairs per net, and long wirelength segments.
WIDE_FANOUT = {2: 0.35, 3: 0.2, 4: 0.15, 6: 0.1, 8: 0.08, 16: 0.07, 32: 0.05}
WIDE_DESIGN = {"cells": 20000, "fanout": WIDE_FANOUT, "long_range_fraction": 0.5}
WORKLOADS = {
    # front end only: parse, clique build, filter, .pl write; no placer
    "gift-50k": {"design": {"cells": 50000}, "cli": ["gift"]},
    # the paper's full pipeline, every layer loaded
    "place-gift-fanout-20k": {"design": WIDE_DESIGN, "cli": ["place", "--init", "gift"]},
    # placer from a pile of cells; graph and filter skipped
    "place-center-fanout-20k": {"design": WIDE_DESIGN, "cli": ["place", "--init", "center"]},
}

SETUP_REPEATS = 3
MIN_SAMPLES = 3
SAMPLE_TIMEOUT_S = 150.0
STOP_OVERFLOW = 0.15        # the CLI's default --stop-overflow
PL_TOLERANCE = 1e-6         # .pl files keep 6 decimals of each lower-left corner
CALIBRATION_LOOP = 1_000_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: tells a slow host from a regression."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOP):
        acc ^= i * i
    return time.perf_counter() - t0


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], log_path: str) -> dict:
    """Run one process to completion; wall time, exit code and its own rusage."""
    with open(log_path + ".out", "wb") as out, open(log_path + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        killer = threading.Timer(SAMPLE_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path + ".out") as f:
        lines = f.read().splitlines()
    return {
        "wall_s": wall,
        "exit_code": proc.returncode,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "stdout": lines[-1] if lines else "",
    }


def prepare(name: str, seed: int, design_dir: str, cells: int | None = None):
    """Generate and write the workload's design SETUP_REPEATS times.

    Returns (design, aux path, set-up seconds of each repeat). ``cells``
    overrides the design size, for quick tests of the benchmark itself.
    """
    from giftplace import generate, write_design

    spec = dict(WORKLOADS[name]["design"])
    if cells is not None:
        spec["cells"] = cells
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        design = generate(seed=seed, **spec)
        aux = write_design(design, design_dir, "synth")
        times.append(time.perf_counter() - t0)
    return design, aux, times


class OutputCheck:
    """Checks one workload's outputs against its generated design."""

    def __init__(self, name: str, seed: int, design, aux: str) -> None:
        from giftplace import GiftConfig, hpwl, initial_signal, read_placement
        from giftplace.netlist import aux_files

        self.place = WORKLOADS[name]["cli"][0] == "place"
        self.design = design
        self.fixed = design.fixed_mask()
        self.fixed_ref = read_placement(design, aux_files(aux)[".pl"])[self.fixed]
        # the filter is a low-pass: its output must be shorter than its seed cloud
        self.cloud_hpwl = None if self.place else hpwl(design, initial_signal(design, GiftConfig(seed=seed)))
        self.sha256 = None
        self.hpwl = None

    def __call__(self, sample: dict) -> list[str]:
        """Problems with one sample's output; an empty list means it passed."""
        import numpy as np
        from giftplace import GiftPlaceError, hpwl, read_placement

        if sample["exit_code"] != 0:
            return [f"exit code {sample['exit_code']}"]
        try:
            report = json.loads(sample["stdout"])
            pl_path = os.path.join(ROOT, report["out"])
            with open(pl_path, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            g = read_placement(self.design, pl_path)
        except (ValueError, KeyError, TypeError, OSError, GiftPlaceError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
        problems = []
        if not np.all(np.isfinite(g)):
            return ["non-finite coordinate in .pl"]
        if not np.array_equal(g[self.fixed], self.fixed_ref):
            problems.append("a fixed cell moved")
        region = self.design.region
        mov = g[~self.fixed]
        if mov.size and (
            mov[:, 0].min() < region.xmin - PL_TOLERANCE or mov[:, 0].max() > region.xmax + PL_TOLERANCE
            or mov[:, 1].min() < region.ymin - PL_TOLERANCE or mov[:, 1].max() > region.ymax + PL_TOLERANCE
        ):
            problems.append("a movable cell is outside the region")
        if self.sha256 is None:
            self.sha256 = digest
            self.hpwl = hpwl(self.design, g)
        elif digest != self.sha256:
            problems.append(f".pl differs from the first sample's ({digest} != {self.sha256})")
        if self.place:
            if report.get("converged") is not True:
                problems.append("placer did not converge")
            if not report.get("overflow", float("inf")) <= STOP_OVERFLOW:
                problems.append(f"overflow {report.get('overflow')} above {STOP_OVERFLOW}")
            sample["iterations"] = report.get("iterations")
        elif not self.hpwl < self.cloud_hpwl:
            problems.append(f"filtered HPWL {self.hpwl} not below the seed cloud's {self.cloud_hpwl}")
        return problems


def layer_stats(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: inclusive seconds ``s``, ``self_s`` and ``calls``.

    Self time is a span's duration minus the part of it that its child spans
    cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, [])):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        entry = stats.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        entry["s"] += end - start
        entry["self_s"] += end - start - covered
        entry["calls"] += 1
    return stats


def per_layer_values(trace: dict, traced_wall: float, samples: list[dict]) -> dict[str, float]:
    """Every per-layer value the traced run yields; layers not run read 0."""
    stats = layer_stats(trace["spans"])
    values: dict[str, float] = {}
    for name in ["cli.import", "cli.main", *(span for _, _, span in SPANS)]:
        entry = stats.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        for key, v in entry.items():
            values[f"{name}.{key}"] = v
    values.update(trace["counts"])
    values["cli.import_s"] = values["cli.import.s"]
    values["cli.self_s"] = values["cli.main.self_s"]
    iterations = values.get("placer.iterations", 0)
    values["placer.s_per_iter"] = values["placer.run_placer.s"] / iterations if iterations else 0.0
    values["proc.cpu_s"] = statistics.median(s["cpu_s"] for s in samples)
    values["trace.overhead_s"] = traced_wall - statistics.median(s["wall_s"] for s in samples)
    values["machine.calib_s"] = statistics.median(s["calib_s"] for s in samples)
    return values


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "thread_env": {k: os.environ.get(k) for k in threads},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "giftplace", "__init__.py")) or not os.path.isfile(spec_path):
        print(f"benchmark: no giftplace sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)
    sys.path.insert(0, SRC)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = os.path.join(WORK, tag)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        return measure(args, spec, tag, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args: argparse.Namespace, spec: dict, tag: str, run_dir: str) -> int:
    workload = WORKLOADS[args.workload]
    design, aux, setup_times = prepare(args.workload, args.seed, os.path.join(run_dir, "design"))
    check = OutputCheck(args.workload, args.seed, design, aux)
    cli_args = [*workload["cli"], os.path.relpath(aux, ROOT), "--seed", str(args.seed)]

    samples: list[dict] = []
    t_begin = time.perf_counter()
    while len(samples) < MIN_SAMPLES or time.perf_counter() - t_begin < args.seconds:
        calib = calibrate()
        sample = run_child([sys.executable, "-m", "giftplace.cli", *cli_args],
                           os.path.join(run_dir, f"sample{len(samples)}"))
        sample["calib_s"] = calib
        sample["problems"] = check(sample)
        samples.append(sample)
        if sample["problems"]:
            break  # the run has failed; more samples would only delay the verdict

    traced = None
    if args.trace and not samples[-1]["problems"]:
        spans_path = os.path.join(run_dir, "spans.json")
        traced = run_child([sys.executable, os.path.join(HERE, "tracer.py"), spans_path, *cli_args],
                           os.path.join(run_dir, "traced"))
        traced["problems"] = check(traced)
        if os.path.isfile(spans_path):
            with open(spans_path) as f:
                traced["trace"] = json.load(f)
        elif not traced["problems"]:
            traced["problems"] = ["tracer wrote no spans"]

    attempted = samples + ([traced] if traced else [])
    failed = sum(1 for s in attempted if s["problems"])
    failed_frac = failed / len(attempted)
    values = {
        "wall_s": statistics.median(s["wall_s"] for s in samples),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        "setup_s": statistics.median(setup_times),
        "out_hpwl": check.hpwl or 0.0,
    }
    if traced is not None and "trace" in traced:
        values.update(per_layer_values(traced["trace"], traced["wall_s"], samples))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    # a layer the tracer found absent, or a run whose trace failed, reads 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "setup_s": setup_times,
        "samples": samples,
        "traced": traced,
        "pl_sha256": check.sha256,
        "failed_frac": failed_frac,
        "values": values,
    }
    with open(os.path.join(WORK, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)

    for problem in sorted({p for s in attempted for p in s["problems"]}):
        print(f"FAILED CHECK: {problem}", file=sys.stderr)
    print(f"# {tag}: {len(samples)} untraced samples, failed_frac {failed_frac}, "
          f".pl sha256 {check.sha256}")
    if traced is not None:
        print(f"# absent layers: {traced.get('trace', {}).get('absent')}")
    units = {m["name"]: m["unit"] for group in ("end_to_end", "per_layer") for m in spec[group]}
    for name in units:
        if name in values:
            print(f"{name:42s} {values[name]!r:>24} {units[name]}")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": len(attempted), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
