#!/usr/bin/env python3
"""isodiam benchmark: seeded CLI workloads, oracle-checked, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {anneal,pie,tour} --seed N --seconds S --trace {0,1}

One process runs one workload. It generates the inputs from the seed,
then drives ``isodiam.cli.run(argv)`` in-process pass after pass (a pass
is the workload's invocation list, see ``workloads.py``) for about
``--seconds``. Every report is checked by the
oracles in ``oracles.py`` outside the timed region, and every pass must
emit the same bytes as the first. The end-to-end times are reference
seconds: wall time scaled to a fixed host speed by ``refclock.py``,
because the host's own speed drifts by more than the metrics' bounds.

With ``--trace 0`` it prints the end-to-end metrics (``END_TO_END``);
with ``--trace 1`` it runs one untraced pass, then traced passes with
spans around the package's public functions (``spans.py``), checks that
the traced passes emit the untraced bytes, and prints the per-layer
metrics (``PER_LAYER``). The last line of stdout is the result object;
the line before it holds the machine, input digests and per-call times.

Everything runs single-threaded, with ``--threads 1 --chains 1`` on the
CLI and one thread for the numeric libraries.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import refclock
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "cli.self_s": "s",
    "cli.report_bytes": "bytes",
    "search.anneal_self_s": "s",
    "search.self_s": "s",
    "search.s_per_move": "s",
    "search.iterations": "count",
    "search.accepted": "count",
    "search.accept_ratio": "ratio",
    "diameters.diam3_s": "s",
    "diameters.diam3_calls": "count",
    "diameters.diam3_points": "count",
    "diameters.diam_ab_s": "s",
    "diameters.tab_check_s": "s",
    "diameters.subsets_required": "count",
    "diameters.diam_s": "s",
    "diameters.triameter_s": "s",
    "diameters.self_s": "s",
    "regions.rasterize_s": "s",
    "regions.region_diam_s": "s",
    "regions.region_diam3_sampled_s": "s",
    "regions.corner_points_s": "s",
    "regions.arc_tab_check_s": "s",
    "regions.self_s": "s",
    "geometry.convex_hull_s": "s",
    "geometry.convex_hull_points": "count",
    "geometry.mec_s": "s",
    "geometry.load_csv_s": "s",
    "geometry.self_s": "s",
    "poisoning.kill_probability_s": "s",
    "poisoning.s_per_bite": "s",
    "poisoning.bites": "count",
    "poisoning.dose_pairs": "count",
    "poisoning.lethal_region_s": "s",
    "poisoning.self_s": "s",
    "svgplot.region_svg_s": "s",
    "svgplot.curves_svg_s": "s",
    "svgplot.svg_bytes": "bytes",
    "svgplot.self_s": "s",
    "bounds.s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
    "trace.spans": "count",
}

# Per-layer metric names that differ from the span summary key they report.
_SUMMARY_KEY = {
    "search.anneal_self_s": "search.anneal_s",
    "geometry.convex_hull_s": "geometry.convex_hull_indices_s",
    "geometry.mec_s": "geometry.min_enclosing_circle_s",
    "geometry.load_csv_s": "geometry.load_points_csv_s",
    "bounds.s": "bounds.self_s",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no source tree, a failed set-up)."""


@dataclass
class Pass:
    wall: float
    walls: list[float]
    intervals: list[tuple[float, float]]
    codes: list[int]
    digests: list[str]
    report_bytes: int
    layers: dict[str, float] | None = None


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", help="with --trace 1, also write every span as JSON here")
    p.add_argument("--setup-child", help=argparse.SUPPRESS)
    ns = p.parse_args(argv)
    if ns.seed < 0:
        p.error("--seed must be >= 0")
    if ns.seconds <= 0:
        p.error("--seconds must be > 0")
    return ns


def _require_source() -> None:
    if not (SRC / "isodiam" / "cli.py").is_file():
        raise BenchError(f"no isodiam source tree at {SRC}")


def _import_cli():
    """Import ``isodiam.cli`` from this checkout's ``src``, nothing else."""
    _require_source()
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("isodiam.cli")
    if Path(cli.__file__).resolve().parent != SRC / "isodiam":
        raise BenchError(f"imported isodiam from {cli.__file__}, not from {SRC}")
    return cli


def _time_setup_child(ns: argparse.Namespace, directory: Path) -> tuple[float, float]:
    """(wall, reference) seconds of a fresh interpreter importing the CLI
    and writing inputs. The child samples the reference kernel while it
    works and prints the samples."""
    directory.mkdir()
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", ns.workload, "--seed", str(ns.seed),
           "--setup-child", str(directory)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()}")
    return refclock.convert_samples(wall, json.loads(proc.stdout.splitlines()[-1]))


def _digest(directory: Path, names: tuple[str, ...]) -> str:
    h = hashlib.sha256()
    for name in names:
        path = directory / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def _run_pass(cli, workload: workloads.Workload, directory: Path, tracer: spans.Tracer | None) -> Pass:
    invs = workload.invocations
    for inv in invs:
        for name in inv.outputs:
            (directory / name).unlink(missing_ok=True)
    mark = tracer.mark() if tracer is not None else None
    walls, intervals, codes = [], [], []
    for inv in invs:
        start = time.perf_counter()
        codes.append(cli.run(list(inv.argv)))
        end = time.perf_counter()
        walls.append(end - start)
        intervals.append((start, end))
    layers = tracer.summary(mark) if tracer is not None else None
    reports = [directory / inv.outputs[0] for inv in invs if inv.outputs]
    return Pass(
        wall=sum(walls),
        walls=walls,
        intervals=intervals,
        codes=codes,
        digests=[_digest(directory, inv.outputs) for inv in invs],
        report_bytes=sum(r.stat().st_size for r in reports if r.is_file()),
        layers=layers,
    )


def _passes(cli, workload, directory: Path, seconds: float, tracer=None) -> list[Pass]:
    """Passes while at least half of the next one, at the last pass's
    length, fits in ``seconds``; at least one. A run so ends within half a
    pass of ``seconds``, and a pass near half of it still runs twice."""
    out: list[Pass] = []
    start = time.perf_counter()
    while True:
        out.append(_run_pass(cli, workload, directory, tracer))
        if time.perf_counter() - start + out[-1].wall / 2.0 > seconds:
            return out


def _failures(workload, passes: list[Pass], reference: list[str], oracle_fail: dict[str, list[str]]) -> int:
    """Invocations, over all passes, with an unexpected exit code, bytes that
    differ from the reference pass, or a failed oracle."""
    failed = 0
    for p in passes:
        for i, inv in enumerate(workload.invocations):
            if p.codes[i] != inv.expect_exit or p.digests[i] != reference[i] or oracle_fail.get(inv.name):
                failed += 1
    return failed


def _search_counts(workload, directory: Path) -> dict[str, float]:
    iterations = accepted = 0
    for inv in workload.invocations:
        if inv.argv[0] == "search" and (directory / inv.outputs[0]).is_file():
            report = json.loads((directory / inv.outputs[0]).read_text(encoding="utf-8"))["report"]
            iterations += report["iterations"]
            accepted += report["accepted_moves"]
    return {
        "search.iterations": iterations,
        "search.accepted": accepted,
        "search.accept_ratio": accepted / iterations if iterations else 0.0,
    }


def _layer_metrics(p: Pass, untraced_wall: float, counts: dict[str, float]) -> dict[str, float]:
    s = p.layers
    out = {name: s.get(_SUMMARY_KEY.get(name, name), 0.0) for name in PER_LAYER}
    out.update(counts)
    out["cli.report_bytes"] = p.report_bytes
    moves, bites = out["search.iterations"], out["poisoning.bites"]
    out["search.s_per_move"] = out["search.anneal_self_s"] / moves if moves else 0.0
    out["poisoning.s_per_bite"] = out["poisoning.kill_probability_s"] / bites if bites else 0.0
    out["trace.wall_s"] = p.wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = p.wall - untraced_wall
    accounted = sum(s.get(f"{layer}.self_s", 0.0) for layer in spans.LAYERS)
    out["trace.accounted_share"] = accounted / p.wall
    return out


def _median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(row[k] for row in rows) for k in rows[0]}


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((SRC / "isodiam").glob("*.py")))


def _machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_isodiam_lines": _src_lines(),
    }


def measure(ns: argparse.Namespace, directory: Path) -> tuple[dict, dict]:
    """Run the workload in ``directory``; return (context, result)."""
    workload = workloads.WORKLOADS[ns.workload](ns.seed)
    setup = []
    if not ns.trace:
        setup = [_time_setup_child(ns, directory / f"setup{k}") for k in range(SETUP_REPEATS)]

    start = time.perf_counter()
    cli = _import_cli()
    import_s = time.perf_counter() - start
    import oracles  # after the timed import, which must include numpy's

    start = time.perf_counter()
    input_digests = workloads.write_inputs(workload, directory)
    inputs_s = time.perf_counter() - start

    tracer = None
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        if ns.trace:
            untraced = _run_pass(cli, workload, directory, None)
            tracer = spans.Tracer()
            tracer.install()
            try:
                remaining = max(ns.seconds - untraced.wall, 0.0)
                passes = _passes(cli, workload, directory, remaining, tracer)
            finally:
                tracer.uninstall()
            reference = untraced.digests
            checked = [untraced, *passes]
        else:
            with refclock.RefClock() as clock:
                passes = _passes(cli, workload, directory, ns.seconds)
            reference = passes[0].digests
            checked = passes
    finally:
        os.chdir(cwd)

    invs = workload.invocations
    oracle_fail = {inv.name: oracles.run_check(directory, inv) for inv in invs if inv.check}
    failed = _failures(workload, checked, reference, oracle_fail)
    attempted = len(checked) * len(invs)

    if ns.trace:
        counts = _search_counts(workload, directory)
        rows = [_layer_metrics(p, untraced.wall, counts) for p in passes]
        values = _median_metrics(rows)
        values["setup.import_s"] = import_s
        values["setup.inputs_s"] = inputs_s
        units = PER_LAYER
        host = {}
    else:
        # (wall, reference) seconds of each call, handler time taken out
        calls = [[clock.convert(*span) for span in p.intervals] for p in passes]
        ref_walls = [[r for _, r in row] for row in calls]
        work = [inv.work for inv in invs]
        rates = [sum(work) / sum(r for r, u in zip(row, work) if u) for row in ref_walls]
        values = {
            "setup_s": statistics.median(r for _, r in setup),
            "wall_s": statistics.median(sum(row) for row in ref_walls),
            "throughput_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
        host = {
            "ref_kernel_s": refclock.REF_KERNEL_S,
            "kernel_median_s": clock.kernel_median(),
            "kernel_samples": len(clock.samples),
            "raw_wall_s": statistics.median(sum(w for w, _ in row) for row in calls),
        }

    context = {
        "workload": ns.workload,
        "seed": ns.seed,
        "seconds": ns.seconds,
        "trace": ns.trace,
        "machine": _machine(),
        "inputs_sha256": input_digests,
        "reports_sha256": hashlib.sha256("".join(reference).encode()).hexdigest(),
        "passes": len(passes),
        "setup_walls_s": [w for w, _ in setup],
        "host": host,
        "call_median_s": {inv.name: statistics.median(p.walls[i] for p in passes) for i, inv in enumerate(invs)},
        "exit_codes": {inv.name: sorted({p.codes[i] for p in checked}) for i, inv in enumerate(invs)},
        "fail_ratio": failed / attempted,
        "oracle_failures": {k: v for k, v in oracle_fail.items() if v},
    }
    if ns.trace and ns.spans:
        Path(ns.spans).write_text(json.dumps(tracer.dump()), encoding="utf-8")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return context, result


def main(argv: list[str] | None = None) -> int:
    ns = _parse(argv)
    # one thread for the numeric libraries, set before numpy loads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        _require_source()
        if ns.setup_child:
            with refclock.RefClock() as clock:
                _import_cli()
                workloads.write_inputs(workloads.WORKLOADS[ns.workload](ns.seed), Path(ns.setup_child))
            print(json.dumps(clock.samples))
            return 0
        scratch = ROOT / ".bench_work"
        scratch.mkdir(exist_ok=True)
        directory = Path(tempfile.mkdtemp(prefix=f"{ns.workload}-{ns.seed}-", dir=scratch))
        try:
            context, result = measure(ns, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
            try:
                scratch.rmdir()
            except OSError:
                pass  # another run still uses it
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
