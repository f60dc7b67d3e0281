"""Tests of the benchmark itself: oracles reject corrupted reports, tracing
leaves report bytes unchanged, and same-seed runs emit the same bytes.

Run from the repository root with ``python3 -m pytest bench``.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
import refclock
import run
import spans
import workloads

CLI = run._import_cli()

# A short search for the search oracle; the anneal workload's own calls
# take several seconds each.
SMALL_SEARCH = workloads.Invocation(
    "search-small",
    ("search", "--delta", "3", "--h", "0.1", "--iterations", "400", "--seed", "2", "--chains", "1",
     "--threads", "1", "--region-out", "small.json", "--out", "search-small.json",
     "--timestamp", workloads.TIMESTAMP),
    ("search-small.json", "small.json"),
    work=400,
    check="search",
    params={"delta": 3.0, "h": 0.1, "iterations": 400, "region_file": "small.json"},
)


def _with_search(w: workloads.Workload) -> workloads.Workload:
    return workloads.Workload(w.name, w.inputs, w.invocations + (SMALL_SEARCH,))


def _pass(w: workloads.Workload, directory: Path, tracer=None) -> run.Pass:
    directory.mkdir(parents=True, exist_ok=True)
    workloads.write_inputs(w, directory)
    cwd = Path.cwd()
    try:
        os.chdir(directory)
        return run._run_pass(CLI, w, directory, tracer)
    finally:
        os.chdir(cwd)


@pytest.fixture(scope="module")
def tour_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("tour")
    p = _pass(_with_search(workloads.tour(7)), directory)
    assert p.codes == [inv.expect_exit for inv in _with_search(workloads.tour(7)).invocations]
    return directory


@pytest.fixture(scope="module")
def pie_dir(tmp_path_factory) -> Path:
    w = workloads.pie(7)
    small = tuple(
        workloads.Invocation(i.name, tuple("20000" if a in ("400000", "100000") else a for a in i.argv),
                             i.outputs, i.expect_exit, i.work, i.check, i.params)
        for i in w.invocations
    )
    directory = tmp_path_factory.mktemp("pie")
    p = _pass(workloads.Workload(w.name, w.inputs, small), directory)
    assert p.codes == [0, 0]
    return directory


def _invocation(w: workloads.Workload, name: str) -> workloads.Invocation:
    return next(i for i in w.invocations if i.name == name)


def test_oracles_accept_the_reports(tour_dir, pie_dir):
    for directory, w in ((tour_dir, _with_search(workloads.tour(7))), (pie_dir, workloads.pie(7))):
        for inv in w.invocations:
            if inv.check:
                assert oracles.run_check(directory, inv) == [], inv.name


def _edit_report(path: Path, edit) -> None:
    payload = json.loads(path.read_text())
    edit(payload["report"], path.parent)
    path.write_text(json.dumps(payload))


def _set(*keys, value=None, scale=None, add=None):
    def edit(report, directory):
        target = report
        for k in keys[:-1]:
            target = target[k]
        if scale is not None:
            target[keys[-1]] *= scale
        elif add is not None:
            target[keys[-1]] += add
        else:
            target[keys[-1]] = value

    return edit


def _far_cell(report, directory):
    report["region"]["cells"].append([200, 0])
    report["cells"] += 1
    report["best_measure"] = report["cells"] * 0.01


def _interior_witness(report, directory):
    # points 12.. lie in a disk of radius 0.9, so any two are within 2
    points = (directory / "spread.csv").read_text().splitlines()
    report["witness_indices"] = [12, 13, 14, 15]
    report["witness_points"] = [[float(v) for v in points[i].split(",")] for i in range(12, 16)]


CORRUPTIONS = [
    ("search-small", "search-small.json", _set("feasibility", "diam_ok", value=False)),
    ("search-small", "search-small.json", _set("feasibility", "diam3_ok", value=False)),
    ("search-small", "search-small.json", _set("best_measure", add=0.01)),
    ("search-small", "search-small.json", _set("baseline_measure", add=1.0)),
    ("search-small", "search-small.json", _set("iterations", value=399)),
    ("search-small", "search-small.json", _far_cell),
    ("diameters-50", "d50.json", _set("diam", scale=1.0 + 1e-9)),
    ("diameters-50", "d50.json", _set("diam3", scale=1.0 - 1e-9)),
    ("diameters-50", "d50.json", _set("triameter", scale=1.01)),
    ("diameters-50", "d50.json", lambda r, d: r["ab"][0].update(value=r["ab"][0]["value"] * 0.99)),
    ("diameters-2000", "d2000.json", _set("diam", add=1e-6)),
    ("diameters-2000", "d2000.json", _set("n", value=1999)),
    ("check-holds", "c53.json", _set("holds", value=False)),
    ("check-holds", "c53.json", _set("threshold", value=1.5)),
    ("check-witness", "c42.json", _set("holds", value=True)),
    ("check-witness", "c42.json", _interior_witness),
    ("jung-2000", "j2000.json", _set("covered", value=False)),
    ("jung-2000", "j2000.json", _set("mec", "radius", scale=0.999)),
    ("jung-2000", "j2000.json", _set("diam", scale=1.001)),
    ("bounds", "bounds.json", lambda r, d: r["rows"].pop()),
    ("conjecture", "conjecture.json", _set("all_below_stmt3", value=False)),
    ("poison-masses", "poison-masses.json", _set("kill", "estimate", scale=1.5)),
    ("poison-masses", "poison-masses.json", _set("lethal", "measure", scale=0.5)),
    ("poison-masses", "poison-masses.json", _set("kill", "hits", add=1)),
    ("circle", "circle.json", _set("measure", scale=1.01)),
    ("circle", "circle.json", _set("holds", value=True)),
    ("circle", "circle.json", lambda r, d: r["witness"].__setitem__(1, r["witness"][0] + 0.1)),
]


@pytest.mark.parametrize("name,report,edit", CORRUPTIONS, ids=[f"{c[0]}-{k}" for k, c in enumerate(CORRUPTIONS)])
def test_oracle_rejects_a_corrupted_report(tour_dir, tmp_path, name, report, edit):
    directory = tmp_path / "copy"
    shutil.copytree(tour_dir, directory)
    _edit_report(directory / report, edit)
    inv = _invocation(_with_search(workloads.tour(7)), name)
    assert oracles.run_check(directory, inv) != []


@pytest.mark.parametrize("edit", [_set("kill", "estimate", scale=1.5), _set("lethal", "measure", scale=0.6)])
def test_poison_oracle_rejects_a_density_report(pie_dir, tmp_path, edit):
    directory = tmp_path / "copy"
    shutil.copytree(pie_dir, directory)
    _edit_report(directory / "poison-patch.json", edit)
    assert oracles.run_check(directory, _invocation(workloads.pie(7), "poison-patch")) != []


def test_missing_report_fails(tour_dir, tmp_path):
    directory = tmp_path / "copy"
    shutil.copytree(tour_dir, directory)
    (directory / "d50.json").unlink()
    assert oracles.run_check(directory, _invocation(workloads.tour(7), "diameters-50")) != []


def test_traced_pass_emits_untraced_bytes_and_accounts_for_its_wall(tmp_path):
    w = _with_search(workloads.tour(3))
    plain = _pass(w, tmp_path / "plain")
    original = CLI.run
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = _pass(w, tmp_path / "traced", tracer)
    finally:
        tracer.uninstall()
    assert traced.digests == plain.digests
    assert CLI.run is original
    layers = traced.layers
    assert {f"{layer}.self_s" for layer in spans.LAYERS} <= set(layers)
    accounted = sum(layers.get(f"{layer}.self_s", 0.0) for layer in spans.LAYERS)
    assert accounted == pytest.approx(traced.wall, rel=0.01)
    assert layers["diameters.diam3_calls"] == 6  # 50 and 2,000 points, jung twice, search twice
    assert layers["poisoning.bites"] == 6_000_000


def test_same_seed_gives_same_inputs_and_reports(tmp_path):
    first = _pass(workloads.tour(5), tmp_path / "a")
    second = _pass(workloads.tour(5), tmp_path / "b")
    assert first.digests == second.digests
    assert workloads.tour(5).inputs == workloads.tour(5).inputs
    assert workloads.tour(5).inputs != workloads.tour(6).inputs
    assert workloads.pie(5).inputs != workloads.pie(6).inputs


def test_benchmark_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "tour", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _result(capsys, argv: list[str]) -> dict:
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-2])["context"]["oracle_failures"] == {}
    return json.loads(lines[-1])


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def test_untraced_run_prints_the_declared_end_to_end_metrics(capsys):
    result = _result(capsys, ["--workload", "tour", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 10
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_prints_the_declared_layer_metrics_and_writes_spans(capsys, tmp_path):
    spans_file = tmp_path / "spans.json"
    result = _result(capsys, ["--workload", "pie", "--seed", "1", "--seconds", "1", "--trace", "1",
                              "--spans", str(spans_file)])
    assert result["correct"] and result["attempted"] == 4  # one untraced and one traced pass
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")
    assert metrics["poisoning.bites"]["value"] == 500_000
    assert metrics["trace.accounted_share"]["value"] == pytest.approx(1.0, abs=0.01)
    recorded = json.loads(spans_file.read_text())
    roots = [s for s in recorded if s["parent"] == -1]
    assert [s["name"] for s in roots] == ["cli.run", "cli.run"]
    assert all(s["start"] <= s["end"] for s in recorded)


def test_reference_clock_scales_wall_by_kernel_speed():
    clock = refclock.RefClock(period=0.2)
    ref = refclock.REF_KERNEL_S
    # (start, end, kernel): one handler call inside [1, 2], one just after
    # it, one too far before it to count
    clock.samples = [(0.5, 0.51, ref), (1.5, 1.52, 2 * ref), (2.1, 2.11, 4 * ref)]
    wall, reference = clock.convert(1.0, 2.0)
    assert wall == pytest.approx(0.98)
    assert reference == pytest.approx(0.98 * (0.5 + 0.25) / 2)
    with pytest.raises(ValueError):
        clock.convert(5.0, 6.0)
    child = refclock.convert_samples(1.0, [(0.1, 0.11, ref), (0.3, 0.31, ref)])
    assert child == pytest.approx((0.98, 0.98))


def test_reference_clock_samples_while_entered_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with refclock.RefClock(period=0.05) as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.4:
            sum(range(1000))
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 5
    wall, reference = clock.convert(start, end)
    assert 0 < wall < end - start
    assert reference > 0
