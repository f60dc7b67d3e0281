import argparse
import dataclasses
import hashlib
import importlib.util
import json
import math
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from geometry_oracles import save_points_csv
from isodiam import cli, geometry
from isodiam.bounds import bound_profile
from isodiam.geometry import DiskUnion, PointSet
from isodiam.poisoning import DensityPatch, PoisonStrategy
from isodiam.regions import rasterize


@pytest.fixture(autouse=True)
def _pin_env(monkeypatch):
    """Pin the manifest timestamp of every CLI run."""
    monkeypatch.setenv("ISODIAM_TIMESTAMP", "2026-01-01T00:00:00Z")


@pytest.fixture
def pts_csv(tmp_path):
    s = PointSet([(0, 0), (2, 0), (1, 1.8), (0.5, 0.2)])
    path = tmp_path / "pts.csv"
    save_points_csv(s, path)
    return str(path)


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


def test_diameters_report(capsys, pts_csv):
    payload = run_json(capsys, ["diameters", pts_csv, "--ab", "4,2"])
    assert payload["schema"] == 1
    man = payload["manifest"]
    assert man["subcommand"] == "diameters"
    assert man["tool"] == "isodiam"
    assert man["timestamp"] == "2026-01-01T00:00:00Z"
    assert pts_csv in man["input_digests"]
    assert len(man["input_digests"][pts_csv]) == 64
    rep = payload["report"]
    assert rep["n"] == 4
    assert rep["diam"] == pytest.approx(2.0591260281974, abs=1e-9)
    assert rep["ab"][0]["a"] == 4


def test_check_reports_witness(capsys, pts_csv):
    payload = run_json(capsys, ["check", pts_csv, "--a", "3", "--b", "2", "--threshold", "0.4"])
    rep = payload["report"]
    assert not rep["holds"]
    assert len(rep["witness_indices"]) == 3
    assert len(rep["witness_points"]) == 3


def test_check_holds(capsys, pts_csv):
    payload = run_json(capsys, ["check", pts_csv, "--a", "3", "--b", "2", "--threshold", "2.0"])
    assert payload["report"]["holds"] is True
    assert payload["report"]["witness_indices"] is None


def test_jung_report(capsys, pts_csv):
    payload = run_json(capsys, ["jung", pts_csv, "--ab", "4,3"])
    rep = payload["report"]
    assert rep["covered"] is True
    assert rep["mec"]["radius"] <= rep["rho"] + 1e-9
    assert rep["ab"][0]["covered"] is True


def test_jung_on_two_points_takes_tau_zero(capsys, tmp_path):
    """diam3 of two points is 0, so tau is 0 and rho is half the diameter.
    They hold no 4-subset, so the (4, 2) row's value is 0 and it has no
    radius to compare with the enclosing circle."""
    path = tmp_path / "two.csv"
    save_points_csv(PointSet([(0, 0), (1, 0)]), path)
    rep = run_json(capsys, ["jung", str(path), "--ab", "4,2"])["report"]
    assert (rep["diam3"], rep["tau"], rep["rho"], rep["covered"]) == (0.0, 0.0, 0.5, True)
    assert rep["ab"] == [{"a": 4, "b": 2, "value": 0.0, "rho": None, "covered": None}]


@pytest.mark.parametrize("scale", [2.0**-200, 1.0, 2.0**200])
def test_jung_covered_does_not_depend_on_scale(capsys, tmp_path, scale):
    """An equilateral triangle of side 1 and its centroid: at every scale
    the enclosing circle meets rho to the last ulp, and is 10% wider than
    the (4, 2) row's rho."""
    pts = [(0.0, 0.0), (1.0, 0.0), (0.5, math.sqrt(3) / 2), (0.5, math.sqrt(3) / 6)]
    path = tmp_path / "tri.csv"
    path.write_text("".join(f"{x * scale!r},{y * scale!r}\n" for x, y in pts))
    rep = run_json(capsys, ["jung", str(path), "--ab", "4,2"])["report"]
    assert (rep["covered"], rep["ab"][0]["covered"]) == (True, False)


@pytest.mark.parametrize("command", ["diameters", "jung"])
def test_one_hull_per_point_set_command(capsys, monkeypatch, tmp_path, command):
    """diam, diam3's prefilter (above 400 points) and triameter, or diam,
    diam3 and the enclosing circle, share the point set's one hull; and
    diam3's prune and the jung report share one run of the Welzl loop."""
    rng = np.random.default_rng(12)
    r, t = 1.5 * np.sqrt(rng.uniform(0, 1, 600)), rng.uniform(0, 2 * np.pi, 600)
    path = tmp_path / "disk.csv"
    save_points_csv(PointSet(np.stack([r * np.cos(t), r * np.sin(t)], axis=1)), path)
    hull, welzl = geometry.convex_hull_indices, geometry.min_enclosing_circle
    calls, circles = [], []

    def spy(coords):
        calls.append(len(coords))
        return hull(coords)

    def circle_spy(points):
        circles.append(len(points))
        return welzl(points)

    monkeypatch.setattr(geometry, "convex_hull_indices", spy)
    monkeypatch.setattr(geometry, "min_enclosing_circle", circle_spy)
    run_json(capsys, [command, str(path)])
    assert calls == [600]
    assert circles == [600]


def test_bounds_csv_and_svg(capsys, tmp_path):
    csv_path = tmp_path / "sweep.csv"
    svg_path = tmp_path / "sweep.svg"
    payload = run_json(
        capsys,
        [
            "bounds",
            "--delta-min", "2.0",
            "--delta-max", "4.2",
            "--steps", "12",
            "--csv", str(csv_path),
            "--svg", str(svg_path),
        ],
    )
    rows = payload["report"]["rows"]
    assert len(rows) == 12
    assert rows[0]["delta"] == pytest.approx(2.0)
    assert rows[-1]["delta"] == pytest.approx(4.2)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("delta,stmt1,stmt2,stmt3")
    assert len(lines) == 13
    # out-of-window bounds are blanked in the sweep
    first = lines[1].split(",")
    assert first[3] == ""  # stmt3 not in force at delta = 2
    assert svg_path.read_text().startswith("<svg")


def test_bounds_rows_are_the_profiles_as_dicts():
    """The rows equal asdict of each profile, keys in field order, which
    the CSV header follows."""
    rows = cli._bounds_rows(1.0, 4.5, 40)
    want = [dataclasses.asdict(bound_profile(1.0 + 3.5 * k / 39)) for k in range(40)]
    assert rows == want
    assert all(list(row) == list(w) for row, w in zip(rows, want))


def test_bounds_rejects_bad_range(capsys):
    assert cli.run(["bounds", "--delta-min", "3.0", "--delta-max", "2.0"]) == 2
    assert capsys.readouterr().err == "error: need 0 < --delta-min < --delta-max < inf, got 3.0 and 2.0\n"
    assert cli.run(["bounds", "--delta-min", "1.0", "--delta-max", "2.0", "--steps", "1"]) == 2
    assert capsys.readouterr().err == "error: steps must be at least 2\n"
    # an infinite end would reach bound_profile as delta_min + inf * 0 = nan
    for command in ("bounds", "conjecture"):
        for lo, hi in (("1.0", "inf"), ("inf", "inf"), ("nan", "3.0")):
            assert cli.run([command, "--delta-min", lo, "--delta-max", hi]) == 2
            assert capsys.readouterr().err == f"error: need 0 < --delta-min < --delta-max < inf, got {lo} and {hi}\n"


def test_search_report_and_region(capsys, tmp_path):
    region_path = tmp_path / "best.json"
    payload = run_json(
        capsys,
        [
            "search",
            "--delta", "3.0",
            "--h", "0.1",
            "--iterations", "200",
            "--seed", "2",
            "--region-out", str(region_path),
        ],
    )
    rep = payload["report"]
    assert rep["best_measure"] >= rep["baseline_measure"]
    assert rep["feasibility"]["diam_ok"] and rep["feasibility"]["diam3_ok"]
    assert rep["cells"] == len(rep["region"]["cells"])
    assert any(c["name"] == "u_delta" for c in rep["candidates"])
    saved = json.loads(region_path.read_text())
    assert saved["cells"] == rep["region"]["cells"]
    assert payload["manifest"]["seed"] == 2
    assert sorted(rep["feasibility"]) == ["diam3_ok", "diam_corners", "diam_ok"]
    assert "triple_samples" not in rep["config"] and "triple_samples" not in payload["manifest"]["args"]


def test_search_rejects_the_removed_sampling_flag(capsys):
    assert cli.run(["search", "--delta", "3.0", "--iterations", "5", "--triple-samples", "10"]) == 2


def test_search_infeasible_exit_code(capsys):
    assert cli.run(["search", "--delta", "3.0", "--h", "3.0", "--iterations", "5"]) == 3


def test_search_refuses_an_oversized_seed(capsys):
    """U_3 at pitch 1e-4 spans 30,002 x 20,002 cells."""
    assert cli.run(["search", "--delta", "3.0", "--h", "0.0001", "--iterations", "5"]) == 3
    err = "error: an inner raster of pitch 0.0001 spans 600100004 cells, more than the cap of 25000000\n"
    assert capsys.readouterr().err == err


def test_conjecture_report(capsys):
    payload = run_json(capsys, ["conjecture", "--delta-min", "2.4", "--delta-max", "3.9", "--steps", "9"])
    rep = payload["report"]
    assert rep["all_below_stmt3"] is True
    assert len(rep["rows"]) == 9
    mid = rep["rows"][4]
    assert mid["u_delta"] < mid["stmt3"]
    for row in rep["rows"]:
        # the best known candidate is the envelope of U_delta and the disk
        # of diameter 4/sqrt(3)
        assert row["best_known"] == pytest.approx(max(row["u_delta"], 4 * math.pi / 3), rel=1e-15)
        assert row["best_known_below_stmt3"] is (row["best_known"] < row["stmt3"])
    assert rep["rows"][0]["best_known"] > rep["rows"][0]["u_delta"]


@pytest.mark.parametrize(
    "extra",
    [["--steps", "0"], ["--steps", "-3"], ["--steps", "1"], ["--delta-min", "3.5", "--delta-max", "2.5"]],
)
def test_conjecture_rejects_bad_grids(capsys, extra):
    assert cli.run(["conjecture", *extra]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["bounds", "conjecture"])
def test_steps_over_the_cap_exit_3_before_a_row(capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "bound_profile", lambda delta: pytest.fail("a row was built"))
    assert cli.run([command, "--delta-min", "2.5", "--delta-max", "3.5", "--steps", str(10**12)]) == 3
    assert capsys.readouterr() == ("", "error: --steps 1000000000000 is over the cap of 100000 rows\n")


def test_steps_at_the_cap_build_every_row(monkeypatch):
    monkeypatch.setattr(cli, "bound_profile", lambda delta: SimpleNamespace(delta=delta))
    rows = cli._bounds_rows(1.0, 2.0, cli._MAX_STEPS)
    assert len(rows) == cli._MAX_STEPS and rows[-1] == {"delta": 2.0}


def test_poison_default_strategy(capsys):
    payload = run_json(
        capsys,
        ["poison", "--R", "3", "--h-available", "1", "--samples", "50000", "--grid", "0.1"],
    )
    rep = payload["report"]
    assert rep["lethal"]["diam"] <= 2.0 + 2 * 0.1 * math.sqrt(2)
    assert rep["strategy"]["masses"] == [[0.0, 0.0, 1.0]]


def test_poison_strategy_file(capsys, tmp_path):
    """Two 1 g masses 3 apart on a pie of radius 4 kill 2/9 of the bites.
    Over seeds 0-99, the 95% band holds 2/9 in at least 88 runs, and the
    mean estimate lies within 3 standard errors of it."""
    strat_path = tmp_path / "strategy.json"
    strat_path.write_text(json.dumps({"masses": [[-1.5, 0.0, 1.0], [1.5, 0.0, 1.0]]}))
    covered = 0
    estimates = []
    for seed in range(100):
        payload = run_json(
            capsys,
            [
                "poison",
                "--R", "4",
                "--h-available", "2",
                "--samples", "50000",
                "--strategy", str(strat_path),
                "--seed", str(seed),
            ],
        )
        lo, hi = payload["report"]["kill"]["ci95"]
        covered += lo <= 2 / 9 <= hi
        estimates.append(payload["report"]["kill"]["estimate"])
        assert str(strat_path) in payload["manifest"]["input_digests"]
    assert covered >= 88
    assert abs(np.mean(estimates) - 2 / 9) <= 3.0 * math.sqrt(2 / 9 * 7 / 9 / (100 * 50_000))


@pytest.mark.parametrize("threads", ["0", "-2", "2", "-4"])
def test_poison_rejects_threads_below_one(capsys, threads):
    """Both subcommands that take --threads accept only 1."""
    for argv in (
        ["poison", "--R", "3", "--h-available", "1", "--samples", "1000", "--threads", threads],
        ["search", "--delta", "3", "--h", "0.1", "--iterations", "10", "--chains", "3", "--threads", threads],
    ):
        assert cli.run(argv) == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("strategy", [
    [],
    {"density": {"region": {"origin": [0.0, 0.0], "h": 0.1, "cells": [[0.5, 0]]}, "grams": 1.0}},
    # float() takes strings and booleans, which are no JSON numbers
    {"masses": [["0", True, "1"]]},
    {"masses": [[0.0, 0.0, True]]},
    {"masses": [[0.0, 0.0, 10**400]]},
    {"density": {"region": {"origin": ["0.5", True], "h": 0.1, "cells": [[0, 0]]}, "grams": 1.0}},
    {"density": {"region": {"origin": [0.0, 0.0], "h": "0.1", "cells": [[0, 0]]}, "grams": 1.0}},
    {"density": {"region": {"origin": [0.0, 0.0], "h": 0.1, "cells": [[0, 0]]}, "grams": "1"}},
])
def test_malformed_strategy_json_exits_2(capsys, tmp_path, strategy):
    strat_path = tmp_path / "strategy.json"
    strat_path.write_text(json.dumps(strategy))
    assert cli.run(["poison", "--R", "3", "--h-available", "1", "--samples", "1000", "--strategy", str(strat_path)]) == 2
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.startswith("error: malformed strategy JSON")


@pytest.mark.parametrize("extra", [[], ["--svg", "lethal.svg"]])
def test_poison_rejects_a_zero_grid(capsys, tmp_path, monkeypatch, extra):
    monkeypatch.chdir(tmp_path)
    argv = ["poison", "--R", "3", "--h-available", "1", "--samples", "1000", "--grid", "0", *extra]
    assert cli.run(argv) == 2
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err == "error: pitch h must be finite and > 0, got 0.0\n"
    assert not (tmp_path / "lethal.svg").exists()


def test_poison_rejects_mismatched_supply(capsys, tmp_path):
    strat_path = tmp_path / "strategy.json"
    strat_path.write_text(json.dumps({"masses": [[0.0, 0.0, 1.0]]}))
    code = cli.run(["poison", "--R", "3", "--h-available", "2", "--strategy", str(strat_path)])
    assert code == 2


def test_circle_report(capsys, tmp_path):
    arcs_path = tmp_path / "arcs.json"
    arcs_path.write_text(json.dumps({"r": 2.0, "arcs": [[0.0, 1.4], [2.2, 3.6], [4.4, 5.8]]}))
    payload = run_json(capsys, ["circle", str(arcs_path)])
    rep = payload["report"]
    assert rep["bound"] == pytest.approx(8 * math.pi / 3)
    assert rep["holds"] is False
    assert len(rep["witness"]) == 3
    assert payload["manifest"]["args"] == {"arcs": str(arcs_path), "out": None, "timestamp": None}


def test_circle_normalizes_the_arcs_it_loads(capsys, tmp_path):
    """Arcs out of order, overlapping, crossing zero and starting below
    zero load as their normalized arcs, and give their report."""
    raw, normalized = tmp_path / "raw.json", tmp_path / "normalized.json"
    raw.write_text(json.dumps({"r": 2.0, "arcs": [[4.4, 5.8], [2.9, 3.6], [2.2, 3.0], [0.5, 1.4], [6.0, 6.8],
                                                  [-0.2, 0.6]]}))
    normalized.write_text(json.dumps({"r": 2.0, "arcs": [[0.0, 1.4], [2.2, 3.6], [4.4, 5.8], [6.0, 2 * math.pi]]}))
    rep = run_json(capsys, ["circle", str(raw)])["report"]
    assert rep == run_json(capsys, ["circle", str(normalized)])["report"]
    assert rep["holds"] is False and rep["measure"] == pytest.approx(2.0 * (4.2 + 2 * math.pi - 6.0))


def test_circle_rejects_the_removed_sampling_flag(capsys, tmp_path):
    arcs_path = tmp_path / "arcs.json"
    arcs_path.write_text(json.dumps({"r": 2.0, "arcs": [[0.0, 1.4]]}))
    assert cli.run(["circle", str(arcs_path), "--samples-per-arc", "64"]) == 2


@pytest.mark.parametrize("arcs", [
    {"r": "3", "arcs": [["0", True]]},
    {"r": 3.0, "arcs": [[0.0, "1"]]},
    {"r": True, "arcs": [[0.0, 1.0]]},
    {"r": 3.0, "arcs": [[False, 1.0]]},
])
def test_malformed_arc_json_exits_2(capsys, tmp_path, arcs):
    arcs_path = tmp_path / "arcs.json"
    arcs_path.write_text(json.dumps(arcs))
    assert cli.run(["circle", str(arcs_path)]) == 2
    err = capsys.readouterr()
    assert err.out == ""
    assert err.err.startswith("error: malformed arc JSON")


def _bench_oracles():
    """bench/oracles.py: the benchmark's checks of the CLI's output files."""
    spec = importlib.util.spec_from_file_location("bench_oracles", Path(__file__).parents[1] / "bench" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_oracles_read_the_cli_outputs(capsys, tmp_path, monkeypatch):
    """A region or report format the benchmark cannot read fails here."""
    oracles = _bench_oracles()
    monkeypatch.chdir(tmp_path)
    patch = DensityPatch(region=rasterize(DiskUnion(((0.2, 0.0, 0.5),)), 0.05), grams=1.0)
    Path("patch.json").write_text(json.dumps(PoisonStrategy(density=patch).to_json_dict()))
    search = ["search", "--delta", "3", "--h", "0.1", "--iterations", "2000", "--seed", "1"]
    assert cli.run([*search, "--region-out", "best.json", "--out", "search.json"]) == 0
    poison = ["poison", "--R", "3", "--h-available", "1", "--strategy", "patch.json", "--samples", "20000"]
    assert cli.run([*poison, "--grid", "0.05", "--out", "poison.json"]) == 0
    # point masses only: six 0.25 g masses on a hexagon, like the tour's
    hexagon = [[0.6 * math.cos(math.pi * k / 3), 0.6 * math.sin(math.pi * k / 3), 0.25] for k in range(6)]
    Path("masses.json").write_text(json.dumps({"masses": hexagon}))
    masses = ["poison", "--R", "3", "--h-available", "1.5", "--strategy", "masses.json", "--samples", "20000"]
    assert cli.run([*masses, "--grid", "0.05", "--out", "masses-report.json"]) == 0
    assert capsys.readouterr().out == ""
    assert oracles.check_search(tmp_path, ("search.json", "best.json"), 3.0, 0.1, 2000, "best.json") == []
    assert oracles.check_poison(tmp_path, ("poison.json",)) == []
    assert oracles.check_poison(tmp_path, ("masses-report.json",)) == []


def test_circle_small_radius_skips_check(capsys, tmp_path):
    arcs_path = tmp_path / "arcs.json"
    arcs_path.write_text(json.dumps({"r": 1.0, "arcs": [[0.0, 1.0]]}))
    payload = run_json(capsys, ["circle", str(arcs_path)])
    rep = payload["report"]
    assert rep["bound"] is None and rep["holds"] is None
    assert rep["measure"] == pytest.approx(1.0)


def test_exit_codes_for_bad_input(capsys, pts_csv, tmp_path):
    assert cli.run(["diameters", "definitely-missing.csv"]) == 2
    assert cli.run(["diameters", pts_csv, "--ab", "nonsense"]) == 2
    assert cli.run(["diameters", pts_csv, "--ab", "4,x"]) == 2
    assert "argument --ab: expected a,b (two comma separated integers)" in capsys.readouterr().err
    assert cli.run(["check", pts_csv, "--a", "2", "--b", "3", "--threshold", "1"]) == 2
    assert cli.run([]) == 2  # no subcommand
    empty, same = tmp_path / "empty.csv", tmp_path / "same.csv"
    empty.write_text("# no points\n")
    same.write_text("1,1\n1,1\n")
    capsys.readouterr()
    assert cli.run(["diameters", str(empty)]) == 2
    assert cli.run(["jung", str(same)]) == 2
    assert capsys.readouterr().err == f"error: {empty}: no points\nerror: need at least two distinct points\n"


def test_exit_code_budget(capsys, pts_csv):
    assert cli.run(["diameters", pts_csv, "--ab", "3,2", "--budget", "1"]) == 3


def test_check_exit_code_budget(capsys, pts_csv, tmp_path):
    out = tmp_path / "report.json"
    argv = ["check", pts_csv, "--a", "3", "--b", "2", "--threshold", "2", "--budget", "1"]
    assert cli.run(argv) == 3
    assert capsys.readouterr().out == ""
    assert cli.run([*argv, "--out", str(out)]) == 3
    assert not out.exists()


@pytest.mark.parametrize(
    "argv", [["check", "--a", "3", "--b", "2", "--threshold", "2"], ["diameters", "--ab", "3,2"]], ids=["check", "diameters"]
)
def test_negative_budget_is_bad_input(capsys, pts_csv, argv):
    assert cli.run([argv[0], pts_csv, *argv[1:], "--budget", "-1"]) == 2
    assert capsys.readouterr().err == "error: subset budget must be >= 0, got -1\n"


def test_version_flag(capsys):
    assert cli.run(["--version"]) == 0
    assert "isodiam" in capsys.readouterr().out


def test_the_parser_built_once_answers_as_a_fresh_one(capsys, pts_csv):
    """run keeps one parser per process. Calls after a good or a bad one
    print the bytes and return the codes of calls on a fresh parser; an
    --ab list does not carry over into the next call's default."""
    with_ab = ["diameters", pts_csv, "--ab", "4,2"]
    bad = ["diameters", pts_csv, "--ab", "4"]
    plain = ["diameters", pts_csv]

    def call(argv, fresh):
        if fresh:
            cli._parser.cache_clear()
        code = cli.run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    sequence = [with_ab, bad, plain, bad, with_ab]
    expected = [call(argv, fresh=True) for argv in sequence]
    assert [code for code, _, _ in expected] == [0, 2, 0, 2, 0]
    assert [call(argv, fresh=False) for argv in sequence] == expected


def test_out_file_instead_of_stdout(capsys, pts_csv, tmp_path):
    out = tmp_path / "report.json"
    code = cli.run(["diameters", pts_csv, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(out.read_text())["schema"] == 1


def test_reruns_are_byte_identical(pts_csv, tmp_path):
    out = tmp_path / "report.json"
    argv = ["jung", pts_csv, "--timestamp", "2026-02-02T00:00:00Z", "--out", str(out)]
    assert cli.run(argv) == 0
    first = out.read_bytes()
    assert cli.run(argv) == 0
    assert out.read_bytes() == first


PINNED_POINTS = [(0.0, 0.0), (2.0, 0.0), (1.0, 1.8), (0.5, 0.2), (1.7, 1.1), (-0.4, 0.9), (0.9, -0.6), (1.3, 0.4)]
PINNED_STRATEGY = {
    "masses": [[0.8, 0.0, 0.6], [-0.5, 0.3, 0.4]],
    "density": {
        "grams": 0.5,
        "region": {"origin": [0.0, 0.0], "h": 0.1, "cells": [[i, j] for i in range(-3, 3) for j in range(-2, 2)]},
    },
}

PINNED_ARCS = {"r": 2.0, "arcs": [[0.0, 1.4], [2.2, 3.6], [4.4, 5.8]]}

# 1,200 points, above diameters._PREFILTER_MIN, so diam3 takes its
# sub-sampled floor and its banded pair build
PINNED_LARGE = np.random.default_rng(13).uniform(-1.5, 1.5, size=(1200, 2))

PINNED_ARGV = {
    "diameters": ["diameters", "pts.csv", "--ab", "4,2", "--ab", "5,3"],
    "jung": ["jung", "pts.csv", "--ab", "4,3"],
    "diameters-1200": ["diameters", "large.csv"],
    "jung-1200": ["jung", "large.csv"],
    "bounds": ["bounds", "--delta-min", "1", "--delta-max", "4.5", "--steps", "9", "--csv", "out.csv"],
    "poison": ["poison", "--R", "3", "--h-available", "1.5", "--strategy", "strategy.json", "--samples", "20000",
               "--grid", "0.1", "--seed", "3"],
    "search": ["search", "--delta", "3", "--h", "0.15"],
    "poison-svg": ["poison", "--R", "3", "--h-available", "1.5", "--strategy", "strategy.json", "--samples", "20000",
                   "--grid", "0.1", "--seed", "3", "--svg", "out.svg"],
    "search-svg": ["search", "--delta", "3", "--h", "0.15", "--svg", "out.svg"],
    "conjecture-svg": ["conjecture", "--steps", "9", "--svg", "out.svg"],
    "check": ["check", "pts.csv", "--a", "3", "--b", "2", "--threshold", "0.9"],
    "circle": ["circle", "arcs.json"],
}

# sha256 of json.dumps(report, sort_keys=True) for each run, and of the CSV
# or SVG it writes, if any: a change to the code behind a report that moves
# one of its bytes fails here
PINNED_DIGESTS = {
    "diameters": ("a64e63cb59eb7a8364759018469bed3ba440a948dcff691bce092f0f3050dce0", None),
    "jung": ("5e06fa83ad8ce1718b298d2fd9b66f3b8117e8ce833990e55c2ed403fca38147", None),
    "diameters-1200": ("ee4f27d778100b7cda8145f106655ad8ee9ef9851bc10a4fc405bda0d90f4582", None),
    "jung-1200": ("36e7ecaf5d4836abd5350e0be9e2e91c26a5257b8524f3be015165b4d294c070", None),
    "bounds": (
        "018405177d3339d900bb4a171fc592d2306b0cdf753e19a186e9f8d0421113b1",
        "44114ca5e90caade60235ca4c9c38869356469104284fef3721cf69cf11181a7",
    ),
    "poison": ("18f1c96887a6e96ee56460ba0baa0be575dd5b709663c3d80b5754254c3acc9a", None),
    "search": ("06990049293a95c0f3b1328d38790dae20a6bc9f4ffacbaf3f399bbf2eaa4cf4", None),
    "poison-svg": (
        "18f1c96887a6e96ee56460ba0baa0be575dd5b709663c3d80b5754254c3acc9a",
        "16aa35cd7151e44a22c4e773e88fbbfda721e4a467c9f506a97e39375d0dec6c",
    ),
    "search-svg": (
        "06990049293a95c0f3b1328d38790dae20a6bc9f4ffacbaf3f399bbf2eaa4cf4",
        "4512b94ca5b6c783253f9ff7ad4f75b3f09812a536544319c3e8d8fb49c90cf1",
    ),
    "conjecture-svg": (
        "5186d3aafe847b8a0a4ccaff7ca6b5a48008f637bd17764b9209e5188051cb95",
        "614fd7a8a6129cf9b40b6ba8f9682d4302788c070bfb437254b89fe59c406298",
    ),
    "check": ("8169395472ce0c83052549a8dc7c7097330fc2b28d35e32e3db15c6f811c87b9", None),
    "circle": ("795cbfac6db45f325e1ee3d1fd8e30215a79ee66861f37030c69f1f1165371fb", None),
}

# the Jung verdicts of the pinned jung runs, (covered, covered of each --ab
# row): a re-pin that moves the circle's floats must leave them as they are
PINNED_COVERED = {"jung": (True, [True]), "jung-1200": (True, [])}

# sha256 of each report file as written, with the timestamp pinned: a change
# of the writer's indentation, key order or float text fails here
PINNED_FILE_DIGESTS = {
    "diameters": "4c010dd2fc0e10f9b3fa0b6a71c8857ed50b36cc6251017bd798b820c055a296",
    "jung": "3e4e058d4a1d07afe7659e3b606c0f2b39be2dfd01694b10c8dc093e0aae77a9",
    "diameters-1200": "b284eb0dc6e3e1b0febd17c0ef7c2f3c2957bcfe6f3702af2ed867c2d4979c28",
    "jung-1200": "8de699ff027fe3fe200da24bdc3a17a92bea8c82f1d81566e9b76e2e7966d566",
    "bounds": "ae7c1883731a22a901edbe14498b1500d722244f846cc3ec277f52d461988279",
    "poison": "a5db973567eadefaa51a8078e2f701fe761ccddcd09de5c35a9264a012f42999",
    "search": "6982265639f18f9f278c746ce23bf62deac981232d2ffd171c25b85ff16bf25d",
    "poison-svg": "0dbd597e4939e2b14dd9f1da4d00871897ea6238d44a5841ffe1c2d7079b35aa",
    "search-svg": "6493adca8224c1bb3dcea0286a4456f32d93e139f25ec95254cf981b83a96947",
    "conjecture-svg": "ee7866873163f4ca4a27cea6c31ca92ede86e8015d7e33ddf95096f0e17bedd1",
    "check": "315c85e00dcaa700216baf02236bb56bc7f7dea1cb0ff2ba9c300833bb20859f",
    "circle": "61e3615195f476595cdd8026b18508585a5890a45dd3984c8c115a927abad613",
}


@pytest.mark.parametrize("name", list(PINNED_ARGV))
def test_report_bytes_are_pinned(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    save_points_csv(PointSet(PINNED_POINTS), "pts.csv")
    save_points_csv(PointSet(PINNED_LARGE), "large.csv")
    Path("strategy.json").write_text(json.dumps(PINNED_STRATEGY))
    Path("arcs.json").write_text(json.dumps(PINNED_ARCS))
    argv = PINNED_ARGV[name]
    assert cli.run([*argv, "--out", "report.json", "--timestamp", "2026-01-01T00:00:00Z"]) == 0
    written = Path("report.json").read_bytes()
    report = json.loads(written)["report"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    side = next((argv[k + 1] for k, flag in enumerate(argv) if flag in ("--csv", "--svg")), None)
    side_digest = hashlib.sha256(Path(side).read_bytes()).hexdigest() if side else None
    if name in PINNED_COVERED:
        assert (report["covered"], [row["covered"] for row in report["ab"]]) == PINNED_COVERED[name]
    assert (digest, side_digest) == PINNED_DIGESTS[name]
    assert hashlib.sha256(written).hexdigest() == PINNED_FILE_DIGESTS[name]


def dumps_reference(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, allow_nan=False)


_INTS = st.integers() | st.integers(min_value=-(2**80), max_value=2**80)
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([1e16, -0.0, 5e-324, 1e-7, 0.1, 2.0**53])
# every code point, lone surrogates and control characters included
_TEXT = st.text(st.characters(blacklist_categories=()), max_size=8)
_INT_PAIRS = st.lists(st.tuples(_INTS, _INTS).map(list) | st.tuples(_INTS, _INTS), max_size=8)
_LEAVES = st.none() | st.booleans() | _INTS | _FLOATS | _TEXT | _INT_PAIRS
_REPORTS = st.recursive(
    _LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_REPORTS)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [[], {}], "c": ()})
@example({"cells": [[0, 1], (-3, 2**70)], "mixed": [[1, True], [2, 2.0], [3], [4, 5, 6]]})
@example({"\u00e9\x00\x1f\ud800\U0001f600": "\u2028\"\\"})
@example([np.float64(0.1), 1e16, -0.0, 5e-324])
def test_report_writer_equals_json_dumps(value):
    assert cli._dumps(value) == dumps_reference(value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_report_writer_rejects_non_finite_floats(bad):
    for value in (bad, [1, bad], {"a": [[0, 1], (2, bad)]}):
        with pytest.raises(ValueError):
            dumps_reference(value)
        with pytest.raises(ValueError):
            cli._dumps(value)


@pytest.mark.parametrize("bad", [{1, 2}, object(), np.int64(3), b"bytes"])
def test_report_writer_rejects_unsupported_types(bad):
    for value in (bad, [bad], {"a": [[0, 1], bad]}):
        with pytest.raises(TypeError):
            dumps_reference(value)
        with pytest.raises(TypeError):
            cli._dumps(value)
    with pytest.raises(TypeError):
        cli._dumps({1: "int keys are not report keys"})


def test_a_non_finite_report_value_exits_2(capsys, pts_csv, monkeypatch):
    monkeypatch.setattr(cli, "_resolve_timestamp", lambda ns: math.nan)
    assert cli.run(["diameters", pts_csv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "not JSON compliant" in captured.err


def test_timestamp_flag_beats_env(capsys, pts_csv):
    payload = run_json(capsys, ["diameters", pts_csv, "--timestamp", "1999-12-31T23:59:59Z"])
    assert payload["manifest"]["timestamp"] == "1999-12-31T23:59:59Z"


def test_cli_import_loads_no_scipy():
    """The CLI's cold start stays free of scipy, whose import alone took
    longer than most subcommands."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import isodiam.cli, sys; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize(
    "argv",
    [
        ["diameters", "disk.csv"],
        ["jung", "disk.csv"],
        ["poison", "--R", "3", "--h-available", "1.5", "--samples", "20000", "--grid", "0.05"],
        ["search", "--delta", "3", "--h", "0.15"],
    ],
    ids=["diameters", "jung", "poison-grid", "search"],
)
def test_cli_calls_never_import_numpy_ma(argv, tmp_path):
    """np.unique and np.union1d (numpy >= 2.3) import numpy.ma the first
    time in a process, which took 11-17 ms. A fresh process that runs
    diameters or jung on 1,000 points, where diam3 takes its prefilter,
    poison with a lethal grid, or search never imports it."""
    rng = np.random.default_rng(0)
    save_points_csv(PointSet(map(tuple, rng.uniform(-1.5, 1.5, (1000, 2)))), tmp_path / "disk.csv")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys; from isodiam.cli import run; code = run(sys.argv[1:]); print(code, 'numpy.ma' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code, *argv, "--out", "out.json"], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["0", "False"]


def run_capped(argv, cwd):
    """Run the CLI in a child that caps its own address space at 2 GiB, so
    a large allocation fails the same way whatever the host's overcommit
    policy."""

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    code = "import sys; from isodiam.cli import run; sys.exit(run(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap_address_space,
    )


def test_diam3_of_100k_points_is_refused_under_a_2gib_address_space(tmp_path):
    """100,000 points load within a 2 GiB address space, and diam3, which
    would need 5e9 pairs, is refused by its pair cap before any pair is
    built: exit 3 with a one-line error, not a traceback."""
    rng = np.random.default_rng(0)
    save_points_csv(PointSet(map(tuple, rng.uniform(-1.0, 1.0, (100_000, 2)))), tmp_path / "big.csv")
    out = run_capped(["diameters", "big.csv"], tmp_path)
    assert out.returncode == 3, out.stderr
    assert out.stderr == "error: diam3 of 100000 points needs 4999950000 pairs, more than the cap of 25000000\n"


@pytest.mark.parametrize(
    "exc, line",
    [
        (MemoryError("Unable to allocate 1.00 TiB for an array with shape (2, 68719476736)"),
         "error: Unable to allocate 1.00 TiB for an array with shape (2, 68719476736)\n"),
        (MemoryError(), "error: out of memory\n"),  # what a failed Python allocation raises
    ],
    ids=["numpy-message", "no-message"],
)
def test_memory_error_in_a_subcommand_exits_3(monkeypatch, capsys, exc, line):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "kill_probability", exhausted)
    assert cli.run(["poison", "--R", "3", "--h-available", "1", "--samples", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line


def test_oversized_diam3_is_refused_before_allocating(tmp_path):
    """diam3 of 20,000 points would measure 2e8 pairs, eight times the
    cap on its work."""
    rng = np.random.default_rng(1)
    save_points_csv(PointSet(map(tuple, rng.uniform(-1.0, 1.0, (20_000, 2)))), tmp_path / "big.csv")
    out = run_capped(["diameters", "big.csv"], tmp_path)
    assert out.returncode == 3, out.stderr
    assert out.stderr == "error: diam3 of 20000 points needs 199990000 pairs, more than the cap of 25000000\n"


def test_triameter_of_a_large_hull_is_refused(capsys, tmp_path):
    """Every one of 2,000 points on a circle is a hull vertex, and
    triameter would measure 1.3e9 triples of them, five times its cap."""
    t = np.arange(2000) * (2.0 * math.pi / 2000)
    save_points_csv(PointSet(np.column_stack([np.cos(t), np.sin(t)])), tmp_path / "ring.csv")
    assert cli.run(["diameters", str(tmp_path / "ring.csv")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: triameter of 2000 hull vertices needs 1331334000 triples, more than the cap of 250000000\n"
    )


def test_an_over_cap_hull_is_refused_before_diam3(monkeypatch, capsys, tmp_path):
    """1,200 cocircular points give triameter 2.9e8 hull triples, over its
    cap, and diameters refuses them before it measures diam3."""
    t = np.arange(1200) * (2.0 * math.pi / 1200)
    save_points_csv(PointSet(np.column_stack([np.cos(t), np.sin(t)])), tmp_path / "ring.csv")
    calls = []
    monkeypatch.setattr(cli, "diam3", lambda points: calls.append(points))
    assert cli.run(["diameters", str(tmp_path / "ring.csv")]) == 3
    assert capsys.readouterr().out == ""
    assert calls == []


def test_an_over_budget_ab_is_refused_before_jung_measures(monkeypatch, capsys, tmp_path):
    """jung refuses --ab 5,3 on 8 points, 56 subsets over a budget of 1,
    before diam3 and the enclosing circle run, as diameters does."""
    save_points_csv(PointSet(PINNED_POINTS), tmp_path / "pts.csv")
    calls = []
    monkeypatch.setattr(cli, "diam3", lambda points: calls.append("diam3"))
    monkeypatch.setattr(geometry, "min_enclosing_circle", lambda points: calls.append("mec"))
    assert cli.run(["jung", str(tmp_path / "pts.csv"), "--ab", "5,3", "--budget", "1"]) == 3
    assert capsys.readouterr().out == ""
    assert calls == []


def test_oversized_lethal_grid_is_refused_before_allocating(tmp_path):
    """A lethal-region grid of pitch 1e-4 on the radius-2 sampling disk has
    1.6e9 cells, 12.8 GB per coordinate array."""
    argv = ["poison", "--R", "3", "--h-available", "1", "--samples", "10", "--grid", "0.0001"]
    out = run_capped(argv, tmp_path)
    assert out.returncode == 3, out.stderr
    assert out.stderr == "error: a raster of pitch 0.0001 needs 1600240009 cells, more than the cap of 25000000\n"



@pytest.mark.parametrize(
    "argv, code, named",
    [
        (["poison", "--R", "3", "--h-available", "1", "--samples", "10", "--grid", "1e-320"], 3, "pitch 1e-320"),
        (["search", "--delta", "3", "--h", "1e-320", "--iterations", "1"], 3, "pitch 1e-320"),
        (["poison", "--R", "1e308", "--h-available", "1", "--samples", "10"], 2, "pie radius 1e+308"),
        (["poison", "--R", "1e200", "--h-available", "1", "--samples", "1000"], 2, "pie radius 1e+200"),
        (["bounds", "--delta-min", "1", "--delta-max", "1e308", "--steps", "3"], 2, "delta=5e+307"),
        (["jung", "tiny.csv"], 2, "tiny.csv:2: nonzero coordinates must have magnitudes in [2**-250, 2**250]"),
        (["diameters", "tiny.csv"], 2, "tiny.csv:2: nonzero coordinates"),
        (["diameters", "huge.csv"], 2, "huge.csv:2: nonzero coordinates"),
        (["jung", "huge.csv"], 2, "huge.csv:2: nonzero coordinates"),
        (["circle", "huge_arc.json"], 2, "r=3e+307"),
    ],
    ids=[
        "raster-extent-overflows", "seed-extent-overflows", "sampling-square-overflows",
        "sampling-square-squared-overflows", "bound-overflows", "jung-squares-underflow",
        "diameters-squares-underflow", "diameters-squares-overflow", "jung-squares-overflow",
        "circle-bound-overflows",
    ],
)
@pytest.mark.filterwarnings("error")
def test_overflowing_inputs_exit_with_one_error_line(capsys, tmp_path, monkeypatch, argv, code, named):
    """A pitch so fine that the grid's extent is infinite is refused by the
    raster cap, and input whose arithmetic overflows is bad input: an exit
    code and one error line naming the input, not a traceback or a numpy
    warning. Point files whose squared differences would underflow or
    overflow are refused at the first such line."""
    monkeypatch.chdir(tmp_path)
    rng = np.random.default_rng(4)
    for name, scale in (("tiny.csv", 1e-170), ("huge.csv", 1e200)):
        # 50 distinct points, the first one at the origin, inside the window
        pts = np.concatenate([[[0.0, 0.0]], rng.uniform(-1.0, 1.0, size=(49, 2)) * scale])
        # as text: a PointSet refuses these coordinates
        Path(name).write_text("".join(f"{x!r},{y!r}\n" for x, y in pts.tolist()), encoding="utf-8")
    # 4*pi*r overflows although (4/3)*pi*r does not
    Path("huge_arc.json").write_text(json.dumps({"r": 3e307, "arcs": [[0, 1]]}), encoding="utf-8")
    assert cli.run(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert named in captured.err

# every subcommand's option strings (positionals by name); adding or
# removing a knob changes this table
PARSER_OPTIONS = {
    "diameters": ["-h", "--help", "points", "--ab", "--budget", "--out", "--timestamp"],
    "check": ["-h", "--help", "points", "--a", "--b", "--threshold", "--budget", "--out", "--timestamp"],
    "jung": ["-h", "--help", "points", "--ab", "--budget", "--out", "--timestamp"],
    "bounds": ["-h", "--help", "--delta-min", "--delta-max", "--steps", "--csv", "--svg", "--out", "--timestamp"],
    "search": [
        "-h", "--help", "--delta", "--h", "--iterations", "--chains", "--threads",
        "--region-out", "--svg", "--out", "--timestamp", "--seed",
    ],
    "conjecture": ["-h", "--help", "--delta-min", "--delta-max", "--steps", "--svg", "--out", "--timestamp"],
    "poison": [
        "-h", "--help", "--R", "--h-available", "--dose", "--samples", "--strategy", "--grid", "--threads",
        "--svg", "--out", "--timestamp", "--seed",
    ],
    "circle": ["-h", "--help", "arcs", "--out", "--timestamp"],
}


def test_parser_options_are_pinned():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {
        name: [opt for action in sub._actions for opt in (action.option_strings or [action.dest])]
        for name, sub in subparsers.choices.items()
    }
    assert found == PARSER_OPTIONS
    top = [opt for action in parser._actions for opt in action.option_strings]
    assert top == ["-h", "--help", "--version"]


def readme_cli_lines() -> list[list[str]]:
    """The isodiam command lines of README's CLI block, split as a shell
    would, comments dropped, without the leading isodiam."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("isodiam ")]


def test_readme_cli_lines_parse():
    """Every documented invocation parses, and the block shows every
    subcommand."""
    lines = readme_cli_lines()
    parser = cli.build_parser()
    for argv in lines:
        assert parser.parse_args(argv).subcommand == argv[0]
    assert sorted(argv[0] for argv in lines) == sorted(PARSER_OPTIONS)


def test_readme_library_example_runs():
    """README's python block runs as written against the package."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Library example\n", 1)[1].split("```python\n", 1)[1].split("```\n", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
