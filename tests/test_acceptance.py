"""End-to-end acceptance checks for the headline guarantees of the package.

Each numbered test pins one guarantee at its stated tolerance, so the
`pytest -v` output reads as a pass/fail scorecard. These deliberately
overlap the per-module suites; the point here is the top-level contract,
not coverage.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from cell_oracles import minkowski_difference
from geometry_oracles import save_points_csv
from isodiam import cli
from isodiam.bounds import (
    DISK_REGIME_MAX,
    TWO_PI,
    convex_blaschke_interior,
    convex_improved_interior,
    crossover,
    gen_jung_radius,
    stmt3_interior,
    symmetric_interior,
    ta2_bound,
)
from isodiam.diameters import diam, diam3
from isodiam.geometry import (
    DiskUnion,
    Point,
    PointSet,
    circumcircle,
    min_enclosing_circle,
)
from isodiam.poisoning import PointMass, PoisonConfig, PoisonStrategy, kill_probability, lethal_region
from isodiam.regions import (
    ArcSet,
    PixelRegion,
    arc_measure,
    arc_tab_check,
    lens_area,
    rasterize,
    inner_raster,
    region_diam,
    u_delta_measure,
)
from isodiam.search import _caps, _largest_k

SQRT2 = math.sqrt(2.0)


def test_01_random_sets_fit_in_generalized_jung_disk():
    """10,000 seeded point sets: the enclosing circle never beats the
    radius promised by the (diam, diam3) formula."""
    rng = np.random.default_rng(12345)
    t0 = time.perf_counter()
    violations = 0
    for _ in range(10_000):
        n = int(rng.integers(2, 13))
        pts = PointSet(map(tuple, rng.uniform(0.0, 5.0, size=(n, 2))))
        delta = diam(pts)
        tau = max(diam3(pts), 1e-6)
        rho = gen_jung_radius(delta, tau)
        if min_enclosing_circle(pts).radius > rho + 1e-9:
            violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 60.0, f"covering sweep took {elapsed:.1f}s"


def test_02_isosceles_circumradius_matches_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(50):
        delta = float(rng.uniform(0.5, 6.0))
        tau = delta * float(rng.uniform(0.05, 1.0))
        apex_h = math.sqrt(delta * delta - tau * tau / 4.0)
        disk = circumcircle(Point(-tau / 2.0, 0.0), Point(tau / 2.0, 0.0), Point(0.0, apex_h))
        assert disk is not None
        assert disk.radius == pytest.approx(gen_jung_radius(delta, tau), abs=1e-9)


def test_03_equal_tau_reduces_to_jung():
    for delta in np.linspace(0.05, 10.0, 100):
        d = float(delta)
        assert gen_jung_radius(d, d) == pytest.approx(d / math.sqrt(3.0), abs=1e-12)


def test_04_area_bound_crossovers_match_expected_values():
    """The interior bound expressions cross 2*pi where they should."""
    improved = crossover(convex_improved_interior, TWO_PI, 1.5, 4.5)
    assert improved == pytest.approx(2.612, abs=0.01)
    symmetric = crossover(symmetric_interior, TWO_PI, 1.5, 4.5)
    assert symmetric == pytest.approx(math.sqrt(28.0 / 3.0), abs=1e-6)
    blaschke = crossover(convex_blaschke_interior, TWO_PI, 1.5, 4.5)
    assert blaschke == pytest.approx(3.0 * math.sqrt(3.0) / 2.0, abs=1e-6)


@pytest.mark.xfail(
    strict=True,
    reason="the rounded target 2.85 sits 0.0126 from the actual stmt3 root "
    "2.8625749..., outside the 0.01 window; see the companion test for the "
    "value the bisection does produce",
)
def test_04_stmt3_crossover_hits_rounded_target():
    root = crossover(stmt3_interior, TWO_PI, 1.5, 4.5)
    assert root == pytest.approx(2.85, abs=0.01)


def test_04_stmt3_crossover_true_root():
    root = crossover(stmt3_interior, TWO_PI, 1.5, 4.5)
    assert root == pytest.approx(2.8625749040714124, abs=1e-7)


def test_05_extremal_rasters_have_expected_measure_and_pass_checks():
    """Inner rasters of the extremal disk unions, each certified exactly.

    An inner raster covers the points at least h*sqrt(2) inside its
    shape, so its measure lies between area - sqrt(2)*h*perimeter and the
    area. The disk of diameter 4/sqrt(3) is a T(3,2)-set once every cell
    corner lies within 2/sqrt(3) of its center: three points pairwise more
    than 2 apart need an enclosing disk of radius above 2/sqrt(3), since
    an acute triangle's smallest side faces an angle of at most 60
    degrees, and an obtuse or right triangle's longest side exceeds
    2*sqrt(2). Each row's extreme corners span the rest of the row, so
    checking them in Fraction covers every corner. A union of a - 1 far
    disks is a T(a,2)-set once each disk's cells have largest corner
    metric at most far_cap: of any a points two share a disk's cells and
    lie within 2 of each other.
    """
    h = 0.01
    disk = inner_raster(DiskUnion(((0.0, 0.0, DISK_REGIME_MAX / 2.0),)), h)
    assert 4.0 * math.pi / 3.0 - SQRT2 * h * TWO_PI * DISK_REGIME_MAX / 2.0 <= disk.measure <= 4.0 * math.pi / 3.0
    starts = disk.row_starts
    first, last = disk.cells[starts[:-1]], disk.cells[starts[1:] - 1]
    corners = np.concatenate([first, first + [1, 0], last + [0, 1], last + [1, 1]])
    assert int((corners**2).sum(axis=1).max()) * Fraction(h) ** 2 <= Fraction(4, 3)

    _, far_cap = _caps(2.0, h)
    # a = 3 is the pair of far disks
    for a in (3, 4, 5):
        chain = inner_raster(DiskUnion(tuple((5.0 * k, 0.0, 1.0) for k in range(a - 1))), h)
        area = ta2_bound(a)
        assert area - SQRT2 * h * (a - 1) * TWO_PI <= chain.measure <= area
        # the disks' cells, split where a row is skipped
        i = chain.cells[:, 0]
        groups = np.split(chain.cells, np.flatnonzero(np.diff(i) > 1) + 1)
        assert len(groups) == a - 1
        assert all(_largest_k(g[:, 0], g[:, 1]) <= far_cap for g in groups)


def test_06_two_disk_union_stays_below_area_bound_and_lens_mc():
    t0 = time.perf_counter()
    for delta in np.linspace(DISK_REGIME_MAX, 4.0, 102)[1:-1]:
        d = float(delta)
        assert u_delta_measure(d) < min(stmt3_interior(d), TWO_PI)

    # lens_area(1) against brute Monte Carlo over the [0,1] x [-1,1] box
    n = 10_000_000
    rng = np.random.default_rng(31415)
    xs = rng.uniform(0.0, 1.0, size=n)
    ys = rng.uniform(-1.0, 1.0, size=n)
    inside = (xs * xs + ys * ys <= 1.0) & ((xs - 1.0) ** 2 + ys * ys <= 1.0)
    p = float(inside.mean())
    estimate = 2.0 * p
    se = 2.0 * math.sqrt(p * (1.0 - p) / n)
    assert abs(estimate - lens_area(1.0)) <= 3.0 * se
    assert time.perf_counter() - t0 < 120.0


def _arcset_above_two_thirds(rng, r):
    """Random ArcSet with total arc length comfortably above (4/3)*pi*r."""
    k = int(rng.integers(3, 9))
    total = 4.0 * math.pi / 3.0 + 0.05 + float(rng.uniform(0.0, 0.25))
    widths = total * rng.dirichlet(np.ones(k))
    gap_total = 2.0 * math.pi - total
    gaps = 0.01 + rng.dirichlet(np.ones(k)) * (gap_total - 0.01 * k)
    intervals = []
    t = float(rng.uniform(0.0, 2.0 * math.pi))
    for w, g in zip(widths, gaps):
        intervals.append((t, t + float(w)))
        t += float(w) + float(g)
    return ArcSet.from_intervals(r, intervals)


def test_07_heavy_arc_sets_always_violate_chord_check():
    rng = np.random.default_rng(271828)
    for r in (1.2, 1.5, 2.0, 3.0):
        for _ in range(250):
            arcs = _arcset_above_two_thirds(rng, r)
            assert arc_measure(arcs) > (4.0 / 3.0) * math.pi * r
            result = arc_tab_check(arcs)
            assert result.holds is False
            assert result.witness is not None


def _raster_disk_union(disks, h):
    """Center-sampled raster of a union of disks, independent of rasterize."""
    cells = set()
    for cx, cy, r in disks:
        i_lo = math.floor((cx - r) / h) - 1
        i_hi = math.ceil((cx + r) / h) + 1
        j_lo = math.floor((cy - r) / h) - 1
        j_hi = math.ceil((cy + r) / h) + 1
        ii = np.arange(i_lo, i_hi + 1)
        jj = np.arange(j_lo, j_hi + 1)
        gx, gy = np.meshgrid((ii + 0.5) * h, (jj + 0.5) * h, indexing="ij")
        mask = (gx - cx) ** 2 + (gy - cy) ** 2 <= r * r
        si, sj = np.nonzero(mask)
        cells.update(zip((ii[si]).tolist(), (jj[sj]).tolist()))
    return PixelRegion(origin=Point(0.0, 0.0), h=h, cells=frozenset(cells))


def test_08_difference_body_inequality_on_disk_unions():
    h = 0.02
    rng = np.random.default_rng(5150)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        disks = [
            (float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 1.5)))
            for _ in range(k)
        ]
        region = _raster_disk_union(disks, h)
        perimeter = sum(2.0 * math.pi * r for _, _, r in disks)
        diff = minkowski_difference(region)
        assert diff.measure >= 4.0 * region.measure - 10.0 * h * perimeter

    unit = rasterize(DiskUnion(((0.0, 0.0, 1.0),)), h)
    ratio = minkowski_difference(unit).measure / (4.0 * unit.measure)
    assert abs(ratio - 1.0) <= 0.02


def test_09_poison_kill_rates_and_lethal_region_size():
    central = PoisonStrategy(point_masses=(PointMass(Point(0.0, 0.0), 1.0),))
    report = kill_probability(central, PoisonConfig(R=3.0, h_available=1.0, samples=10**6, seed=42))
    lo, hi = report.ci95
    assert lo <= 0.25 <= hi

    split = PoisonStrategy(
        point_masses=(PointMass(Point(-1.5, 0.0), 1.0), PointMass(Point(1.5, 0.0), 1.0))
    )
    report = kill_probability(split, PoisonConfig(R=4.0, h_available=2.0, samples=10**6, seed=42))
    lo, hi = report.ci95
    assert lo <= 2.0 / 9.0 <= hi

    # whatever the placement, a short supply cannot spread the lethal
    # region beyond unit-disk reach
    h_grid = 0.05
    cap = 2.0 + 2.0 * h_grid * SQRT2 + 1e-9
    config = PoisonConfig(R=3.0, h_available=1.5, samples=1, seed=0)
    rng = np.random.default_rng(2024)
    nonempty = 0
    for _ in range(100):
        k = int(rng.integers(1, 5))
        grams = 1.5 * rng.dirichlet(np.ones(k))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=k)
        radii = rng.uniform(0.0, 1.5, size=k)
        masses = tuple(
            PointMass(Point(float(rr * math.cos(th)), float(rr * math.sin(th))), float(g))
            for rr, th, g in zip(radii, angles, grams)
        )
        region = lethal_region(PoisonStrategy(point_masses=masses), config, h_grid=h_grid)
        if region.is_empty():
            continue
        nonempty += 1
        assert region_diam(region) <= cap
    assert nonempty > 0


def test_10_cli_reruns_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.delenv("ISODIAM_TIMESTAMP", raising=False)

    pts = tmp_path / "pts.csv"
    save_points_csv(PointSet([(0, 0), (2, 0), (1, 1.8), (0.5, 0.2)]), pts)
    arcs = tmp_path / "arcs.json"
    arcs.write_text(json.dumps({"r": 2.0, "arcs": [[0.0, 1.4], [2.2, 3.6], [4.4, 5.8]]}))
    strategy = tmp_path / "strategy.json"
    strategy.write_text(json.dumps({"masses": [[0.0, 0.0, 1.0]]}))

    stamp = ["--timestamp", "2026-03-03T00:00:00Z"]
    commands = [
        ["diameters", str(pts), "--ab", "3,2"],
        ["check", str(pts), "--a", "3", "--b", "2", "--threshold", "1.0"],
        ["jung", str(pts)],
        ["bounds", "--delta-min", "2.0", "--delta-max", "4.0", "--steps", "5"],
        ["search", "--delta", "3.0", "--h", "0.15", "--iterations", "80", "--seed", "3"],
        ["conjecture", "--delta-min", "2.4", "--delta-max", "3.9", "--steps", "5"],
        ["poison", "--R", "3", "--h-available", "1", "--samples", "20000",
         "--strategy", str(strategy)],
        ["circle", str(arcs)],
    ]
    for i, argv in enumerate(commands):
        out = tmp_path / f"out{i}.json"
        full = argv + stamp + ["--out", str(out)]
        assert cli.run(full) == 0, argv[0]
        first = out.read_bytes()
        assert cli.run(full) == 0, argv[0]
        assert out.read_bytes() == first, f"{argv[0]} rerun differed"
