import bisect
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cell_oracles import cell_set, inner_raster_cells, minkowski_difference
from isodiam.geometry import DiskUnion, Point, convex_hull_indices
from isodiam.regions import (
    ArcSet,
    PixelRegion,
    _corner_hull,
    arc_measure,
    arc_tab_check,
    inner_raster,
    lens_area,
    rasterize,
    region_diam,
    region_diam3_sampled,
    u_delta_measure,
    u_delta_shape,
)
from isodiam.svgplot import region_svg

LENS_AT_ONE = 1.2283696986087567  # 2*acos(1/2) - (1/2)*sqrt(3)
U3_MEASURE = 5.054815608570829  # 2*pi - lens_area(1)


# ---------------------------------------------------------------- shapes


def test_lens_area_endpoints():
    assert lens_area(0.0) == pytest.approx(math.pi, abs=1e-12)
    assert lens_area(2.0) == pytest.approx(0.0, abs=1e-12)
    assert lens_area(1.0) == pytest.approx(LENS_AT_ONE, abs=1e-12)
    with pytest.raises(ValueError):
        lens_area(-0.1)
    with pytest.raises(ValueError):
        lens_area(2.1)


def test_u_delta_shape_and_measure():
    assert u_delta_shape(3.0) == DiskUnion(((-0.5, 0.0, 1.0), (0.5, 0.0, 1.0)))
    assert u_delta_measure(3.0) == pytest.approx(U3_MEASURE, abs=1e-12)
    with pytest.raises(ValueError):
        u_delta_shape(2.0)
    with pytest.raises(ValueError):
        u_delta_shape(4.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=2.001, max_value=3.999))
def test_u_delta_measure_monotone(delta):
    # pulling the disks apart only uncovers lens area
    assert u_delta_measure(delta) <= u_delta_measure(min(delta + 0.1, 3.999)) + 1e-12


# ---------------------------------------------------------------- raster


def test_rasterize_disk_measure_converges():
    exact = math.pi
    for h in (0.1, 0.05, 0.02):
        r = rasterize(DiskUnion(((0.0, 0.0, 1.0),)), h)
        assert abs(r.measure - exact) < 10.0 * h * 2 * math.pi


def test_rasterize_u_delta_measure():
    r = rasterize(u_delta_shape(3.0), 0.05)
    assert abs(r.measure - U3_MEASURE) <= 10.0 * 0.05


circle_lists = st.lists(
    st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0), st.floats(0.0, 3.0)), min_size=1, max_size=3
)


@settings(max_examples=100, deadline=None)
@given(circle_lists, st.floats(0.25, 1.0))
@example([(0.3, -0.2, 0.2)], 0.25)  # a radius below h fits no cell
@example([(-2.7, -3.1, 2.9), (1.1, 2.5, 1.3), (-2.0, -2.0, 2.5)], 0.25)
def test_inner_raster_equals_the_four_corner_test(circles, h):
    """Centers off the axis and at negative coordinates, overlapping
    disks, and radii from below h to several units."""
    got = inner_raster(DiskUnion(tuple(circles)), h)
    assert got.origin == Point(0.0, 0.0) and got.h == h
    assert got.cells.tolist() == [list(c) for c in inner_raster_cells(circles, h)]


@pytest.mark.parametrize("h", [0.125, 0.1875])
@pytest.mark.parametrize("m,n", [(0, 0), (3, -7), (-10, 4)])
def test_inner_raster_keeps_corners_on_the_circle(h, m, n):
    """On a dyadic pitch a grid-point center and r = 5h put corners such
    as (3h, 4h) from the center exactly on the circle."""
    circles = [(m * h, n * h, 5 * h)]
    got = inner_raster(DiskUnion(tuple(circles)), h)
    assert [m + 2, n + 3] in got.cells.tolist() and [m - 3, n - 4] in got.cells.tolist()
    assert got.cells.tolist() == [list(c) for c in inner_raster_cells(circles, h)]


# sha256 of the cells rasterize gives at the pitches RASTER_PITCHES, one
# after another, and of region_svg with the shape as outline, recorded when
# each shape computed its own bbox and containment; the pitch 0.004 grid
# spans several scan bands. The svg digests were recorded again when
# region_svg came to draw one rect per run of a row's cells
RASTER_PITCHES = (0.05, 0.004)
DISK_UNION_PINS = {
    "disk": (
        DiskUnion(((0.3, -0.1, 0.9),)),
        "5140ecfcb790cd8560900d2262003d2dcff8ae719b15fe1dffc822956ba094eb",
        "c8fc2d8566b4046e0ebebb78ddba2070221a7a96add975a8e0a71b1c4135cfd9",
    ),
    "two-0": (
        DiskUnion(((-0.0, 0.0, 1.0), (0.0, 0.0, 1.0))),
        "60dc57dd5b42f79eb4df026c44c38aac7be20aa706e5eb3b0071e33de94906b6",
        "2e1e83eb98ddf63df8bad51d518d215a65e9958b3e35135873bbab2f626fb927",
    ),
    "two-1": (
        DiskUnion(((-0.5, 0.0, 1.0), (0.5, 0.0, 1.0))),
        "5a696b44fa5828255b8640089f63d6c17e3328d0e1a79c9d984858a1b40415d4",
        "7dde39b77116eaccc299f08bcb1cb90fe69f0ba4327670d158a9c3c687cecf9f",
    ),
    "two-2.5": (
        DiskUnion(((-1.25, 0.0, 1.0), (1.25, 0.0, 1.0))),
        "8151b4ac6c4956d8908038d1c9792f6adcfe64835234194db7070ee7e5567c43",
        "74d67657ecd3644149b9661c94e1067a154304d9fd5e62e79c5db2a47b543d78",
    ),
    "disjoint-3": (
        DiskUnion(((0.0, 0.0, 1.0), (4.5, 0.0, 1.0), (9.0, 0.0, 1.0))),
        "39e63ae8ee9a4e47e5c684965d05af02a4f2f686f737b0b4797219b45876f931",
        "f793cc6b6d17fc7a5cf00dcc36e4faefe731dc12358415e37275c5988bb09644",
    ),
}


@pytest.mark.parametrize("name", list(DISK_UNION_PINS))
def test_disk_union_rasters_and_outlines_are_pinned(name):
    shape, cells_digest, svg_digest = DISK_UNION_PINS[name]
    digest = hashlib.sha256()
    for h in RASTER_PITCHES:
        digest.update(rasterize(shape, h).cells.tobytes())
    svg = region_svg(rasterize(shape, 0.1), outline=shape, title=name)
    assert (digest.hexdigest(), hashlib.sha256(svg.encode()).hexdigest()) == (cells_digest, svg_digest)

def test_region_diam_disk():
    r = rasterize(DiskUnion(((0.0, 0.0, 1.0),)), 0.02)
    # corner-to-corner diameter brackets the true value
    assert 2.0 - 0.08 <= region_diam(r) <= 2.0 + 0.02 * math.sqrt(2) + 1e-9
    with pytest.raises(ValueError):
        region_diam(PixelRegion(origin=Point(0, 0), h=0.1, cells=frozenset()))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=1, max_size=60))
def test_corner_points_are_the_unique_corners_in_index_order(cells):
    """corner_points deduplicates by a sort; its rows are those of
    np.unique over the four corners of every cell, in the same order."""
    r = PixelRegion(origin=Point(0.3, -0.7), h=0.05, cells=frozenset(cells))
    idx = r.cells
    grid = np.unique(np.concatenate([idx, idx + [1, 0], idx + [0, 1], idx + [1, 1]]), axis=0)
    assert np.array_equal(r.corner_points(), grid * r.h + [r.origin.x, r.origin.y])


def test_region_diam_single_cell():
    r = PixelRegion(origin=Point(0, 0), h=0.5, cells=frozenset({(0, 0)}))
    assert region_diam(r) == pytest.approx(0.5 * math.sqrt(2))
    assert r.measure == pytest.approx(0.25)


def all_corners_hull(r: PixelRegion) -> np.ndarray:
    """Hull vertices of every cell corner, as the sampled region checks
    took them before the hull was fed only the rows' extreme corners."""
    corners = r.corner_points()
    return corners[convex_hull_indices(corners)]


def all_corners_region_diam(r: PixelRegion) -> float:
    """region_diam over the hull of every cell corner, as it was before
    the hull was fed only the rows' extreme corners."""
    pts = all_corners_hull(r)
    best = 0.0
    for i in range(len(pts) - 1):
        best = max(best, float(np.sum((pts[i + 1 :] - pts[i]) ** 2, axis=1).max()))
    return math.sqrt(best)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-25, 25), st.integers(-25, 25)), min_size=1, max_size=80),
    st.floats(0.001, 3.0),
    st.floats(-50.0, 50.0),
    st.floats(-50.0, 50.0),
)
def test_region_diam_equals_the_all_corners_hull(cells, h, ox, oy):
    r = PixelRegion(origin=Point(ox, oy), h=h, cells=frozenset(cells))
    assert region_diam(r) == all_corners_region_diam(r)
    assert np.array_equal(_corner_hull(r), all_corners_hull(r))


def test_region_diam_equals_the_all_corners_hull_on_rasters():
    disk = rasterize(DiskUnion(((0.3, -0.1, 1.0),)), 0.013)
    for r in (
        rasterize(u_delta_shape(3.0), 0.02),
        # a raster's cells on a grid off the origin
        PixelRegion(origin=Point(0.004, -0.007), h=disk.h, cells=disk.cells),
        rasterize(DiskUnion(((0.0, 0.0, 1.0), (4.5, 0.0, 1.0))), 0.05),
    ):
        assert region_diam(r) == all_corners_region_diam(r)
        assert np.array_equal(_corner_hull(r), all_corners_hull(r))


def test_region_diam3_sampled_u3():
    h = 0.05
    r = rasterize(u_delta_shape(3.0), h)
    val = region_diam3_sampled(r)
    # the true diam3 is 2: a vertical diametral pair in one disk plus the
    # far pole of the other; sampling plus hull corners should get close
    assert 2.0 - 4 * h <= val <= 2.0 + h * math.sqrt(2) + 1e-9


@pytest.mark.parametrize(
    "cells",
    [
        [],
        [(3, -2)],
        [(0, 0), (1, 5), (2, -1), (4, 7)],  # one cell per row
        [(-3, 0), (-3, 1), (-3, 4), (0, 2), (5, -9), (5, 9), (5, 10)],  # gaps in and between rows
    ],
)
def test_row_starts_match_the_unique_rows(cells):
    region = PixelRegion(origin=Point(0.0, 0.0), h=0.5, cells=cells)
    _, first = np.unique(region.cells[:, 0], return_index=True)
    assert region.row_starts.tolist() == first.tolist() + [len(cells)]


def brute_runs(cells: list[list[int]]) -> list[int]:
    """Run starts found cell by cell: a cell starts a run unless the cell
    before it is in the same row, one column below."""
    starts = [k for k, (i, j) in enumerate(cells) if k == 0 or cells[k - 1] != [i, j - 1]]
    return starts + [len(cells)]


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.frozensets(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), max_size=120),  # holes
        st.frozensets(st.tuples(st.integers(-40, 40), st.integers(-3, 3)), max_size=30),  # one-cell rows
        st.frozensets(st.tuples(st.integers(-2**62, 2**62), st.integers(-2**62, 2**62)), max_size=10),
    )
)
@example(frozenset())
@example(frozenset({(0, 0), (0, 1), (1, 2), (1, 3), (2, -5)}))
@example(frozenset({(0, 2**63 - 1), (1, -(2**63))}))  # j + 1 wraps onto the next row's j
def test_runs_match_the_cell_by_cell_split(cells):
    region = PixelRegion(origin=Point(0.0, 0.0), h=0.5, cells=cells)
    runs = region.runs
    assert runs.tolist() == brute_runs(region.cells.tolist())
    assert set(region.row_starts.tolist()) <= set(runs.tolist())


def test_rasterize_holds_its_cells_at_most_three_times():
    """Each band's centre grids and mask are freed before the bands are
    joined: with the band pieces alive the peak was about 3.6 times the
    cells' bytes, and with the last band's grids alive 2.44 times; it is
    now about 2.0 times."""
    tracemalloc.start()
    try:
        region = rasterize(DiskUnion(((0.0, 0.0, 1.0),)), 0.002)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * region.cells.nbytes


def test_pixel_region_json_round_trip(tmp_path):
    r = rasterize(DiskUnion(((0.3, -0.2, 0.7),)), 0.1)
    data = r.to_json_dict()
    back = PixelRegion.from_json_dict(data)
    assert back == r
    path = tmp_path / "region.json"
    r.save(path)
    assert PixelRegion.load(path) == r
    # serialized form is plain JSON with sorted cells
    raw = json.loads(path.read_text())
    assert raw["cells"] == sorted(raw["cells"])


@pytest.mark.parametrize("index", [0.5, 1.0, "1", True, None])
def test_pixel_region_json_rejects_non_integer_cell_indices(index):
    for cell in ([index, 0], [0, index]):
        with pytest.raises(ValueError, match="cell indices must be integers"):
            PixelRegion.from_json_dict({"origin": [0.0, 0.0], "h": 0.1, "cells": [[0, 0], cell]})


def test_pixel_region_validation():
    with pytest.raises(ValueError):
        PixelRegion(origin=Point(0, 0), h=0.0, cells=frozenset())
    with pytest.raises(ValueError):
        PixelRegion(origin=Point(0, 0), h=-1.0, cells=frozenset({(0, 0)}))


# ------------------------------------------------------- difference body


def test_minkowski_difference_single_cell():
    r = PixelRegion(origin=Point(0, 0), h=0.2, cells=frozenset({(3, 5)}))
    d = minkowski_difference(r)
    assert d.cells.tolist() == [[0, 0]]
    assert d.measure == pytest.approx(0.04)


def test_minkowski_difference_square_exact():
    # a k x k block of cells has a (2k-1) x (2k-1) difference body
    k = 6
    cells = frozenset((i, j) for i in range(k) for j in range(k))
    r = PixelRegion(origin=Point(0, 0), h=0.1, cells=cells)
    d = minkowski_difference(r)
    assert len(d.cells) == (2 * k - 1) ** 2
    assert min(i for i, _ in d.cells) == -(k - 1)
    assert max(i for i, _ in d.cells) == k - 1


def test_minkowski_difference_empty():
    empty = PixelRegion(origin=Point(0, 0), h=0.1, cells=frozenset())
    assert minkowski_difference(empty).is_empty()


def test_minkowski_difference_is_symmetric():
    rng = np.random.default_rng(9)
    cells = frozenset(
        (int(i), int(j)) for i, j in rng.integers(-6, 7, size=(25, 2))
    )
    d = minkowski_difference(PixelRegion(origin=Point(0, 0), h=0.1, cells=cells))
    cells = cell_set(d)
    assert all((-i, -j) in cells for i, j in cells)
    assert (0, 0) in cells


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12)), min_size=1, max_size=40),
    st.floats(0.01, 2.0),
)
def test_minkowski_difference_equals_brute_force(cells, h):
    r = PixelRegion(origin=Point(0.3, -0.7), h=h, cells=frozenset(cells))
    brute = frozenset((i1 - i2, j1 - j2) for i1, j1 in cells for i2, j2 in cells)
    d = minkowski_difference(r)
    assert cell_set(d) == brute
    assert (d.origin, d.h) == (Point(0.0, 0.0), h)


def test_minkowski_difference_disk_quadruples():
    h = 0.02
    r = rasterize(DiskUnion(((0.0, 0.0, 1.0),)), h)
    d = minkowski_difference(r)
    assert d.measure / (4.0 * r.measure) == pytest.approx(1.0, abs=0.02)


# ------------------------------------------------------------------ arcs


def test_arcset_normalization_merges_and_wraps():
    a = ArcSet.from_intervals(2.0, [(6.0, 7.0), (0.2, 0.5), (0.4, 0.9)])
    # (6.0, 7.0) wraps and splits at zero; its tail [0, 0.717) swallows the
    # merged pair (0.2, 0.9), leaving two arcs
    assert len(a.arcs) == 2
    assert a.arcs[0][0] == 0.0
    assert a.arcs[1] == (6.0, pytest.approx(2 * math.pi))
    total = sum(t2 - t1 for t1, t2 in a.arcs)
    assert total == pytest.approx(0.9 + 2 * math.pi - 6.0, abs=1e-9)
    assert arc_measure(a) == pytest.approx(2.0 * total, abs=1e-12)


def test_arcset_rejects_bad_input():
    with pytest.raises(ValueError):
        ArcSet(r=0.0, arcs=((0.0, 1.0),))
    with pytest.raises(ValueError):
        ArcSet(r=1.0, arcs=((1.0, 0.5),))
    with pytest.raises(ValueError):
        ArcSet(r=1.0, arcs=((0.0, 1.0), (0.5, 2.0)))  # overlap
    with pytest.raises(ValueError):
        ArcSet.from_intervals(1.0, [(0.0, 0.0)])  # zero width
    with pytest.raises(ValueError):
        ArcSet.from_intervals(1.0, [(0.0, 7.0)])  # wider than the circle


def test_arcset_json_round_trip(tmp_path):
    a = ArcSet.from_intervals(1.5, [(0.1, 1.2), (3.0, 4.0)])
    path = tmp_path / "arcs.json"
    path.write_text(json.dumps({"r": a.r, "arcs": a.arcs}))
    back = ArcSet.load(path)
    assert back == a
    assert back.arcs == a.arcs  # bit exact


def test_arc_measure():
    a = ArcSet.from_intervals(2.0, [(0.0, 1.0), (2.0, 3.5)])
    assert arc_measure(a) == pytest.approx(2.0 * 2.5, abs=1e-12)


def test_arc_tab_check_full_circle_violates():
    full = ArcSet.from_intervals(2.0, [(0.0, 2 * math.pi)])
    res = arc_tab_check(full)
    assert not res.holds
    assert res.witness is not None
    a0, a1, a2 = res.witness
    theta_star = 2.0 * math.asin(1.0 / 2.0)
    assert a1 - a0 > theta_star
    assert a2 - a1 > theta_star
    assert 2 * math.pi - (a2 - a0) > theta_star


def test_arc_tab_check_narrow_arc_holds():
    a = ArcSet.from_intervals(2.0, [(0.0, 0.5)])
    assert arc_tab_check(a).holds


def test_arc_tab_check_three_spread_arcs():
    # three short arcs near the vertices of an inscribed equilateral triangle
    a = ArcSet.from_intervals(1.5, [(0.0, 0.1), (2.0, 2.2), (4.2, 4.4)])
    res = arc_tab_check(a)
    assert not res.holds


def test_arc_tab_check_domain():
    a = ArcSet.from_intervals(1.0, [(0.0, 1.0)])
    with pytest.raises(ValueError):
        arc_tab_check(a)  # r at or below 2/sqrt(3)


def test_arc_tab_check_witness_lies_in_arcs():
    a = ArcSet.from_intervals(2.0, [(0.0, 1.4), (2.2, 3.6), (4.4, 5.8)])
    res = arc_tab_check(a)
    assert not res.holds
    assert_genuine_witness(a, res.witness)


def assert_genuine_witness(arcs: ArcSet, witness) -> None:
    """Sorted angles of the half-open arcs, every circular gap above
    2*asin(1/r) and every chord beyond 2, as the benchmark oracle checks."""
    theta = 2.0 * math.asin(1.0 / arcs.r)
    a, b, c = witness
    assert 0.0 <= a < b < c < 2 * math.pi
    for angle in witness:
        assert any(t1 <= angle < t2 for t1, t2 in arcs.arcs)
    assert min(b - a, c - b, 2 * math.pi - (c - a)) > theta
    for s, t in ((a, b), (b, c), (a, c)):
        assert 2.0 * arcs.r * abs(math.sin((s - t) / 2.0)) > 2.0


def grid_max_min_gap(units, n):
    """Largest smallest circular gap of three points of the closed arcs
    [s, s + w] (in units of 2*pi/n), over every triple on the grid of pitch
    2*pi/(6n), in those grid units. The optimum's linear-program vertices
    have denominators dividing 6, so the grid attains it."""
    g = 6 * n
    pts = np.array(sorted({k % g for s, w in units for k in range(6 * s, 6 * (s + w) + 1)}))
    if len(pts) < 3:
        return None
    i, j, k = np.meshgrid(pts, pts, pts, indexing="ij", sparse=True)
    smallest = np.minimum(np.minimum(j - i, k - j), g - (k - i))
    return int(np.where((i < j) & (j < k), smallest, -1).max())


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([6, 9, 12, 15, 18]).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)), min_size=1, max_size=5),
        )
    ),
    st.floats(1.16, 6.0),
)
def test_arc_tab_check_matches_the_grid_oracle(grid_arcs, r):
    n, units = grid_arcs
    arcs = ArcSet.from_intervals(r, [(s * 2 * math.pi / n, (s + w) * 2 * math.pi / n) for s, w in units])
    theta = 2.0 * math.asin(1.0 / r)
    best = grid_max_min_gap(units, n)
    gap = -1.0 if best is None else best * 2 * math.pi / (6 * n)
    assume(abs(gap - theta) >= 1e-9)
    res = arc_tab_check(arcs)
    assert res.holds == (gap < theta)
    if not res.holds:
        assert_genuine_witness(arcs, res.witness)


def sampled_arc_witness(arcs: ArcSet, n: int):
    """The sampled check arc_tab_check replaced: n evenly spaced angles per
    arc (left ends of n equal subdivisions) and a greedy sweep for three
    samples whose circular gaps all exceed 2*asin(1/r). A witness is
    genuine; finding none proves nothing."""
    theta = 2.0 * math.asin(1.0 / arcs.r)
    samples = sorted(t1 + (t2 - t1) * k / n for t1, t2 in arcs.arcs for k in range(n))
    for a0 in samples:
        j = bisect.bisect_right(samples, a0 + theta)
        if j >= len(samples):
            break
        k = bisect.bisect_right(samples, samples[j] + theta)
        if k < len(samples) and 2 * math.pi - (samples[k] - a0) > theta:
            return a0, samples[j], samples[k]
    return None


def test_arc_tab_check_finds_every_sampled_violation():
    rng = np.random.default_rng(20260101)
    found = 0
    for _ in range(1200):
        count = int(rng.integers(1, 9))
        starts = rng.uniform(0.0, 2 * math.pi, count)
        widths = rng.uniform(0.01, 2.0, count)
        arcs = ArcSet.from_intervals(float(rng.uniform(1.16, 6.0)), list(zip(starts, starts + widths)))
        if sampled_arc_witness(arcs, 64) is not None:
            found += 1
            res = arc_tab_check(arcs)
            assert not res.holds
            assert_genuine_witness(arcs, res.witness)
    assert found > 300


def test_arc_tab_check_finds_what_sampling_misses():
    # one arc just wider than 2*theta* = 1.01072...: the violating triples
    # need both ends of the arc, and the last of 64 samples stops 1/64 short
    arcs = ArcSet.from_intervals(4.0, [(0.0, 1.0115)])
    assert sampled_arc_witness(arcs, 64) is None
    res = arc_tab_check(arcs)
    assert not res.holds
    assert_genuine_witness(arcs, res.witness)
